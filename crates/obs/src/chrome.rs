//! Chrome `trace_event` JSON export (Perfetto-loadable).
//!
//! Layout: one Chrome *process* per node (`pid` = node index, plus a
//! synthetic engine process), one *thread* per stage (`tid` 0 =
//! gossip, 1 = calc). Spans become balanced `B`/`E` pairs; zero-length
//! spans export as instants so the `B`/`E` stream never interleaves
//! improperly; counters become `C` events rendered as counter tracks.
//!
//! Timestamps are virtual microseconds with nanosecond fraction (the
//! `trace_event` format's unit), rendered with a fixed three-digit
//! fraction so output is byte-deterministic.
//!
//! The full native [`Trace`] — histograms included, which the
//! `traceEvents` array cannot carry — rides along under the top-level
//! `"scalecheck"` key. Chrome and Perfetto ignore unknown top-level
//! keys; [`from_chrome_json`] round-trips through it, so one file
//! serves both the viewer and the divergence analyzer.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

use serde::json::{push_u64, Error, Kind, Reader};
use serde::{Deserialize as _, Serialize};

use crate::names::{SpanName, ENGINE_PID, TID_CALC, TID_GOSSIP, TID_REQUEST};
use crate::tracer::Trace;

fn thread_label(pid: u32, tid: u32) -> &'static str {
    if pid == ENGINE_PID {
        return "engine";
    }
    match tid {
        TID_GOSSIP => "gossip",
        TID_CALC => "calc",
        TID_REQUEST => "request",
        _ => "aux",
    }
}

fn counter_label(name: u16, tid: u32) -> &'static str {
    match SpanName::from_u16(name) {
        Some(SpanName::StageUtilization) if tid == TID_CALC => "util.calc",
        Some(SpanName::StageUtilization) if tid == TID_REQUEST => "util.request",
        Some(SpanName::StageUtilization) => "util.gossip",
        Some(SpanName::EngineEvents) => "events_per_s",
        _ => SpanName::str_of(name),
    }
}

/// A `traceEvents` phase. Declared in the order rows sort at equal
/// timestamps: a span's end comes before the next span's begin, keeping
/// each serial track balanced.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    End,
    Instant,
    Counter,
    Begin,
}

const PHASES: [Phase; 4] = [Phase::End, Phase::Instant, Phase::Counter, Phase::Begin];

/// A row's sort key: its timestamp, phase and place in [`row_at`]'s
/// listing packed into one integer, from the high bits down. The place
/// breaks every tie, so an unstable sort of the keys gives the order a
/// stable sort of the rows by `(ts, phase)` gives.
fn key(ts: u64, phase: Phase, place: usize) -> u128 {
    u128::from(ts) << 64 | (phase as u128) << 62 | place as u128
}

/// The `(ts, phase, place)` a [`key`] packs.
fn unkey(key: u128) -> (u64, Phase, usize) {
    let place = (key as u64 & ((1 << 62) - 1)) as usize;
    ((key >> 64) as u64, PHASES[(key >> 62 & 3) as usize], place)
}

/// How many places the rows are listed at: span `k`'s begin (or
/// instant) at place `2k` and its end at `2k + 1`, then the instants,
/// then the counters.
fn places(trace: &Trace) -> usize {
    trace.spans.len() * 2 + trace.instants.len() + trace.counters.len()
}

/// Every row's key, sorted.
fn sorted_keys(trace: &Trace) -> Vec<u128> {
    assert!(places(trace) < 1 << 62, "a place takes 62 bits of a key");
    let spans = trace.spans.len();
    let mut keys = Vec::with_capacity(places(trace));
    for (k, s) in trace.spans.iter().enumerate() {
        if s.dur == 0 {
            keys.push(key(s.ts, Phase::Instant, 2 * k));
        } else {
            keys.push(key(s.ts, Phase::Begin, 2 * k));
            keys.push(key(s.ts + s.dur, Phase::End, 2 * k + 1));
        }
    }
    let instants = trace.instants.iter().map(|i| i.ts);
    let counters = trace.counters.iter().map(|c| c.ts);
    for (place, ts) in (2 * spans..).zip(instants) {
        keys.push(key(ts, Phase::Instant, place));
    }
    for (place, ts) in (2 * spans + trace.instants.len()..).zip(counters) {
        keys.push(key(ts, Phase::Counter, place));
    }
    keys.sort_unstable();
    keys
}

/// One `traceEvents` row; `arg` is the span/instant argument or the
/// counter value (unused by `End`).
struct Row {
    ts: u64,
    phase: Phase,
    name: u16,
    pid: u32,
    tid: u32,
    arg: u64,
}

/// The row listed at `place`.
fn row_at(trace: &Trace, (ts, phase, place): (u64, Phase, usize)) -> Row {
    let spans = trace.spans.len();
    let (name, pid, tid, arg) = if place < 2 * spans {
        let s = &trace.spans[place / 2];
        (s.name, s.pid, s.tid, s.arg)
    } else if place < 2 * spans + trace.instants.len() {
        let i = &trace.instants[place - 2 * spans];
        (i.name, i.pid, i.tid, i.arg)
    } else {
        let c = &trace.counters[place - 2 * spans - trace.instants.len()];
        (c.name, c.pid, c.tid, c.value)
    };
    Row {
        ts,
        phase,
        name,
        pid,
        tid,
        arg,
    }
}

/// Every `(pid, tid)` the rows use, sorted.
fn tracks(trace: &Trace) -> Vec<(u32, u32)> {
    let spans = trace.spans.iter().map(|s| (s.pid, s.tid));
    let instants = trace.instants.iter().map(|i| (i.pid, i.tid));
    let counters = trace.counters.iter().map(|c| (c.pid, c.tid));
    let mut tracks: Vec<_> = spans.chain(instants).chain(counters).collect();
    tracks.sort_unstable();
    tracks.dedup();
    tracks
}

/// How many bytes [`write_chrome_json`] renders before it hands them to
/// its writer.
const CHUNK: usize = 1 << 16;

/// Renders a trace as a Chrome `trace_event` JSON object string (the
/// bytes [`write_chrome_json`] writes).
pub fn to_chrome_json(trace: &Trace) -> String {
    // Sized once from the counts: a row or a record of the native trace
    // takes well under these many bytes in practice.
    let tracks = tracks(trace);
    let records = trace.spans.len() + trace.instants.len() + trace.counters.len();
    let mut out = String::with_capacity((tracks.len() + places(trace)) * 96 + records * 80 + 4096);
    let kept: io::Result<()> = render(trace, &tracks, &mut out, |_| Ok(()));
    kept.expect("keeping the rendered bytes cannot fail");
    out
}

/// Writes a trace to `w` as a Chrome `trace_event` JSON object, a chunk
/// at a time: the export holds about [`CHUNK`] bytes of the file at
/// once, never the whole file.
pub fn write_chrome_json(trace: &Trace, w: &mut impl io::Write) -> io::Result<()> {
    let mut chunk = String::with_capacity(2 * CHUNK);
    render(trace, &tracks(trace), &mut chunk, |chunk| {
        if chunk.len() >= CHUNK {
            w.write_all(chunk.as_bytes())?;
            chunk.clear();
        }
        Ok(())
    })?;
    w.write_all(chunk.as_bytes())
}

/// The one renderer: appends the file to `out`, calling `spill(out)`
/// after each row and each record of the native trace, where a caller
/// that streams moves the bytes on. `tracks` are the trace's
/// [`tracks`].
fn render(
    trace: &Trace,
    tracks: &[(u32, u32)],
    out: &mut String,
    mut spill: impl FnMut(&mut String) -> io::Result<()>,
) -> io::Result<()> {
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
    };
    // Metadata rows for every (pid, tid) seen, in sorted order; the
    // event rows follow them.
    let mut last_pid = None;
    for &(pid, tid) in tracks {
        if last_pid != Some(pid) {
            last_pid = Some(pid);
            sep(out);
            let pname = if pid == ENGINE_PID {
                "engine".to_string()
            } else {
                format!("node {pid}")
            };
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            );
        }
        sep(out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            thread_label(pid, tid)
        );
    }
    push_rows(out, trace, &sorted_keys(trace), &mut spill)?;
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"scalecheck\":");
    // The native trace as its derived `Serialize` writes it, one record
    // at a time. Naming every field makes a new one a compile error
    // here.
    let Trace {
        meta,
        spans,
        instants,
        counters,
        metrics,
    } = trace;
    out.push_str("{\"meta\":");
    meta.serialize(out);
    out.push_str(",\"spans\":");
    render_seq(out, spans, &mut spill)?;
    out.push_str(",\"instants\":");
    render_seq(out, instants, &mut spill)?;
    out.push_str(",\"counters\":");
    render_seq(out, counters, &mut spill)?;
    out.push_str(",\"metrics\":");
    render_seq(out, metrics, &mut spill)?;
    out.push_str("}}");
    spill(out)
}

/// Appends `items` as a JSON array, calling `spill` after each.
fn render_seq<T: Serialize>(
    out: &mut String,
    items: &[T],
    spill: &mut impl FnMut(&mut String) -> io::Result<()>,
) -> io::Result<()> {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize(out);
        spill(out)?;
    }
    out.push(']');
    Ok(())
}

/// Appends the rows `keys` stand for, in their order, calling `spill`
/// after each.
fn push_rows(
    out: &mut String,
    trace: &Trace,
    keys: &[u128],
    spill: &mut impl FnMut(&mut String) -> io::Result<()>,
) -> io::Result<()> {
    for &k in keys {
        let r = row_at(trace, unkey(k));
        out.push_str(",\n");
        out.push_str("{\"name\":\"");
        out.push_str(match r.phase {
            Phase::Counter => counter_label(r.name, r.tid),
            _ => SpanName::str_of(r.name),
        });
        out.push_str(match r.phase {
            Phase::Begin => "\",\"ph\":\"B\",\"pid\":",
            Phase::End => "\",\"ph\":\"E\",\"pid\":",
            Phase::Instant => "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":",
            Phase::Counter => "\",\"ph\":\"C\",\"pid\":",
        });
        push_u64(out, u64::from(r.pid));
        out.push_str(",\"tid\":");
        push_u64(out, u64::from(r.tid));
        // Virtual µs with a fixed three-digit ns fraction.
        out.push_str(",\"ts\":");
        push_u64(out, r.ts / 1000);
        out.push('.');
        for digit in [r.ts % 1000 / 100, r.ts % 100 / 10, r.ts % 10] {
            out.push(char::from(b'0' + digit as u8));
        }
        if r.phase != Phase::End {
            out.push_str(",\"args\":{\"v\":");
            push_u64(out, r.arg);
            out.push('}');
        }
        out.push('}');
        spill(out)?;
    }
    Ok(())
}

fn not_json(e: Error) -> String {
    format!("not valid JSON: {e:?}")
}

/// What to report for a file that failed with `why`: its first syntax
/// error if it has one anywhere — a file is JSON before it is a trace —
/// and `why` otherwise.
fn reject(json: &str, why: String) -> String {
    let mut r = Reader::new(json);
    match r.skip_value().and_then(|()| r.end()) {
        Err(e) => not_json(e),
        Ok(()) => why,
    }
}

/// Walks the top-level object of `json`: the value of the first `want`
/// key goes to `read`, everything else is skipped (and validated).
/// `Ok(None)` if the key never appears.
fn read_top_level_key<'a, T>(
    json: &'a str,
    want: &str,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let mut r = Reader::new(json);
    if r.kind().map_err(not_json)? != Kind::Object {
        return Err("top level is not an object".into());
    }
    let mut found = None;
    let mut more = r.begin_object().map_err(not_json)?;
    while more {
        let key = r.key().map_err(not_json)?;
        if found.is_none() && key == want {
            found = Some(read(&mut r)?);
        } else {
            r.skip_value().map_err(not_json)?;
        }
        more = r.next_entry().map_err(not_json)?;
    }
    r.end().map_err(not_json)?;
    Ok(found)
}

/// Parses a Chrome trace file produced by [`to_chrome_json`] back into
/// the native [`Trace`] via its embedded `"scalecheck"` key. The rest of
/// the file is validated as JSON but never materialised.
pub fn from_chrome_json(json: &str) -> Result<Trace, String> {
    read_top_level_key(json, "scalecheck", |r| {
        Trace::deserialize(r).map_err(|e| format!("bad native trace: {e:?}"))
    })
    .and_then(|native| {
        native.ok_or_else(|| "missing \"scalecheck\" key (not a scalecheck trace?)".to_string())
    })
    .map_err(|why| reject(json, why))
}

/// Validates the `traceEvents` stream: parses as JSON and checks that
/// on every `(pid, tid)` track the `B`/`E` events are balanced with
/// matching names. Returns the number of events checked.
pub fn validate_chrome(json: &str) -> Result<usize, String> {
    read_top_level_key(json, "traceEvents", check_events)
        .and_then(|n| n.ok_or_else(|| "missing traceEvents array".to_string()))
        .map_err(|why| reject(json, why))
}

/// The string at the reader; `None` (and the value skipped) if it holds
/// anything else.
fn string_or_skip<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, Error> {
    if r.kind()? == Kind::String {
        r.string().map(Some)
    } else {
        r.skip_value().map(|()| None)
    }
}

/// The number at the reader; `None` (and the value skipped) if it holds
/// anything else.
fn number_or_skip(r: &mut Reader<'_>) -> Result<Option<f64>, Error> {
    if r.kind()? == Kind::Number {
        r.number().map(|n| Some(n.as_f64()))
    } else {
        r.skip_value().map(|()| None)
    }
}

fn check_events<'a>(r: &mut Reader<'a>) -> Result<usize, String> {
    if r.kind().map_err(not_json)? != Kind::Array {
        return Err("missing traceEvents array".into());
    }
    let mut stacks: BTreeMap<Track, Vec<Cow<'a, str>>> = BTreeMap::new();
    let mut i = 0;
    let mut more = r.begin_array().map_err(not_json)?;
    while more {
        // The first of each key counts, as in a lookup; an event that is
        // not an object has no fields at all.
        let (mut ph, mut name, mut pid, mut tid) = (None, None, None, None);
        let mut fields = || -> Result<(), Error> {
            if r.kind()? != Kind::Object {
                return r.skip_value();
            }
            let mut more = r.begin_object()?;
            while more {
                match &*r.key()? {
                    "ph" if ph.is_none() => ph = Some(string_or_skip(r)?),
                    "name" if name.is_none() => name = Some(string_or_skip(r)?),
                    "pid" if pid.is_none() => pid = Some(number_or_skip(r)?),
                    "tid" if tid.is_none() => tid = Some(number_or_skip(r)?),
                    _ => r.skip_value()?,
                }
                more = r.next_entry()?;
            }
            Ok(())
        };
        fields().map_err(not_json)?;
        let ph = ph
            .flatten()
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = name
            .flatten()
            .ok_or_else(|| format!("event {i}: missing name"))?;
        // A B/E event's track is its exact (pid, tid); one without both
        // has no track to balance on.
        let track = || match (pid.flatten(), tid.flatten()) {
            (Some(pid), Some(tid)) => Ok(Track::new(pid, tid)),
            _ => Err(format!("event {i}: {ph} without a numeric pid and tid")),
        };
        match &*ph {
            "B" => stacks.entry(track()?).or_default().push(name),
            "E" => {
                let track = track()?;
                let open = stacks
                    .entry(track)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: E \"{name}\" with no open B"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" closes B \"{open}\" on track {track}"
                    ));
                }
            }
            "M" | "i" | "C" | "X" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
        i += 1;
        more = r.next_element().map_err(not_json)?;
    }
    for (track, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed B \"{open}\" on track {track}"));
        }
    }
    Ok(i)
}

/// A `(pid, tid)` track as the viewer reads it: two doubles, compared
/// exactly (by their bits, `-0` taken as `0`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Track(u64, u64);

impl Track {
    fn new(pid: f64, tid: f64) -> Track {
        Track((pid + 0.0).to_bits(), (tid + 0.0).to_bits())
    }
}

impl std::fmt::Display for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", f64::from_bits(self.0), f64::from_bits(self.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metric, Tracer};

    fn sample_trace() -> Trace {
        let mut t = Tracer::new();
        t.span_complete(SpanName::GossipSendRound, 0, TID_GOSSIP, 1000, 500, 3);
        t.span_complete(SpanName::GossipReceive, 0, TID_GOSSIP, 1500, 250, 1);
        t.span_complete(SpanName::CalcRecalculate, 1, TID_CALC, 1200, 900, 640);
        // Zero-duration span exports as an instant, not B/E.
        t.span_complete(SpanName::LockWait, 1, TID_CALC, 1200, 0, 0);
        let id = t.span_start(SpanName::EngineRun, ENGINE_PID, 0, 0);
        t.span_end(id, 10_000, 4);
        t.instant(SpanName::FdConvicted, 0, TID_GOSSIP, 1700, 1);
        t.counter(SpanName::StageUtilization, 1, TID_CALC, 5000, 800);
        t.metric(Metric::LockWait, 77);
        let mut tr = t.finish();
        tr.meta.label = "chrome-unit".into();
        tr.meta.seed = 3;
        tr.meta.n_nodes = 2;
        tr
    }

    #[test]
    fn export_validates_and_balances() {
        let tr = sample_trace();
        let json = to_chrome_json(&tr);
        let n = validate_chrome(&json).expect("well-formed");
        assert!(n > 8, "got {n} events");
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("gossip.send_round"));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn ends_sort_before_begins_at_equal_ts() {
        // receive starts exactly when send_round ends on the same track.
        let mut t = Tracer::new();
        t.span_complete(SpanName::GossipReceive, 0, 0, 500, 100, 0);
        t.span_complete(SpanName::GossipSendRound, 0, 0, 0, 500, 0);
        let json = to_chrome_json(&t.finish());
        validate_chrome(&json).expect("adjacent spans stay balanced");
    }

    #[test]
    fn native_trace_round_trips_through_chrome_file() {
        let tr = sample_trace();
        let json = to_chrome_json(&tr);
        let back = from_chrome_json(&json).expect("parses");
        assert_eq!(back, tr);
        // Byte-determinism of the whole artifact.
        assert_eq!(to_chrome_json(&back), json);
    }

    #[test]
    fn from_chrome_json_rejects_foreign_files_with_a_typed_error() {
        let err = |json: &str| from_chrome_json(json).unwrap_err();
        assert!(err("not json").starts_with("not valid JSON"));
        assert!(err("[1,2]").starts_with("top level is not an object"));
        assert!(err("{\"traceEvents\":[]}").starts_with("missing \"scalecheck\" key"));
        assert!(err("{\"scalecheck\":{\"meta\":1}}").starts_with("bad native trace"));
        // A file is JSON before it is a trace: a syntax error anywhere
        // outranks what the walk met first.
        assert!(err("{\"scalecheck\":{\"meta\":1},\"x\":tru}").starts_with("not valid JSON"));
        assert!(err("[1,2").starts_with("not valid JSON"));
        assert!(validate_chrome("{\"traceEvents\":[{\"ph\":7}],\"x\":]}")
            .unwrap_err()
            .starts_with("not valid JSON"));
    }

    #[test]
    fn syntax_error_after_the_native_trace_is_still_rejected() {
        let tr = sample_trace();
        let json = to_chrome_json(&tr);
        let open = json.strip_suffix('}').expect("an object");
        for tail in [",\"x\":tru}", ",}", "}}", "} x", ""] {
            let bad = format!("{open}{tail}");
            assert!(
                from_chrome_json(&bad)
                    .unwrap_err()
                    .starts_with("not valid JSON"),
                "{tail:?}"
            );
        }
        // ... while well-formed extras, a later duplicate included, are fine.
        let extra = format!("{open},\"x\":[1,{{}}],\"scalecheck\":null}}");
        assert_eq!(from_chrome_json(&extra).as_ref(), Ok(&tr));
    }

    /// Damaged files end in an error value: never a panic, never an
    /// abort, and never a different trace.
    #[test]
    fn truncated_and_flipped_files_return() {
        let tr = sample_trace();
        let json = to_chrome_json(&tr);
        assert!(json.is_ascii(), "byte offsets below are char offsets");
        for cut in 0..json.len() {
            assert!(from_chrome_json(&json[..cut]).is_err(), "cut at {cut}");
            assert!(validate_chrome(&json[..cut]).is_err(), "cut at {cut}");
        }

        let events = json.find("\"traceEvents\":[").unwrap()..json.find("\n],").unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let (mut survived, mut survived_in_events) = (0, 0);
        for _ in 0..1000 {
            let at = next() % json.len();
            let mut bytes = json.clone().into_bytes();
            let alphabet = b" \"\\{}[],:.-+0123456789eEntfu\x01z";
            bytes[at] = alphabet[next() % alphabet.len()];
            let flipped = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            let _ = validate_chrome(&flipped);
            if let Ok(back) = from_chrome_json(&flipped) {
                survived += 1;
                if events.contains(&at) {
                    survived_in_events += 1;
                    assert_eq!(back, tr, "flip at {at} changed the trace");
                }
            }
        }
        // The cases above must not be vacuous.
        assert!(survived_in_events > 20 && survived > survived_in_events);
    }

    #[test]
    fn validator_rejects_unbalanced_streams() {
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1}\
        ]}";
        assert!(validate_chrome(bad).unwrap_err().contains("unclosed"));
        let crossed = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1},\
            {\"name\":\"b\",\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":2}\
        ]}";
        assert!(validate_chrome(crossed).unwrap_err().contains("closes"));
    }

    /// Were `Ok(2)`: a missing pid and pid −3 both read as track pid 0.
    #[test]
    fn validator_keeps_tracks_apart() {
        let pidless = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"pid\":0,\"tid\":0},\
            {\"name\":\"a\",\"ph\":\"E\",\"tid\":0}\
        ]}";
        assert_eq!(
            validate_chrome(pidless).unwrap_err(),
            "event 1: E without a numeric pid and tid"
        );
        let negative = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"pid\":-3,\"tid\":0},\
            {\"name\":\"a\",\"ph\":\"E\",\"pid\":0,\"tid\":0}\
        ]}";
        assert_eq!(
            validate_chrome(negative).unwrap_err(),
            "event 1: E \"a\" with no open B"
        );
        // The same track spelled two ways is one track.
        let spelled = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"pid\":-0.0,\"tid\":1},\
            {\"name\":\"a\",\"ph\":\"E\",\"pid\":0.0,\"tid\":1e0}\
        ]}";
        assert_eq!(validate_chrome(spelled), Ok(2));
        let unclosed = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"pid\":-3,\"tid\":0.5}]}";
        assert_eq!(
            validate_chrome(unclosed).unwrap_err(),
            "unclosed B \"a\" on track (-3,0.5)"
        );
    }
}
