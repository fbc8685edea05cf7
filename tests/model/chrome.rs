//! `scalecheck_obs::to_chrome_json` as it was before it sorted compact
//! keys: every row materialised, stable-sorted by `(ts, phase)`, the
//! tracks gathered in a `BTreeSet` fed every row, and the fraction
//! written one digit at a time. The oracle of
//! `proptests::chrome_export_matches_the_row_sorting_model`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use scalecheck_obs::{SpanName, Trace, ENGINE_PID, TID_CALC, TID_GOSSIP, TID_REQUEST};

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

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    End,
    Instant,
    Counter,
    Begin,
}

struct Row {
    ts: u64,
    phase: Phase,
    name: u16,
    pid: u32,
    tid: u32,
    arg: u64,
}

pub fn to_chrome_json(trace: &Trace) -> String {
    let mut rows: Vec<Row> =
        Vec::with_capacity(trace.spans.len() * 2 + trace.instants.len() + trace.counters.len());
    let mut row = |phase, name, pid, tid, ts, arg| {
        rows.push(Row {
            ts,
            phase,
            name,
            pid,
            tid,
            arg,
        })
    };
    for s in &trace.spans {
        if s.dur == 0 {
            row(Phase::Instant, s.name, s.pid, s.tid, s.ts, s.arg);
        } else {
            row(Phase::Begin, s.name, s.pid, s.tid, s.ts, s.arg);
            row(Phase::End, s.name, s.pid, s.tid, s.ts + s.dur, 0);
        }
    }
    for i in &trace.instants {
        row(Phase::Instant, i.name, i.pid, i.tid, i.ts, i.arg);
    }
    for c in &trace.counters {
        row(Phase::Counter, c.name, c.pid, c.tid, c.ts, c.value);
    }
    rows.sort_by_key(|r| (r.ts, r.phase));

    let mut out = String::with_capacity(rows.len() * 96 + 4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };
    let tracks: BTreeSet<(u32, u32)> = rows.iter().map(|r| (r.pid, r.tid)).collect();
    let mut last_pid = None;
    for &(pid, tid) in &tracks {
        if last_pid != Some(pid) {
            last_pid = Some(pid);
            sep(&mut out);
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
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            thread_label(pid, tid)
        );
    }
    for r in &rows {
        sep(&mut out);
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
        // The integers through `format!`, not the shim's writer, so that
        // the oracle does not share the code it checks.
        let _ = write!(out, "{},\"tid\":{}", r.pid, r.tid);
        out.push_str(",\"ts\":");
        let _ = write!(out, "{}", r.ts / 1000);
        out.push('.');
        for digit in [r.ts % 1000 / 100, r.ts % 100 / 10, r.ts % 10] {
            out.push(char::from(b'0' + digit as u8));
        }
        if r.phase != Phase::End {
            out.push_str(",\"args\":{\"v\":");
            let _ = write!(out, "{}", r.arg);
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"scalecheck\":");
    out.push_str(&serde_json::to_string(trace).expect("a trace serializes"));
    out.push('}');
    out
}
