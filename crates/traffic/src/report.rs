//! The serialized outcome of one run's traffic: per-phase histograms,
//! budget accounting, and a content-addressed request log.

use scalecheck_obs::LogHistogram;
use scalecheck_sim::TimeSeries;
use serde::Serialize;

use crate::consistency::OpKind;
use crate::slo::{ErrorBudget, SloSummary, SloTarget};

/// What happened to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Outcome {
    /// Required acknowledgements arrived.
    Ok,
    /// Succeeded only via the degradation policy (hinted write).
    Degraded,
    /// Timed out / no path to the required replicas.
    Failed,
}

impl Outcome {
    fn code(self) -> u8 {
        match self {
            Outcome::Ok => 0,
            Outcome::Degraded => 1,
            Outcome::Failed => 2,
        }
    }
}

/// One simulated request sample (weight = offered requests it stands
/// for).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct RequestRecord {
    /// Virtual issue time (ns).
    pub at_ns: u64,
    /// Coordinator node index.
    pub coordinator: u32,
    /// Partition key token.
    pub key: u64,
    /// Read or write.
    pub kind: OpKind,
    /// How it ended.
    pub outcome: Outcome,
    /// End-to-end latency (ns).
    pub latency_ns: u64,
    /// Offered requests this sample represents.
    pub weight: u64,
}

/// One latency histogram cell: (phase, kind) with a readable label.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct PhaseHist {
    /// `"<phase>/<kind>"`, e.g. `"rescale/read"`.
    pub label: String,
    /// Latency distribution (ns), weighted.
    pub hist: LogHistogram,
}

/// Everything one run's traffic produced. Deterministic to the byte:
/// same (config, plan, seed) serializes identically at any `--jobs`.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct TrafficReport {
    /// Whether any load was offered.
    pub enabled: bool,
    /// Whether requests ran *coupled* to the simulation (CPU billing +
    /// real data-plane messages) instead of the standalone latency
    /// model.
    pub coupled: bool,
    /// Weighted requests offered.
    pub attempted: u64,
    /// Weighted requests that failed outright.
    pub failed: u64,
    /// Weighted requests that succeeded only degraded.
    pub degraded: u64,
    /// Request samples actually simulated (the run costs O(this)).
    pub samples: u64,
    /// Weighted requests reissued after a client timeout (retry
    /// feedback into offered load).
    pub retried: u64,
    /// Weighted retries shed because the retry queue was at capacity
    /// (booked failed immediately).
    pub retry_shed: u64,
    /// Weighted retries still pending when the run ended.
    pub retry_in_flight: u64,
    /// Data-plane messages offered to the fabric.
    pub data_sent: u64,
    /// Data-plane messages the fabric dropped (partition, loss, fault
    /// window).
    pub data_dropped: u64,
    /// Latency histograms, one per (phase, kind), phase-major.
    pub hists: Vec<PhaseHist>,
    /// Cumulative weighted failures over virtual time.
    pub failure_series: TimeSeries,
    /// Error-budget accounting over the whole run.
    pub budget: ErrorBudget,
    /// The SLO target the budget was held to.
    pub target: SloTarget,
    /// FNV-1a-128 digest over every request record, in issue order.
    pub log_digest: String,
    /// The first few records verbatim (debugging; capped).
    pub log_sample: Vec<RequestRecord>,
    /// Peak tracked state footprint in bytes — independent of the
    /// configured user count (the O(requests) memory contract).
    pub state_peak_bytes: u64,
}

impl TrafficReport {
    /// All-phase latency histogram (merged).
    pub fn latency_hist(&self) -> LogHistogram {
        let mut all = LogHistogram::new();
        for ph in &self.hists {
            all.merge(&ph.hist);
        }
        all
    }

    /// The run condensed to its user-visible verdict inputs.
    pub fn slo_summary(&self) -> SloSummary {
        SloSummary::from_parts(&self.latency_hist(), &self.budget, &self.target)
    }

    /// Fraction of weighted requests that failed (0 when idle).
    pub fn unavailability(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Streaming FNV-1a-128 over request records — the same constants
/// witness and run-pin digests use, so digests are comparable across
/// tools.
#[derive(Clone, Debug)]
pub struct LogDigest {
    h: u128,
}

impl Default for LogDigest {
    fn default() -> Self {
        LogDigest {
            h: 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d,
        }
    }
}

impl LogDigest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u128;
            self.h = self
                .h
                .wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
        }
    }

    /// Folds one record into the digest.
    pub fn push(&mut self, r: &RequestRecord) {
        self.bytes(&r.at_ns.to_le_bytes());
        self.bytes(&r.coordinator.to_le_bytes());
        self.bytes(&r.key.to_le_bytes());
        self.bytes(&[
            match r.kind {
                OpKind::Read => 0,
                OpKind::Write => 1,
            },
            r.outcome.code(),
        ]);
        self.bytes(&r.latency_ns.to_le_bytes());
        self.bytes(&r.weight.to_le_bytes());
    }

    /// The digest so far as 32 hex chars.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u64) -> RequestRecord {
        RequestRecord {
            at_ns: 1_000,
            coordinator: 3,
            key,
            kind: OpKind::Read,
            outcome: Outcome::Ok,
            latency_ns: 2_000_000,
            weight: 10,
        }
    }

    #[test]
    fn digest_discriminates_and_reproduces() {
        let mut a = LogDigest::default();
        let mut b = LogDigest::default();
        a.push(&rec(1));
        b.push(&rec(1));
        assert_eq!(a.hex(), b.hex());
        b.push(&rec(2));
        assert_ne!(a.hex(), b.hex());
        let mut c = LogDigest::default();
        c.push(&rec(2));
        assert_ne!(a.hex(), c.hex(), "order and content both matter");
    }

    #[test]
    fn digest_constants_match_the_memo_crates() {
        // `scalecheck_memo::digest_bytes` pins the same literal; this
        // crate keeps its own streaming copy to stay a leaf.
        let mut d = LogDigest::default();
        d.bytes(b"scalecheck");
        assert_eq!(d.hex(), "4863cc1ab514064a7747ac2bdd05fc3b");
    }

    #[test]
    fn empty_report_is_benign() {
        let r = TrafficReport::default();
        assert_eq!(r.unavailability(), 0.0);
        assert_eq!(r.slo_summary().attempted, 0);
        assert_eq!(r.latency_hist().count, 0);
    }
}
