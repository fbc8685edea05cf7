//! Taxonomy queries over the bug-study dataset — the §2/§3 aggregates.

use std::collections::BTreeMap;

use crate::data::{BugRecord, Protocol, RootCause, System};

/// Aggregate statistics over a set of bug records.
#[derive(Clone, Debug)]
pub struct StudyStats {
    /// Bugs per system.
    pub per_system: BTreeMap<String, usize>,
    /// Fraction with CPU-intensive root cause.
    pub cpu_fraction: f64,
    /// Fraction with serialized-O(N) root cause.
    pub serialized_fraction: f64,
    /// Mean days to fix.
    pub mean_days_to_fix: f64,
    /// Maximum days to fix.
    pub max_days_to_fix: u32,
    /// Bugs per protocol.
    pub per_protocol: BTreeMap<String, usize>,
    /// Bugs that only manifest above 100 nodes.
    pub manifest_above_100: usize,
    /// Total bugs.
    pub total: usize,
}

/// Computes the study aggregates.
pub fn stats(bugs: &[BugRecord]) -> StudyStats {
    let total = bugs.len();
    let mut per_system = BTreeMap::new();
    let mut per_protocol = BTreeMap::new();
    let mut cpu = 0usize;
    let mut days_sum = 0u64;
    let mut days_max = 0u32;
    let mut above_100 = 0usize;
    for b in bugs {
        *per_system.entry(format!("{:?}", b.system)).or_insert(0) += 1;
        *per_protocol.entry(format!("{:?}", b.protocol)).or_insert(0) += 1;
        if b.root_cause == RootCause::CpuIntensiveComputation {
            cpu += 1;
        }
        days_sum += b.days_to_fix as u64;
        days_max = days_max.max(b.days_to_fix);
        if b.min_nodes_to_manifest > 100 {
            above_100 += 1;
        }
    }
    StudyStats {
        per_system,
        cpu_fraction: cpu as f64 / total.max(1) as f64,
        serialized_fraction: (total - cpu) as f64 / total.max(1) as f64,
        mean_days_to_fix: days_sum as f64 / total.max(1) as f64,
        max_days_to_fix: days_max,
        per_protocol,
        manifest_above_100: above_100,
        total,
    }
}

/// Bugs affecting one system.
pub fn by_system(bugs: &[BugRecord], system: System) -> Vec<&BugRecord> {
    bugs.iter().filter(|b| b.system == system).collect()
}

/// Bugs lingering in one protocol.
pub fn by_protocol(bugs: &[BugRecord], protocol: Protocol) -> Vec<&BugRecord> {
    bugs.iter().filter(|b| b.protocol == protocol).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::bugs;

    #[test]
    fn per_system_counts_match_paper() {
        let s = stats(&bugs());
        assert_eq!(s.per_system["Cassandra"], 9);
        assert_eq!(s.per_system["Couchbase"], 5);
        assert_eq!(s.per_system["Hadoop"], 2);
        assert_eq!(s.per_system["HBase"], 9);
        assert_eq!(s.per_system["Hdfs"], 11);
        assert_eq!(s.per_system["Riak"], 1);
        assert_eq!(s.per_system["Voldemort"], 1);
        assert_eq!(s.total, 38);
    }

    #[test]
    fn root_cause_split_matches_paper() {
        // 47% CPU-intensive vs 53% serialized O(N): 18 vs 20 of 38.
        let s = stats(&bugs());
        assert!(
            (s.cpu_fraction - 18.0 / 38.0).abs() < 1e-9,
            "{}",
            s.cpu_fraction
        );
        assert!((s.cpu_fraction - 0.47).abs() < 0.01);
        assert!((s.serialized_fraction - 0.53).abs() < 0.01);
    }

    #[test]
    fn fix_times_match_paper() {
        // ~1 month average, 5 months max.
        let s = stats(&bugs());
        assert!(
            (25.0..=35.0).contains(&s.mean_days_to_fix),
            "mean {}",
            s.mean_days_to_fix
        );
        assert_eq!(s.max_days_to_fix, 150);
    }

    #[test]
    fn protocols_are_diverse() {
        // §3: bugs linger in bootstrap, scale-out, decommission,
        // rebalance, failover AND data paths.
        let s = stats(&bugs());
        assert!(s.per_protocol.len() >= 6, "{:?}", s.per_protocol);
        for proto in [
            "Bootstrap",
            "ScaleOut",
            "Decommission",
            "Rebalance",
            "Failover",
            "DataPath",
        ] {
            assert!(s.per_protocol[proto] > 0, "{proto} missing");
        }
    }

    #[test]
    fn most_bugs_need_more_than_100_nodes() {
        // The title's point: 100-node testing is not enough.
        let s = stats(&bugs());
        assert!(
            s.manifest_above_100 * 2 > s.total,
            "{} of {}",
            s.manifest_above_100,
            s.total
        );
    }

    #[test]
    fn filters_work() {
        let all = bugs();
        assert_eq!(by_system(&all, System::Riak).len(), 1);
        assert!(!by_protocol(&all, Protocol::Decommission).is_empty());
    }
}
