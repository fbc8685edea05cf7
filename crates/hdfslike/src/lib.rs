//! A second scale-check target: an HDFS-like master/datanode system
//! with a **serialized-O(N)** scalability bug.
//!
//! The paper's bug study splits root causes 47 %/53 % between
//! scale-dependent CPU-intensive computations (the Cassandra lineage in
//! `scalecheck-cluster`) and "unexpected serializations of O(N)
//! operations" (§4 footnote). This crate reproduces the second class —
//! and, with it, the paper's §7 future-work goal of integrating scale
//! check with systems beyond Cassandra:
//!
//! * one **namenode** processes heartbeats and full block reports under
//!   a global lock (a single serialized stage);
//! * the buggy [`ReportVersion::FullRescan`] walks the entire block map
//!   per report, so the master's offered load grows quadratically with
//!   cluster size;
//! * heartbeats queue behind reports; past a scale threshold the
//!   queueing delay crosses the liveness timeout and the master
//!   declares *live* datanodes dead — this system's flap;
//! * [`ReportVersion::IncrementalDiff`] (the fix) diffs against the
//!   previous report and the symptom vanishes.
//!
//! The master keeps liveness, not a block map: each report's cost is
//! billed from the closed form of the literal pass's op count
//! ([`Master::report_ops`]), as the ring calculators bill theirs. The
//! literal block map and both passes live only in the root package's
//! `tests/model/hdfs.rs`, the oracle the bill is checked against.
//!
//! The ScaleCheck pipelines apply unchanged: [`run_hdfs`] at real scale,
//! and [`hdfs_scale_check`] to memoize once (the Colo run with a
//! recorder) and PIL-replay with report processing replaced by
//! `sleep(recorded duration)`.
//!
//! # Examples
//!
//! ```
//! use scalecheck_hdfslike::{run_hdfs, HdfsConfig};
//!
//! // A small cluster: the serialized master keeps up, nobody is
//! // wrongly declared dead.
//! let report = run_hdfs(&HdfsConfig::bug(12, 1));
//! assert_eq!(report.false_dead, 0);
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod master;

pub use cluster::{hdfs_scale_check, run_hdfs, HdfsConfig, HdfsReport, REPORT_FN};
pub use master::{DnId, DnRecord, Master, ReportVersion};
