//! The memoization database (Figure 2, step c–e).
//!
//! During the one-time basic-colocation run, every invocation of a
//! PIL-replaced function stores `(input digest) → (output, duration)`
//! plus its position in the node's invocation order. During PIL replay,
//! lookups go by input digest first; if nondeterminism leaked and the
//! digest misses, the replayer can fall back to the invocation-index
//! record, and as a last resort re-execute the real function (the
//! statistics make every such fallback visible).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;

use scalecheck_sim::SimDuration;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::digest::Digest128;

/// Identifies a PIL-replaced function.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FnId(pub u16);

/// One memoized invocation record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoRecord<O> {
    /// The function's output for this input.
    pub output: O,
    /// In-situ recorded compute duration (virtual time).
    pub duration: SimDuration,
}

/// Counters describing a recording and how a replay used it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Records written during memoization.
    pub recorded: u64,
    /// Inputs seen more than once during memoization.
    pub duplicate_inputs: u64,
    /// Replay lookups answered by input digest.
    pub hits: u64,
    /// Replay lookups answered by invocation index (digest missed).
    pub index_fallbacks: u64,
    /// Replay lookups that had to re-execute the real function.
    pub misses: u64,
}

impl MemoStats {
    /// Fraction of replay lookups answered from the database (by digest
    /// or index). Returns 1.0 when there were no lookups.
    pub fn replay_hit_rate(&self) -> f64 {
        let total = self.hits + self.index_fallbacks + self.misses;
        if total == 0 {
            1.0
        } else {
            (self.hits + self.index_fallbacks) as f64 / total as f64
        }
    }
}

/// The memoization database, generic over the function output type.
#[derive(Clone, Debug)]
pub struct MemoDb<O> {
    records: HashMap<(FnId, u128), MemoRecord<O>>,
    invocation_order: BTreeMap<(u32, FnId), Vec<u128>>,
    stats: MemoStats,
}

impl<O> Default for MemoDb<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O> MemoDb<O> {
    /// Creates an empty database.
    pub fn new() -> Self {
        MemoDb {
            records: HashMap::new(),
            invocation_order: BTreeMap::new(),
            stats: MemoStats::default(),
        }
    }
}

impl<O: Clone> MemoDb<O> {
    /// Records one invocation observed during memoization.
    ///
    /// `node` is the executing node (for the invocation-order log).
    pub fn record(
        &mut self,
        node: u32,
        func: FnId,
        input: Digest128,
        output: O,
        duration: SimDuration,
    ) {
        self.stats.recorded += 1;
        if self
            .records
            .insert((func, input.0), MemoRecord { output, duration })
            .is_some()
        {
            self.stats.duplicate_inputs += 1;
        }
        self.invocation_order
            .entry((node, func))
            .or_default()
            .push(input.0);
    }

    /// Replay lookup by input digest.
    pub fn lookup(&self, func: FnId, input: Digest128) -> Option<MemoRecord<O>> {
        self.records.get(&(func, input.0)).cloned()
    }

    /// Replay fallback: the record for `node`'s `idx`-th invocation of
    /// `func` during memoization.
    pub fn lookup_by_index(&self, node: u32, func: FnId, idx: usize) -> Option<MemoRecord<O>> {
        let digest = *self.invocation_order.get(&(node, func))?.get(idx)?;
        self.records.get(&(func, digest)).cloned()
    }

    /// Number of distinct `(function, input)` records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recording's counters (`recorded`, `duplicate_inputs`); a
    /// replay counts its own lookups ([`Replay`](crate::Replay)).
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Iterates over all records as `(function, input-digest, record)`.
    pub fn iter_records(&self) -> impl Iterator<Item = (FnId, Digest128, &MemoRecord<O>)> {
        self.records.iter().map(|(&(f, d), r)| (f, Digest128(d), r))
    }

    /// Removes one record; returns whether it existed. Invocation-order
    /// logs are left untouched (an index fallback will then miss too,
    /// which is the honest behaviour for a damaged database).
    pub fn remove(&mut self, func: FnId, input: Digest128) -> bool {
        self.records.remove(&(func, input.0)).is_some()
    }
}

/// Serializable snapshot form (maps with composite keys flatten to
/// entry lists for JSON).
#[derive(Serialize, Deserialize)]
struct Snapshot<O> {
    records: Vec<(u16, u128, MemoRecord<O>)>,
    invocation_order: Vec<(u32, u16, Vec<u128>)>,
    stats: MemoStats,
}

/// Errors from persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Serialization error.
    Json(serde_json::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "memo db io error: {e}"),
            PersistError::Json(e) => write!(f, "memo db serialization error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

impl<O: Clone + Serialize + DeserializeOwned> MemoDb<O> {
    /// Serializes the database to a JSON string.
    pub fn to_json(&self) -> Result<String, PersistError> {
        let snap = Snapshot {
            records: {
                let mut v: Vec<(u16, u128, MemoRecord<O>)> = self
                    .records
                    .iter()
                    .map(|(&(f, d), r)| (f.0, d, r.clone()))
                    .collect();
                v.sort_by_key(|&(f, d, _)| (f, d));
                v
            },
            invocation_order: self
                .invocation_order
                .iter()
                .map(|(&(n, f), v)| (n, f.0, v.clone()))
                .collect(),
            stats: self.stats,
        };
        Ok(serde_json::to_string(&snap)?)
    }

    /// Restores a database from [`MemoDb::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        let snap: Snapshot<O> = serde_json::from_str(json)?;
        let mut db = MemoDb::new();
        for (f, d, r) in snap.records {
            db.records.insert((FnId(f), d), r);
        }
        for (n, f, v) in snap.invocation_order {
            db.invocation_order.insert((n, FnId(f)), v);
        }
        db.stats = snap.stats;
        Ok(db)
    }

    /// Writes the database to a file.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads a database from a file.
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_bytes;

    fn db() -> MemoDb<Vec<u8>> {
        MemoDb::new()
    }

    fn d(s: &str) -> Digest128 {
        digest_bytes(s.as_bytes())
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn record_and_lookup_round_trip() {
        let mut m = db();
        m.record(1, FnId(0), d("input-a"), vec![1, 2, 3], ms(500));
        let rec = m.lookup(FnId(0), d("input-a")).unwrap();
        assert_eq!(rec.output, vec![1, 2, 3]);
        assert_eq!(rec.duration, ms(500));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn lookup_misses_unknown_input() {
        let mut m = db();
        m.record(1, FnId(0), d("a"), vec![], ms(1));
        assert!(m.lookup(FnId(0), d("b")).is_none());
        assert!(m.lookup(FnId(1), d("a")).is_none());
    }

    #[test]
    fn duplicate_inputs_counted_last_write_wins() {
        let mut m = db();
        m.record(1, FnId(0), d("a"), vec![1], ms(1));
        m.record(2, FnId(0), d("a"), vec![2], ms(2));
        assert_eq!(m.stats().duplicate_inputs, 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(FnId(0), d("a")).unwrap().output, vec![2]);
    }

    #[test]
    fn index_fallback_follows_invocation_order() {
        let mut m = db();
        m.record(7, FnId(0), d("first"), vec![1], ms(1));
        m.record(7, FnId(0), d("second"), vec![2], ms(2));
        m.record(8, FnId(0), d("other-node"), vec![3], ms(3));
        let r = m.lookup_by_index(7, FnId(0), 1).unwrap();
        assert_eq!(r.output, vec![2]);
        assert!(m.lookup_by_index(7, FnId(0), 5).is_none());
        assert!(m.lookup_by_index(9, FnId(0), 0).is_none());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut m = db();
        m.record(1, FnId(0), d("a"), vec![9, 9], ms(123));
        m.record(2, FnId(3), d("b"), vec![7], ms(456));
        let json = m.to_json().unwrap();
        let back: MemoDb<Vec<u8>> = MemoDb::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup(FnId(0), d("a")).unwrap().output, vec![9, 9]);
        assert_eq!(back.lookup(FnId(3), d("b")).unwrap().duration, ms(456));
        assert_eq!(
            back.lookup_by_index(1, FnId(0), 0).unwrap().output,
            vec![9, 9]
        );
        assert_eq!(back.stats().recorded, 2);
    }

    #[test]
    fn file_round_trip() {
        let mut m = db();
        m.record(1, FnId(0), d("a"), vec![1], ms(1));
        let dir = std::env::temp_dir().join("scalecheck-memo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        m.save(&path).unwrap();
        let back: MemoDb<Vec<u8>> = MemoDb::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let err = MemoDb::<Vec<u8>>::from_json("not json").unwrap_err();
        assert!(matches!(err, PersistError::Json(_)));
        assert!(err.to_string().contains("serialization"));
    }
}
