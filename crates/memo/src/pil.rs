//! The PIL side of one run ([`Pil`]): what its PIL-replaced functions
//! do. Where its nodes compute is the other argument of a run
//! (`scalecheck_sim::RunMode`). The memoization run (Figure 2 step d) is
//! the Colo run with a recorder; a replay borrows the recording and
//! counts its own lookups.

use scalecheck_sim::SimDuration;

use crate::db::{FnId, MemoDb, MemoStats};
use crate::digest::Digest128;
use crate::order::{OrderEnforcer, OrderRecorder};

/// The PIL side of one run — the one handle a system's runner is given.
pub enum Pil<'a, O> {
    /// PIL-replaced functions execute (Figure 1a, 1b).
    Execute,
    /// The memoization run: they execute, and every call and processed
    /// message is recorded into a caller-owned memo db and order log.
    Record(&'a mut MemoDb<O>, &'a mut OrderRecorder),
    /// PIL replay from a borrowed recording: PIL-replaced functions
    /// sleep their recorded duration and copy the recorded output
    /// (Figure 1c, Figure 2 steps e–f).
    Replay(Replay<'a, O>),
}

/// PIL replay from a borrowed recording: lookups go by input digest,
/// then by the node's invocation index, and as a last resort the real
/// function executes. Every lookup is counted here, once.
pub struct Replay<'a, O> {
    db: &'a MemoDb<O>,
    order: Option<OrderEnforcer<'a>>,
    stats: MemoStats,
}

impl<'a, O: Clone> Replay<'a, O> {
    /// Replays `db`; handed the recorded `order` log it also enforces it
    /// (§5 order determinism), otherwise messages run as they arrive.
    pub fn new(db: &'a MemoDb<O>, order: Option<&'a OrderRecorder>) -> Self {
        let (order, stats) = (order.map(OrderRecorder::enforcer), db.stats());
        Replay { db, order, stats }
    }
}

impl<'a, O: Clone> Pil<'a, O> {
    /// One call of a PIL-replaced function on `node` with input digest
    /// `input`. Execute runs `exec`; Record runs it and records the
    /// result; Replay looks the digest up, falls back to `node`'s
    /// `idx`-th recorded invocation (when the caller tracks one), and as
    /// a last resort counts a miss and runs `exec`. Returns the output and
    /// the virtual duration to bill (or sleep).
    pub fn call(
        &mut self,
        node: u32,
        func: FnId,
        input: Digest128,
        idx: Option<usize>,
        exec: impl FnOnce() -> (O, SimDuration),
    ) -> (O, SimDuration) {
        let r = match self {
            Pil::Execute => return exec(),
            Pil::Record(db, _) => {
                let (output, duration) = exec();
                db.record(node, func, input, output.clone(), duration);
                return (output, duration);
            }
            Pil::Replay(r) => r,
        };
        if let Some(rec) = r.db.lookup(func, input) {
            r.stats.hits += 1;
            return (rec.output, rec.duration);
        }
        if let Some(rec) = idx.and_then(|i| r.db.lookup_by_index(node, func, i)) {
            r.stats.index_fallbacks += 1;
            return (rec.output, rec.duration);
        }
        r.stats.misses += 1;
        exec()
    }

    /// Whether a PIL-replaced call sleeps its duration instead of
    /// occupying a core: only a replay's does (Figure 1c).
    pub fn sleeps(&self) -> bool {
        matches!(self, Pil::Replay(_))
    }

    /// Order bookkeeping as `node` processes message `key`: the
    /// memoization run logs it; an order-enforcing replay advances past
    /// it when it was the expected one.
    pub fn processed(&mut self, node: u32, key: u64) {
        if let Pil::Record(_, order) = self {
            order.record(node, key);
        } else if let Some(enf) = self.enforcer() {
            if enf.expected(node) == Some(key) {
                enf.advance(node, key);
            }
        }
    }

    /// Whether anything reads message order keys: the memoization run
    /// logs them and an order-enforcing replay enforces them. Other runs
    /// need not compute them.
    pub fn orders_messages(&self) -> bool {
        match self {
            Pil::Execute => false,
            Pil::Record(..) => true,
            Pil::Replay(r) => r.order.is_some(),
        }
    }

    /// The enforcer of an order-enforcing replay.
    pub fn enforcer(&mut self) -> Option<&mut OrderEnforcer<'a>> {
        match self {
            Pil::Replay(r) => r.order.as_mut(),
            _ => None,
        }
    }

    /// Arrivals an order-enforcing replay's log never saw.
    pub fn out_of_log(&self) -> u64 {
        match self {
            Pil::Replay(r) => r.order.as_ref().map_or(0, OrderEnforcer::out_of_log),
            _ => 0,
        }
    }

    /// The run's memo statistics: the recording's, plus a replay's
    /// lookups.
    pub fn stats(&self) -> MemoStats {
        match self {
            Pil::Execute => MemoStats::default(),
            Pil::Record(db, _) => db.stats(),
            Pil::Replay(r) => r.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_bytes;

    fn d(s: &str) -> Digest128 {
        digest_bytes(s.as_bytes())
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn pil_executes_records_and_replays() {
        let mut runs = 0;
        let mut exec = || {
            runs += 1;
            (vec![runs], ms(10))
        };
        let lookups = |pil: &Pil<'_, Vec<i32>>| {
            let s = pil.stats();
            (s.hits, s.index_fallbacks, s.misses)
        };
        // Real and Colo execute; an execute run has no database to fill.
        let mut pil = Pil::Execute;
        assert!(!pil.orders_messages() && !pil.sleeps());
        let answer = pil.call(7, FnId(0), d("a"), Some(0), &mut exec);
        assert_eq!(answer, (vec![1], ms(10)));
        assert_eq!(pil.stats(), MemoStats::default());
        assert_eq!(pil.stats().replay_hit_rate(), 1.0);
        // Record executes and records.
        let (mut db, mut order) = (MemoDb::new(), OrderRecorder::new());
        let mut pil = Pil::Record(&mut db, &mut order);
        assert!(pil.orders_messages() && !pil.sleeps());
        assert_eq!(pil.call(7, FnId(0), d("a"), Some(0), &mut exec).0, vec![2]);
        pil.processed(7, 42);
        assert_eq!((pil.stats().recorded, lookups(&pil)), (1, (0, 0, 0)));
        assert_eq!((db.len(), order.total()), (1, 1));
        // Replay: digest hit, then index fallback, then a counted miss
        // that executes; without an index there is no fallback. The
        // borrowed recording is left exactly as it was.
        let before = db.to_json().unwrap();
        let mut pil = Pil::Replay(Replay::new(&db, None));
        assert!(pil.sleeps());
        let answer = pil.call(9, FnId(0), d("a"), None, &mut exec);
        assert_eq!((answer, lookups(&pil)), ((vec![2], ms(10)), (1, 0, 0)));
        let answer = pil.call(7, FnId(0), d("zzz"), Some(0), &mut exec);
        assert_eq!((answer.0, lookups(&pil)), (vec![2], (1, 1, 0)));
        let answer = pil.call(7, FnId(0), d("zzz"), Some(5), &mut exec);
        assert_eq!((answer.0, lookups(&pil)), (vec![3], (1, 1, 1)));
        pil.call(7, FnId(0), d("zzz"), None, &mut exec);
        assert_eq!((pil.stats().recorded, lookups(&pil)), (1, (1, 1, 2)));
        assert!((pil.stats().replay_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(runs, 4);
        assert_eq!(db.to_json().unwrap(), before);
        // An ordered replay advances through the borrowed log.
        assert!(pil.enforcer().is_none() && !pil.orders_messages());
        let mut pil = Pil::Replay(Replay::new(&db, Some(&order)));
        assert!(pil.orders_messages());
        assert_eq!(pil.enforcer().and_then(|e| e.expected(7)), Some(42));
        pil.processed(7, 42);
        assert_eq!(pil.enforcer().and_then(|e| e.expected(7)), None);
    }
}
