//! Memory accounting for colocation experiments.
//!
//! §6 reports that memory is a first-class colocation bottleneck: managed
//! runtimes cost ~70 MB per process, and space-oblivious code (the
//! rebalance protocol's `(N-1) * P * 1.3 MB` over-allocation) blows up a
//! colocated machine long before CPU does. [`MemoryModel`] tracks
//! allocations against a fixed capacity and reports out-of-memory as a
//! typed error, which the colocation-limit experiment (§8: nodes "receive
//! out-of-memory exceptions and crash") surfaces.

use std::fmt;

/// Error returned when an allocation exceeds capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes in use at the time of the request.
    pub in_use: u64,
    /// Machine capacity.
    pub capacity: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: requested {} B with {}/{} B in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// The memory budget of one machine.
#[derive(Clone, Debug)]
pub struct MemoryModel {
    capacity: u64,
    in_use: u64,
    peak: u64,
    oom_events: u64,
}

impl MemoryModel {
    /// Creates a budget with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryModel {
            capacity,
            in_use: 0,
            peak: 0,
            oom_events: 0,
        }
    }

    /// Attempts to allocate `bytes`.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        if self.in_use.saturating_add(bytes) > self.capacity {
            self.oom_events += 1;
            return Err(OutOfMemory {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Frees `bytes`, saturating at zero (double-free of the model is a
    /// caller bug but must not poison the accounting).
    pub fn free(&mut self, bytes: u64) {
        self.in_use = self.in_use.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of failed allocations.
    pub fn oom_events(&self) -> u64 {
        self.oom_events
    }
}

/// Bytes in one mebibyte.
pub const MIB: u64 = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_balance() {
        let mut m = MemoryModel::new(1000);
        m.alloc(400).unwrap();
        m.alloc(500).unwrap();
        assert_eq!(m.in_use(), 900);
        assert_eq!(m.peak(), 900);
        m.free(400);
        assert_eq!(m.in_use(), 500);
        assert_eq!(m.peak(), 900);
    }

    #[test]
    fn oom_is_reported_and_counted() {
        let mut m = MemoryModel::new(100);
        m.alloc(90).unwrap();
        let err = m.alloc(20).unwrap_err();
        assert_eq!(err.requested, 20);
        assert_eq!(err.in_use, 90);
        assert_eq!(err.capacity, 100);
        assert_eq!(m.oom_events(), 1);
        // Failed allocation does not change usage.
        assert_eq!(m.in_use(), 90);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn over_free_saturates() {
        let mut m = MemoryModel::new(100);
        m.alloc(50).unwrap();
        m.free(80);
        assert_eq!(m.in_use(), 0);
        m.free(10);
        assert_eq!(m.in_use(), 0);
    }
}
