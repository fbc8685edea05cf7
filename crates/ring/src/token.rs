//! Tokens, node identifiers, and wrapping key ranges.
//!
//! The key space is the full `u64` circle, as in Cassandra's
//! Murmur3-partitioned ring. A node owns the range that ends at each of
//! its tokens: the range `(predecessor_token, token]`, wrapping around
//! zero.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A position on the ring (a point in the hash space).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Token(pub u64);

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{:016x}", self.0)
    }
}

/// Identifies a physical node (endpoint) in the cluster.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A half-open wrapping range `(start, end]` on the token circle.
///
/// When `start == end` the range covers the entire circle (this occurs
/// only in single-token rings).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Range {
    /// Exclusive start.
    pub start: Token,
    /// Inclusive end.
    pub end: Token,
}

impl Range {
    /// Creates the range `(start, end]`.
    pub fn new(start: Token, end: Token) -> Self {
        Range { start, end }
    }

    /// Whether `t` falls inside this wrapping range.
    pub fn contains(&self, t: Token) -> bool {
        if self.start == self.end {
            // Full circle.
            return true;
        }
        if self.start < self.end {
            self.start < t && t <= self.end
        } else {
            // Wraps around zero.
            t > self.start || t <= self.end
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.start, self.end)
    }
}

/// Deterministically spreads `count` tokens for node `node` across the
/// ring (a stand-in for random token assignment that keeps tests and
/// experiments reproducible without an RNG plumb-through).
pub fn spread_tokens(node: NodeId, count: usize) -> Vec<Token> {
    // SplitMix-style mixing of (node, index) so tokens are well spread
    // and collision-free in practice.
    (0..count)
        .map(|i| {
            let mut z = ((node.0 as u64) << 32) ^ (i as u64) ^ 0x9E37_79B9_7F4A_7C15;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            Token(z ^ (z >> 31))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_wrapping_contains() {
        let r = Range::new(Token(10), Token(20));
        assert!(!r.contains(Token(10)));
        assert!(r.contains(Token(11)));
        assert!(r.contains(Token(20)));
        assert!(!r.contains(Token(21)));
    }

    #[test]
    fn wrapping_contains() {
        let r = Range::new(Token(u64::MAX - 5), Token(5));
        assert!(r.contains(Token(u64::MAX)));
        assert!(r.contains(Token(0)));
        assert!(r.contains(Token(5)));
        assert!(!r.contains(Token(6)));
        assert!(!r.contains(Token(u64::MAX - 5)));
    }

    #[test]
    fn full_circle_contains_everything() {
        let r = Range::new(Token(7), Token(7));
        assert!(r.contains(Token(0)));
        assert!(r.contains(Token(7)));
        assert!(r.contains(Token(u64::MAX)));
    }

    #[test]
    fn spread_tokens_are_distinct_and_stable() {
        let a = spread_tokens(NodeId(1), 256);
        let b = spread_tokens(NodeId(1), 256);
        assert_eq!(a, b);
        let mut all: Vec<Token> = (0..64)
            .flat_map(|n| spread_tokens(NodeId(n), 256))
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "token collision");
    }
}
