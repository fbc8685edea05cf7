//! Symbolic complexity degrees.
//!
//! The finder reasons about growth in four symbols: `N` (physical
//! nodes), `P` (virtual nodes per physical node), `M` (topology changes
//! in a gossip message), and `log` factors. A [`Degree`] is one product
//! term `N^n · P^p · M^m · log^l`; sequencing takes the dominating term,
//! nesting multiplies terms.

use std::fmt;

/// One growth term `N^n · P^p · M^m · log^l`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Degree {
    /// Exponent of N (cluster size).
    pub n: u32,
    /// Exponent of P (vnodes per node).
    pub p: u32,
    /// Exponent of M (change-list length).
    pub m: u32,
    /// Exponent of the log factor.
    pub log: u32,
}

impl Degree {
    /// The constant degree (O(1)).
    pub const CONST: Degree = Degree {
        n: 0,
        p: 0,
        m: 0,
        log: 0,
    };

    /// Builds a degree.
    pub const fn new(n: u32, p: u32, m: u32, log: u32) -> Self {
        Degree { n, p, m, log }
    }

    /// Linear in cluster size: `N·P` (the ring-table size).
    pub const fn ring() -> Self {
        Degree::new(1, 1, 0, 0)
    }

    /// Product of two degrees (nesting).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Degree) -> Degree {
        Degree {
            n: self.n + other.n,
            p: self.p + other.p,
            m: self.m + other.m,
            log: self.log + other.log,
        }
    }

    /// The *scale order*: the polynomial degree in units of cluster
    /// size. The ring table has N·P entries, so one pass over it is one
    /// unit (`max(n, p)`): a loop over the ring contributes order 1, the
    /// C3831 triple nest order 3.
    pub fn scale_order(self) -> u32 {
        self.n.max(self.p)
    }

    /// Whether `self` grows at least as fast as `other` in every symbol.
    pub fn dominates(self, other: Degree) -> bool {
        self.n >= other.n && self.p >= other.p && self.m >= other.m && self.log >= other.log
    }

    /// The pointwise maximum used when sequencing two blocks whose
    /// degrees are incomparable (a safe upper bound).
    pub fn join(self, other: Degree) -> Degree {
        Degree {
            n: self.n.max(other.n),
            p: self.p.max(other.p),
            m: self.m.max(other.m),
            log: self.log.max(other.log),
        }
    }

    /// Whether this degree is scale-dependent at all.
    pub fn is_scale_dependent(self) -> bool {
        self.scale_order() > 0
    }
}

impl fmt::Display for Degree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Degree::CONST {
            return write!(f, "O(1)");
        }
        write!(f, "O(")?;
        let mut first = true;
        let mut part = |f: &mut fmt::Formatter<'_>, sym: &str, e: u32| -> fmt::Result {
            if e == 0 {
                return Ok(());
            }
            if !first {
                write!(f, "·")?;
            }
            first = false;
            if e == 1 {
                write!(f, "{sym}")
            } else {
                write!(f, "{sym}^{e}")
            }
        };
        part(f, "M", self.m)?;
        part(f, "N", self.n)?;
        part(f, "P", self.p)?;
        part(f, "log", self.log)?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_adds_exponents() {
        let a = Degree::new(1, 1, 0, 0);
        let b = Degree::new(2, 0, 1, 1);
        assert_eq!(a.mul(b), Degree::new(3, 1, 1, 1));
    }

    #[test]
    fn join_takes_pointwise_max() {
        let a = Degree::new(3, 0, 0, 0);
        let b = Degree::new(1, 2, 1, 0);
        assert_eq!(a.join(b), Degree::new(3, 2, 1, 0));
    }

    #[test]
    fn dominates_is_pointwise() {
        let big = Degree::new(2, 1, 1, 1);
        let small = Degree::new(1, 1, 0, 1);
        assert!(big.dominates(small));
        assert!(!small.dominates(big));
        // Incomparable pair.
        let a = Degree::new(2, 0, 0, 0);
        let b = Degree::new(0, 2, 0, 0);
        assert!(!a.dominates(b) && !b.dominates(a));
    }

    #[test]
    fn scale_order_counts_cluster_symbols_only() {
        assert_eq!(Degree::new(2, 1, 5, 3).scale_order(), 2);
        assert_eq!(Degree::new(3, 3, 1, 0).scale_order(), 3);
        assert_eq!(Degree::new(0, 0, 9, 9).scale_order(), 0);
        assert!(!Degree::new(0, 0, 1, 0).is_scale_dependent());
        assert!(Degree::ring().is_scale_dependent());
    }

    #[test]
    fn display_formats_readably() {
        assert_eq!(Degree::CONST.to_string(), "O(1)");
        assert_eq!(Degree::new(3, 0, 1, 3).to_string(), "O(M·N^3·log^3)");
        assert_eq!(Degree::ring().to_string(), "O(N·P)");
    }
}
