//! Input/output digests for memoization keys.
//!
//! Memoization keys must be (a) deterministic across runs and platforms
//! and (b) wide enough that collisions are negligible over the hundreds
//! of thousands of records a 256-node memoization run produces. We use
//! 128-bit FNV-1a: simple, dependency-free, stable by specification.

/// A 128-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Digest128(pub u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Hashes a byte slice with FNV-1a (128-bit).
pub fn digest_bytes(bytes: &[u8]) -> Digest128 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    Digest128(h)
}

/// Incremental FNV-1a hasher for streaming multi-part inputs.
#[derive(Clone, Copy, Debug)]
pub struct Hasher128 {
    h: u128,
}

impl Default for Hasher128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher128 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Hasher128 { h: FNV_OFFSET }
    }

    /// Feeds bytes.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.h ^= b as u128;
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a u64 (little-endian).
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Finishes and returns the digest.
    pub fn finish(&self) -> Digest128 {
        Digest128(self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(digest_bytes(b"hello"), digest_bytes(b"hello"));
    }

    #[test]
    fn digest_discriminates() {
        assert_ne!(digest_bytes(b"hello"), digest_bytes(b"hellp"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
        // Order matters.
        assert_ne!(digest_bytes(b"ab"), digest_bytes(b"ba"));
    }

    #[test]
    fn known_vector() {
        // FNV-1a 128 of the empty string is the offset basis.
        assert_eq!(digest_bytes(b"").0, FNV_OFFSET);
        // Pinned; `scalecheck_traffic`'s streaming `LogDigest` (a leaf
        // crate with its own copy of the constants) pins the same value.
        assert_eq!(
            digest_bytes(b"scalecheck").0,
            0x4863cc1ab514064a7747ac2bdd05fc3b
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = Hasher128::new();
        h.update(b"hel").update(b"lo");
        assert_eq!(h.finish(), digest_bytes(b"hello"));
    }

    #[test]
    fn update_u64_is_le_bytes() {
        let mut a = Hasher128::new();
        a.update_u64(0x0102030405060708);
        let mut b = Hasher128::new();
        b.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn no_collisions_over_many_inputs() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..100_000 {
            let d = digest_bytes(&i.to_le_bytes());
            assert!(seen.insert(d.0), "collision at {i}");
        }
    }
}
