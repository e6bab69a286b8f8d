//! The workspace's one copy of its two non-cryptographic hashes, 64-bit
//! FNV-1a and SplitMix64. Their values are on disk (store file names, job
//! ids, journal fingerprints), so they must never change.

/// Streaming 64-bit FNV-1a: [`Fnv64::bytes`] takes byte steps (textbook
/// FNV-1a), [`Fnv64::word`] folds a whole `u64` in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    h: u64,
    prime: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The offset basis, multiplying by the FNV prime.
    pub const fn new() -> Self {
        Self::with_prime(0x0000_0100_0000_01b3)
    }

    /// The offset basis with another multiplier, for digests already on
    /// disk under one (the persistent store's).
    pub const fn with_prime(prime: u64) -> Self {
        Self {
            h: 0xcbf29ce484222325,
            prime,
        }
    }

    /// Folds `bytes` in, one byte per step.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.word(u64::from(b));
        }
        self
    }

    /// Folds `x` in as one step.
    pub fn word(&mut self, x: u64) -> &mut Self {
        self.h = (self.h ^ x).wrapping_mul(self.prime);
        self
    }

    /// The current digest.
    pub const fn finish(&self) -> u64 {
        self.h
    }
}

/// FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

/// The SplitMix64 output function: a bijective 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        // Published FNV-1a test vectors and the SplitMix64 reference
        // stream seeded at 0.
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(
            Fnv64::new().bytes(b"foo").bytes(b"bar").finish(),
            fnv64(b"foobar")
        );
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
    }
}
