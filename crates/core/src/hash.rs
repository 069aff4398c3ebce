//! The workspace's only FNV-1a and SplitMix64. Journal and checkpoint
//! checksums, the digests that pin §3 cost ledgers, sweep seeds and
//! mutant ids all depend on their exact bits, so each has one copy, pinned
//! by published reference vectors.

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// SplitMix64's increment γ.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// 64-bit FNV-1a over `bytes` (the checksum behind pinned §3 ledgers).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Incremental 64-bit FNV-1a for digests fed piece by piece, such as §3
/// ledgers word by word. Pieces digest like their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The digest of no bytes: FNV-1a's offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest, in order (§3 ledger bytes).
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a §3 ledger word as its eight little-endian bytes.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The digest of everything written so far (§3 ledger fingerprint).
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The SplitMix64 mixer (Steele, Lea & Flood, OOPSLA 2014) applied to
/// `z + γ`: a bijection of `u64` that turns (seed, stream, index) triples
/// into independent seeds for simulated §3 request streams.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the SplitMix64 generator, which drives seeded §3 request
/// streams: returns [`splitmix64`] of the state, then advances it by γ.
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(GAMMA);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write_u64(u64::from_le_bytes(*b"bar\0\0\0\0\0"));
        assert_eq!(h.finish(), fnv1a64(b"foobar\0\0\0\0\0"));
    }

    #[test]
    fn splitmix_matches_the_reference_vectors() {
        // SplitMix64 seeded with 0 (Vigna's reference generator).
        let mut state = 0;
        assert_eq!(splitmix64_next(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64_next(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64_next(&mut state), 0x06c4_5d18_8009_454f);
        assert_eq!(state, 3u64.wrapping_mul(GAMMA));
    }
}
