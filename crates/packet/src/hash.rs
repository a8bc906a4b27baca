//! The workspace's three hashers, and which one is for what.
//!
//! * [`StableHasher`] — an incremental FNV-1a over bytes, with an optional
//!   splitmix64-style avalanche finish. Unlike [`std::hash::Hash`] (whose
//!   `HashMap` hasher may be seeded per process), its output is reproducible
//!   across runs, machines and toolchains. Use it for **anything persisted or
//!   compared**: shard keys, per-flow RNG seeds, run digests (some are
//!   pinned in tests and docs, and compared across versions).
//!   Every byte-wise stable hash in the workspace goes through this one
//!   implementation so the constants cannot drift apart.
//! * [`WordHasher`] — the stable hasher for **digests over many records**:
//!   explicit little-endian 8-byte words, one 64×64→128 multiply-fold per
//!   word under a fixed key ([`WordHasher::KEY`]) and an avalanche finish.
//!   Its output is as reproducible as [`StableHasher`]'s, at a word per
//!   step where FNV-1a takes a byte. The fleet digest hashes every RTT
//!   sample and flow outcome with it, one record at a time, and sums the
//!   results, so the digest is order-free and can be kept up to date as
//!   records arrive. Its key is public, so use it only where nobody gains
//!   from crafting collisions: digests, never probed tables.
//! * [`FastHasher`] (through [`FastMap`]) — a multiplicative hasher for
//!   **in-process maps that are only probed**: the packet path's four-tuple
//!   index and the network's per-flow tables. It costs a multiply per word
//!   where SipHash runs rounds over the bytes. Each map draws its key at
//!   random when it is built (as `HashMap`'s default does), because their
//!   keys are not all the engine's own — a resumed checkpoint brings
//!   client-chosen four-tuples — and a key an attacker knows would let them
//!   craft colliding keys offline. Its output therefore differs from run to
//!   run: never persist it, and never iterate a map built on it into output.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Incremental FNV-1a with a platform-stable output.
///
/// ```
/// use mop_packet::StableHasher;
/// let mut a = StableHasher::new();
/// a.write_bytes(b"example");
/// let mut b = StableHasher::new();
/// b.write_bytes(b"example");
/// assert_eq!(a.finish_mixed(), b.finish_mixed());
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u8(*b);
        }
    }

    /// Feeds one byte.
    pub(crate) fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
    }

    /// The state passed through an avalanche mix (splitmix64's finaliser).
    /// FNV alone diffuses poorly into the low bits; the mix makes
    /// `hash % buckets` spread evenly, which is what shard keys need.
    pub fn finish_mixed(&self) -> u64 {
        avalanche(self.0)
    }
}

/// One word into a multiply-fold state: XOR it in, multiply by
/// [`WordHasher::KEY`] into 128 bits, and fold the high half onto the low.
/// Both [`WordHasher`] and [`FastHasher`] step with it; they differ in the
/// starting state (fixed, or drawn per map) and in the finish.
fn fold_word(state: u64, word: u64) -> u64 {
    let product = u128::from(state ^ word) * u128::from(WordHasher::KEY);
    (product as u64) ^ ((product >> 64) as u64)
}

/// splitmix64's finaliser: every input bit flips about half the output bits.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Feeds `bytes` to `add` as little-endian 8-byte words, the last one
/// zero-padded.
fn for_each_le_word(bytes: &[u8], mut add: impl FnMut(u64)) {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        add(u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        add(le_tail_word(tail));
    }
}

/// The zero-padded little-endian word of a tail shorter than 8 bytes,
/// assembled from at most one 4-, one 2- and one 1-byte load picked by the
/// bits of its length: fixed-size loads, where a variable-length copy into
/// a padded buffer costs a `memcpy` call.
fn le_tail_word(tail: &[u8]) -> u64 {
    debug_assert!(tail.len() < 8);
    let (mut word, mut at) = (0u64, 0);
    if tail.len() & 4 != 0 {
        word = u64::from(u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]));
        at = 4;
    }
    if tail.len() & 2 != 0 {
        word |= u64::from(u16::from_le_bytes([tail[at], tail[at + 1]])) << (8 * at);
        at += 2;
    }
    if tail.len() & 1 != 0 {
        word |= u64::from(tail[at]) << (8 * at);
    }
    word
}

/// A platform-stable hasher over 8-byte words: one multiply-fold per word
/// under [`WordHasher::KEY`], and splitmix64's avalanche in
/// [`WordHasher::finish`], so sums of finished hashes spread over every
/// bit. Values are fed as little-endian words whatever the host's byte
/// order, and strings are length-prefixed.
///
/// ```
/// use mop_packet::WordHasher;
/// let mut a = WordHasher::new();
/// a.write_u64(7);
/// a.write_str("example");
/// let mut b = WordHasher::new();
/// b.write_u64(7);
/// b.write_str("example");
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl WordHasher {
    /// The fixed multiplier every word is folded under: 2^64 / φ, rounded
    /// to odd. Changing it changes every digest built on this hasher.
    pub const KEY: u64 = 0x9e37_79b9_7f4a_7c15;
    /// The state before the first word: the fractional digits of π.
    const SEED: u64 = 0x243f_6a88_85a3_08d3;

    /// A fresh hasher at the fixed seed.
    pub fn new() -> Self {
        Self(Self::SEED)
    }

    /// Feeds one word.
    pub fn write_u64(&mut self, word: u64) {
        self.0 = fold_word(self.0, word);
    }

    /// Feeds an `f64` by its bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string: its length, then its bytes as little-endian words,
    /// the last one zero-padded (the length prefix keeps `"a\0"` ≠ `"a"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for_each_le_word(s.as_bytes(), |word| self.write_u64(word));
    }

    /// The state through splitmix64's finaliser (as
    /// [`StableHasher::finish_mixed`]).
    pub fn finish(&self) -> u64 {
        avalanche(self.0)
    }
}

/// A keyed multiplicative hasher: each word is folded into the state with
/// one 64×64→128-bit multiply whose high half is folded back onto the low
/// half. See the [module docs](self) for where it may be used; [`FastMap`]
/// is the map type built on it.
///
/// ```
/// use mop_packet::{Endpoint, FastMap, FourTuple};
/// let flow = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000), Endpoint::v4(1, 1, 1, 1, 53));
/// let mut ids: FastMap<FourTuple, u32> = FastMap::default();
/// ids.insert(flow, 7);
/// assert_eq!(ids.get(&flow), Some(&7));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = fold_word(self.0, word);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for_each_le_word(bytes, |word| self.add(word));
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FastHasher`]s from a key drawn at random for each map.
#[derive(Debug, Clone, Copy)]
pub struct FastState(u64);

impl Default for FastState {
    fn default() -> Self {
        Self(RandomState::new().hash_one(0x6d6f_7065_7965_u64))
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.0)
    }
}

/// A `HashMap` hashed with [`FastHasher`]; build one with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values_are_stable() {
        // The empty input is the offset basis, and one pinned non-trivial
        // value guards against the constants drifting: digests derived from
        // this hasher are pinned in tests and docs and compared across
        // versions. (The multiplier is the workspace's long-standing
        // variant, shared with SimRng::fork — not the textbook FNV prime.)
        assert_eq!(StableHasher::new().0, 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_u8(b'a');
        assert_eq!(h.0, 12_642_967_877_113_212_044);
    }

    #[test]
    fn write_str_feeds_the_zero_padded_words_of_its_bytes() {
        // The byte-wise definition: the length, then each 8-byte chunk as a
        // little-endian word, the last one padded with zeros.
        let text = "com.example.app.with.a.long.package.name";
        for len in 0..=40 {
            let s = &text[..len];
            let mut expected = WordHasher::new();
            expected.write_u64(len as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                expected.write_u64(u64::from_le_bytes(word));
            }
            let mut hashed = WordHasher::new();
            hashed.write_str(s);
            assert_eq!(hashed.finish(), expected.finish(), "length {len}");
        }
    }

    #[test]
    fn word_hasher_pinned_value_is_stable() {
        // Digests built on this hasher are compared across versions and
        // hosts: the key, the seed, the word order and the finish are all
        // pinned by this one value.
        let mut h = WordHasher::new();
        h.write_u64(1);
        h.write_str("com.example.app");
        h.write_f64(12.5);
        assert_eq!(h.finish(), 0xa346_201d_b277_5d8c);
        let (mut a, mut b) = (WordHasher::new(), WordHasher::new());
        a.write_str("ab");
        a.write_str("c");
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix");
        let (mut a, mut b) = (WordHasher::new(), WordHasher::new());
        a.write_str("a");
        b.write_str("a\0");
        assert_ne!(a.finish(), b.finish(), "zero padding");
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let mut a = WordHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = WordHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn mixed_output_spreads_low_bits() {
        // Near-identical structured inputs must not cluster mod 8.
        let mut counts = [0usize; 8];
        for i in 0..4096u32 {
            let mut h = StableHasher::new();
            h.write_bytes(&[10, 0, (i >> 8) as u8, i as u8]);
            h.write_bytes(&443u64.to_le_bytes());
            counts[(h.finish_mixed() % 8) as usize] += 1;
        }
        assert!(counts.iter().all(|c| *c > 256), "clustered: {counts:?}");
    }

    #[test]
    fn fast_hasher_spreads_near_identical_tuples() {
        // Four-tuples differing only in a host byte or a port must land in
        // distinct low bits, which is where hash tables index from.
        let state = FastState::default();
        let mut counts = [0usize; 16];
        for i in 0..4096u32 {
            let mut h = state.build_hasher();
            h.write_u32(u32::from_be_bytes([10, 0, (i >> 8) as u8, i as u8]));
            h.write_u16(40_000);
            h.write_u32(0x08080808);
            h.write_u16(443);
            counts[(h.finish() % 16) as usize] += 1;
        }
        assert!(counts.iter().all(|c| *c > 128), "clustered: {counts:?}");
        let (mut a, mut b) = (state.build_hasher(), state.build_hasher());
        a.write(b"0123456789");
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish(), "the tail word is hashed");
        let other = FastState::default().build_hasher();
        assert_ne!(state.build_hasher().finish(), other.finish(), "each map has its own key");
    }
}
