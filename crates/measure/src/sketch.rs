//! A deterministic, mergeable quantile sketch for RTT samples.
//!
//! The crowdsourcing analyses (§4.2 of the paper) are all order statistics —
//! medians, CDF fractions, percentiles — over very large sample sets. Keeping
//! every sample costs memory and merge time proportional to the deployment,
//! which is exactly what a "millions of users" pipeline cannot afford. An
//! [`RttSketch`] replaces the sample vector with a fixed-boundary log-bucket
//! histogram:
//!
//! * **Constant memory.** At most [`RttSketch::MAX_BUCKETS`] buckets exist,
//!   whatever the sample count; a typical per-app cell occupies a few dozen.
//! * **Bounded quantile error.** Every reported quantile is the
//!   representative value of the bucket containing the exact order statistic,
//!   at most [`RttSketch::RELATIVE_ERROR`] (1 %) away from it in relative
//!   terms — for observations inside the sketch's resolution range of
//!   ~31 µs to ~17.5 min, which covers every RTT the relay can produce.
//!   Values outside it land in the under/overflow buckets, where quantiles
//!   are clamped to the exact `[min, max]` but carry no relative-error
//!   bound. `count`, `sum` (at 1 ns resolution), `min` and `max` are always
//!   exact.
//! * **Deterministic, order-free merging.** Bucket boundaries are fixed
//!   functions of the value (no per-sketch calibration), and all accumulator
//!   state is integral, so merging any partition of a sample set in any
//!   order produces the *bit-identical* sketch. That is the property the
//!   sharded fleet engine's cross-shard merge relies on.
//!
//! Bucket boundaries are log-linear, HDR-histogram style: each power of two
//! of milliseconds is split into 64 equal-width linear
//! subbuckets. Bucket indices are computed from the raw bits of the `f64`
//! (exponent plus the top mantissa bits), so no transcendental functions are
//! involved and the mapping is exact on every platform.
//!
//! # Representation and cost
//!
//! The occupied buckets are one run of `(index, count)` pairs in ascending
//! index order, in a single `Vec`: 16 bytes per occupied bucket plus the
//! vector's spare capacity, and no per-node allocation. `observe` finds its
//! bucket by binary search (O(log b) for b occupied buckets, plus a shift
//! when the bucket is new); `merge_from` is one linear merge of two runs,
//! O(b₁ + b₂), done in place. Every read — quantiles, CDF fractions,
//! [`RttSketch::series`], the digest and the JSON encoding — is one walk of
//! the run. Merging many sketches into one (the crowd report's groups, a
//! windowed store's merged view) costs one pass over their buckets through
//! a dense per-index table rather than a chain of pairwise merges into a
//! growing run.
//!
//! # Examples
//!
//! ```
//! use mop_measure::RttSketch;
//!
//! // Two shards observe disjoint halves of the same samples...
//! let (mut a, mut b) = (RttSketch::new(), RttSketch::new());
//! for ms in 1..=1000 {
//!     if ms % 2 == 0 { a.observe(ms as f64) } else { b.observe(ms as f64) }
//! }
//! // ...and the merge, in either order, is the same sketch.
//! let mut ab = a.clone();
//! ab.merge_from(&b);
//! let mut ba = b.clone();
//! ba.merge_from(&a);
//! assert_eq!(ab, ba);
//! assert_eq!(ab.count(), 1000);
//! let median = ab.median().unwrap();
//! assert!((median - 500.0).abs() / 500.0 < 0.01, "median {median}");
//! ```

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

use mop_json::{FromJson, Hex, JsonReader, JsonWrite, ParseError, ToJson};

/// Number of linear subbuckets per power of two. 64 subbuckets bound the
/// relative width of one bucket by 1/64 ≈ 1.6 %, so the bucket midpoint is
/// within 0.79 % of any value in the bucket — comfortably inside the 1 %
/// error budget.
const SUBBUCKETS: u64 = 64;
/// log2(SUBBUCKETS), the mantissa bits that select the subbucket.
const SUBBUCKET_BITS: u32 = 6;
/// Values below this (in ms) land in the underflow bucket. 2^-5 ms = ~31 µs,
/// far below any RTT the relay can measure.
const MIN_MS: f64 = 0.03125;
/// Values above this (in ms) land in the overflow bucket. 2^20 ms ≈ 17.5
/// minutes, far above any RTT the relay reports.
const MAX_MS: f64 = 1_048_576.0;
/// Exponent (biased) of `MIN_MS`, the origin of the bucket index space.
const MIN_EXPONENT: i32 = -5;
/// Number of powers of two between `MIN_MS` and `MAX_MS`.
const OCTAVES: u64 = 25;
/// Nanoseconds-per-millisecond fixed-point scale of the exact sum.
const SUM_SCALE: f64 = 1_000_000.0;

/// A mergeable fixed-boundary log-bucket histogram of RTT values in
/// milliseconds. See the [module docs](self) for the guarantees.
#[derive(Clone)]
pub struct RttSketch {
    /// Sparse bucket counts, in ascending index order. Index 0 is the
    /// underflow bucket; [`OVERFLOW`] is the overflow bucket.
    pub(crate) buckets: Buckets,
    /// Total observations.
    pub(crate) count: u64,
    /// Exact sum of all observed values, in nanoseconds (integral so that
    /// merges are associative and commutative bit-for-bit).
    pub(crate) sum_ns: u128,
    /// Raw bits of the smallest observed value (positive finite `f64`s order
    /// the same as their bit patterns). `u64::MAX` while empty.
    pub(crate) min_bits: u64,
    /// Raw bits of the largest observed value. `0` while empty.
    pub(crate) max_bits: u64,
    /// [`RttSketch::digest`], kept until the next `&mut` call. Not state:
    /// out of equality, `Debug` and the JSON encoding.
    pub(crate) digest_memo: DigestMemo,
}

/// Equality compares the sketch state; the digest memo is not state.
impl PartialEq for RttSketch {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
            && self.count == other.count
            && self.sum_ns == other.sum_ns
            && self.min_bits == other.min_bits
            && self.max_bits == other.max_bits
    }
}

impl Eq for RttSketch {}

impl fmt::Debug for RttSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RttSketch")
            .field("buckets", &self.buckets)
            .field("count", &self.count)
            .field("sum_ns", &self.sum_ns)
            .field("min_bits", &self.min_bits)
            .field("max_bits", &self.max_bits)
            .finish()
    }
}

/// A digest its owner computed once and keeps until the owner next
/// changes. Each digest nests the digests below it (a sketch's inside its
/// store's, an epoch store's inside its windowed store's), so with a memo
/// at every level re-digesting after a merge hashes only what the merge
/// touched. The owner clears the memo on every `&mut` path; its fields
/// are crate-private, so no write can bypass that.
///
/// `u64::MAX` stands for "not kept": a digest of that value is computed
/// afresh each time, which is only slower. The value is a pure function
/// of the owner's state and publishes nothing else, so `Relaxed` is
/// enough for a memo shared between threads.
pub(crate) struct DigestMemo(AtomicU64);

impl DigestMemo {
    const NOT_KEPT: u64 = u64::MAX;

    /// The kept digest, or `compute()` kept for next time. Under
    /// `debug_assertions` every hit is checked against a recomputation.
    pub(crate) fn get_or(&self, compute: impl Fn() -> u64) -> u64 {
        let kept = self.0.load(Relaxed);
        if kept != Self::NOT_KEPT {
            debug_assert_eq!(kept, compute(), "a digest memo outlived a change to its owner");
            return kept;
        }
        let digest = compute();
        self.0.store(digest, Relaxed);
        digest
    }

    /// Forgets the kept digest.
    pub(crate) fn clear(&mut self) {
        *self.0.get_mut() = Self::NOT_KEPT;
    }
}

impl Default for DigestMemo {
    fn default() -> Self {
        Self(AtomicU64::new(Self::NOT_KEPT))
    }
}

/// A clone keeps the digest: it has the same state.
impl Clone for DigestMemo {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.0.load(Relaxed)))
    }
}

/// Index of the first regular (non-underflow) bucket.
const FIRST_REGULAR: u16 = 1;

/// Index of the overflow bucket.
const OVERFLOW: u16 = FIRST_REGULAR + (OCTAVES * SUBBUCKETS) as u16;

/// The empty sketch, [`RttSketch::new`].
impl Default for RttSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl RttSketch {
    /// The guaranteed bound on the relative error of any reported quantile,
    /// for observations inside the sketch's resolution range (~31 µs to
    /// ~17.5 min; see the [module docs](self) for what happens outside it).
    pub const RELATIVE_ERROR: f64 = 0.01;

    /// The largest number of buckets a sketch can ever hold (underflow +
    /// `OCTAVES × SUBBUCKETS` regular buckets + overflow): the constant that
    /// makes its memory independent of the sample count.
    pub const MAX_BUCKETS: usize = OVERFLOW as usize + 1;

    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self {
            buckets: Buckets::default(),
            count: 0,
            sum_ns: 0,
            min_bits: u64::MAX,
            max_bits: 0,
            digest_memo: DigestMemo::default(),
        }
    }

    /// The bucket index of a value already clamped to `[MIN_MS, MAX_MS)`:
    /// the octave (exponent above `MIN_EXPONENT`) times `SUBBUCKETS`, plus
    /// the subbucket selected by the top mantissa bits. Pure bit
    /// manipulation — exact and identical on every platform.
    pub(crate) fn index_of(ms: f64) -> u16 {
        if ms < MIN_MS {
            return 0;
        }
        if ms >= MAX_MS {
            return OVERFLOW;
        }
        let bits = ms.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let subbucket = (bits >> (52 - SUBBUCKET_BITS)) & (SUBBUCKETS - 1);
        let octave = (exponent - MIN_EXPONENT) as u64;
        FIRST_REGULAR + (octave * SUBBUCKETS + subbucket) as u16
    }

    /// The representative value reported for a bucket: the arithmetic
    /// midpoint of its edges, which is within `RELATIVE_ERROR` of every
    /// value the bucket can contain.
    pub(crate) fn representative(index: u16) -> f64 {
        if index == 0 {
            return MIN_MS;
        }
        if index >= OVERFLOW {
            return MAX_MS;
        }
        let linear = u64::from(index - FIRST_REGULAR);
        let octave = linear / SUBBUCKETS;
        let subbucket = linear % SUBBUCKETS;
        let base = MIN_MS * (1u64 << octave) as f64;
        let width = base / SUBBUCKETS as f64;
        base + width * (subbucket as f64 + 0.5)
    }

    /// The exclusive upper edge of a bucket (used by the invariant tests).
    #[cfg(test)]
    fn upper_edge(index: u16) -> f64 {
        if index == 0 {
            return MIN_MS;
        }
        if index >= OVERFLOW {
            return f64::INFINITY;
        }
        let linear = u64::from(index - FIRST_REGULAR);
        let octave = linear / SUBBUCKETS;
        let subbucket = linear % SUBBUCKETS;
        let base = MIN_MS * (1u64 << octave) as f64;
        base + base / SUBBUCKETS as f64 * (subbucket as f64 + 1.0)
    }

    /// Folds one RTT value (milliseconds) into the sketch. Non-finite and
    /// negative values are ignored — they carry no measurement.
    pub fn observe(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        self.digest_memo.clear();
        self.buckets.add(Self::index_of(ms), 1);
        self.count += 1;
        self.sum_ns += (ms * SUM_SCALE).round() as u128;
        let bits = ms.to_bits();
        self.min_bits = self.min_bits.min(bits);
        self.max_bits = self.max_bits.max(bits);
    }

    /// Merges another sketch into this one. Integral element-wise addition,
    /// so any merge order over any partition of the same observations yields
    /// the bit-identical result.
    pub fn merge_from(&mut self, other: &RttSketch) {
        self.digest_memo.clear();
        self.buckets.merge_from(&other.buckets);
        self.merge_scalars(other);
    }

    /// Adds `other`'s count, sum and extremes: the merge minus the buckets.
    fn merge_scalars(&mut self, other: &RttSketch) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_bits = self.min_bits.min(other.min_bits);
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum observed value.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| f64::from_bits(self.min_bits))
    }

    /// Exact maximum observed value.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| f64::from_bits(self.max_bits))
    }

    /// The `q`-quantile (`0.0..=1.0`) of the observations: the representative
    /// value of the bucket containing the nearest-rank order statistic,
    /// clamped to the exact `[min, max]` range. Within
    /// [`RttSketch::RELATIVE_ERROR`] of that order statistic when it lies in
    /// the sketch's resolution range (order statistics in the under/overflow
    /// buckets are only clamped to the exact extremes); `q = 0` and `q = 1`
    /// are exact. `None` if the sketch is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank (0-based) target, matching the order statistic that
        // `mop_measure::percentile` interpolates around.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        if rank == 0 {
            return self.min();
        }
        if rank == self.count - 1 {
            return self.max();
        }
        let mut cumulative = 0u64;
        for &(index, count) in self.buckets.iter() {
            cumulative += count;
            if cumulative > rank {
                let rep = Self::representative(index);
                return Some(rep.clamp(self.min().unwrap_or(rep), self.max().unwrap_or(rep)));
            }
        }
        self.max()
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The fraction of observations at or below `x`. The reported fraction
    /// equals the exact fraction evaluated at some `x'` within one bucket
    /// width (≤ 2 × [`RttSketch::RELATIVE_ERROR`]) of `x` — the horizontal
    /// error bound a fixed-bucket CDF provides.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        CdfWalk::new(self).fraction_at_or_below(x)
    }

    /// Evaluates the sketch's CDF at evenly spaced points over `[0, x_max]`,
    /// producing `(x, F(x))` pairs — the series a figure plots, mirroring
    /// [`crate::Cdf::series`]. One walk of the buckets serves every point.
    pub fn series(&self, x_max: f64, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        let mut walk = CdfWalk::new(self);
        (0..points)
            .map(|i| {
                let x = x_max * i as f64 / (points - 1) as f64;
                (x, walk.fraction_at_or_below(x))
            })
            .collect()
    }

    /// Number of occupied buckets — the sketch's actual footprint, bounded
    /// by [`RttSketch::MAX_BUCKETS`] regardless of the observation count.
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// A stable FNV-1a digest of the full sketch state (buckets, count, sum,
    /// min/max bits). Two sketches are bit-identical iff their digests match
    /// — the one-line check the merge-determinism tests use. Memoised until
    /// the sketch next changes.
    pub fn digest(&self) -> u64 {
        self.digest_memo.get_or(|| {
            let mut h = Fnv::new();
            h.write_u64(self.count);
            h.write_u64((self.sum_ns >> 64) as u64);
            h.write_u64(self.sum_ns as u64);
            h.write_u64(self.min_bits);
            h.write_u64(self.max_bits);
            for &(index, count) in self.buckets.iter() {
                h.write_u64(u64::from(index));
                h.write_u64(count);
            }
            h.finish()
        })
    }
}

/// The full sketch state, restored bit-identically by [`FromJson`]. The
/// exact accumulators (`sum_ns`, `min_bits`, `max_bits`) are hex strings:
/// JSON integers here are `i64`, and bit patterns above `i64::MAX` would
/// silently lose precision as floats otherwise. Buckets are
/// `[index, count]` pairs in index order.
impl ToJson for RttSketch {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("count", &self.count);
        out.field("sum_ns", &Hex(self.sum_ns));
        out.field("min_bits", &Hex(self.min_bits));
        out.field("max_bits", &Hex(self.max_bits));
        out.key("buckets");
        out.begin_array();
        for (index, count) in self.buckets.iter() {
            out.begin_array();
            index.write_json(out);
            count.write_json(out);
            out.end_array();
        }
        out.end_array();
        out.end_object();
    }
}

impl FromJson for RttSketch {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "buckets" => buckets: Buckets,
            "count" => count,
            "sum_ns" => sum_ns: Hex<u128>,
            "min_bits" => min_bits: Hex<u64>,
            "max_bits" => max_bits: Hex<u64>,
        });
        // Refuse what `observe` and the merges cannot make: a bucket past
        // the overflow bucket, an empty bucket, a count that is not the
        // buckets' total.
        if let Some(&(index, _)) = buckets.iter().find(|&&(index, _)| index > OVERFLOW) {
            let why = format!("bucket index {index} is past the overflow bucket {OVERFLOW}");
            return Err(input.error(why).within("buckets"));
        }
        if let Some(&(index, _)) = buckets.iter().find(|&&(_, count)| count == 0) {
            return Err(input.error(format!("bucket {index} has a zero count")).within("buckets"));
        }
        let total = buckets.iter().try_fold(0u64, |total, &(_, count)| total.checked_add(count));
        if total != Some(count) {
            let why = match total {
                Some(total) => format!("{count} is not the buckets' total {total}"),
                None => format!("{count} is not the buckets' total, which overflows"),
            };
            return Err(input.error(why).within("count"));
        }
        Ok(Self {
            buckets,
            count,
            sum_ns: sum_ns.0,
            min_bits: min_bits.0,
            max_bits: max_bits.0,
            digest_memo: DigestMemo::default(),
        })
    }
}

/// The occupied buckets of a sketch: `(index, count)` pairs, strictly
/// ascending by index, every index at most the overflow bucket's and every
/// count nonzero (a sketch's decoder refuses a list that breaks either).
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct Buckets(Vec<(u16, u64)>);

impl Buckets {
    /// The pairs in ascending index order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (u16, u64)> {
        self.0.iter()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds `count` to bucket `index`, creating it if absent.
    fn add(&mut self, index: u16, count: u64) {
        match self.0.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(at) => self.0[at].1 += count,
            Err(at) => self.0.insert(at, (index, count)),
        }
    }

    /// Adds every bucket of `other`, in place: one forward pass adds the
    /// counts of shared indices and counts the new ones, then (only if
    /// there are new ones) one backward pass spreads the run out and
    /// drops them into their slots.
    fn merge_from(&mut self, other: &Buckets) {
        if self.0.is_empty() {
            self.0.extend_from_slice(&other.0);
            return;
        }
        let mut new = 0;
        let mut at = 0;
        for &(index, count) in &other.0 {
            while at < self.0.len() && self.0[at].0 < index {
                at += 1;
            }
            match self.0.get_mut(at) {
                Some(mine) if mine.0 == index => mine.1 += count,
                _ => new += 1,
            }
        }
        if new == 0 {
            return;
        }
        let mut read = self.0.len();
        self.0.resize(read + new, (0, 0));
        let mut write = self.0.len();
        for &(index, count) in other.0.iter().rev() {
            while read > 0 && self.0[read - 1].0 > index {
                read -= 1;
                write -= 1;
                self.0[write] = self.0[read];
            }
            if read > 0 && self.0[read - 1].0 == index {
                // Shared: its count was added in the forward pass.
                read -= 1;
                write -= 1;
                self.0[write] = self.0[read];
            } else {
                write -= 1;
                self.0[write] = (index, count);
            }
        }
        debug_assert_eq!(read, write, "the untouched prefix stays in place");
    }
}

/// A run from pairs already in strictly ascending index order (a map's
/// entries, in the reference models).
#[cfg(test)]
impl FromIterator<(u16, u64)> for Buckets {
    fn from_iter<T: IntoIterator<Item = (u16, u64)>>(pairs: T) -> Self {
        let run: Vec<(u16, u64)> = pairs.into_iter().collect();
        assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "pairs out of order");
        Buckets(run)
    }
}

/// Prints as the index → count map it stands for.
impl fmt::Debug for Buckets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.0.iter().map(|(index, count)| (index, count))).finish()
    }
}

/// A sketch's `[[index, count], ...]` bucket list. Decoding keeps the
/// later count of a repeated index and sorts an out-of-order list, so any
/// list decodes to the run that inserting its pairs one by one into a map
/// would give.
impl FromJson for Buckets {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        const PAIR: &str = "expected an [index, count] pair";
        let mut run: Vec<(u16, u64)> = Vec::new();
        let mut sorted = true;
        input.read_array(|input| {
            let (mut index, mut count, mut len) = (None, None, 0);
            input.read_array(|input| {
                match len {
                    0 => index = Some(u16::read_json(input)?),
                    1 => count = Some(u64::read_json(input)?),
                    _ => return Err(input.error(PAIR)),
                }
                len += 1;
                Ok(())
            })?;
            let (Some(index), Some(count)) = (index, count) else {
                return Err(input.error(PAIR));
            };
            sorted &= run.last().map_or(true, |&(last, _)| last < index);
            run.push((index, count));
            Ok(())
        })?;
        if !sorted {
            // Stable, so equal indices keep their input order and the
            // dedup below keeps the last one's count.
            run.sort_by_key(|&(index, _)| index);
            run.dedup_by(|later, kept| {
                let repeated = later.0 == kept.0;
                if repeated {
                    kept.1 = later.1;
                }
                repeated
            });
        }
        Ok(Buckets(run))
    }
}

/// A cursor over a sketch's CDF: evaluating ascending `x` values walks the
/// bucket run once; a smaller `x` than the last restarts the walk.
struct CdfWalk<'a> {
    sketch: &'a RttSketch,
    /// Buckets already summed into `below`.
    next: usize,
    /// Total count of `sketch.buckets[..next]`.
    below: u64,
}

impl<'a> CdfWalk<'a> {
    fn new(sketch: &'a RttSketch) -> Self {
        Self { sketch, next: 0, below: 0 }
    }

    /// [`RttSketch::fraction_at_or_below`].
    fn fraction_at_or_below(&mut self, x: f64) -> f64 {
        let sketch = self.sketch;
        if sketch.count == 0 {
            return 0.0;
        }
        if let Some(min) = sketch.min() {
            if x < min {
                return 0.0;
            }
        }
        if let Some(max) = sketch.max() {
            if x >= max {
                return 1.0;
            }
        }
        let limit = RttSketch::index_of(x.max(0.0));
        let run = &sketch.buckets.0;
        if self.next > 0 && run[self.next - 1].0 > limit {
            (self.next, self.below) = (0, 0);
        }
        while let Some(&(index, count)) = run.get(self.next) {
            if index > limit {
                break;
            }
            self.below += count;
            self.next += 1;
        }
        self.below as f64 / sketch.count as f64
    }
}

/// Scratch for merging many sketches into one in a single pass: a count
/// per regular bucket index plus a bitmap of the occupied ones, both
/// all-zero between merges. Each part's buckets are added straight into
/// their slots, and the bitmap yields the merged run already sorted. The
/// count table is allocated on first use.
#[derive(Default)]
pub(crate) struct MergeTable {
    counts: Vec<u64>,
    occupied: [u64; OCCUPIED_WORDS],
}

/// Words in [`MergeTable`]'s bitmap: one bit per index below
/// [`RttSketch::MAX_BUCKETS`].
const OCCUPIED_WORDS: usize = RttSketch::MAX_BUCKETS.div_ceil(64);

impl MergeTable {
    /// The merge of every sketch in `parts`.
    pub(crate) fn merged(&mut self, parts: &[&RttSketch]) -> RttSketch {
        let mut merged = RttSketch::new();
        self.merge_into(&mut merged, parts);
        merged
    }

    /// Merges every sketch in `parts` into `target`: the sketch that
    /// `target.merge_from(part)` for each part in turn gives, in one pass
    /// over their buckets.
    pub(crate) fn merge_into(&mut self, target: &mut RttSketch, parts: &[&RttSketch]) {
        if let [] | [_] = parts {
            parts.iter().for_each(|part| target.merge_from(part));
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; RttSketch::MAX_BUCKETS];
        }
        target.digest_memo.clear();
        let mut run = std::mem::take(&mut target.buckets);
        self.add(&run);
        for part in parts {
            target.merge_scalars(part);
            self.add(&part.buckets);
        }
        run.0.clear();
        run.0.reserve(self.occupied.iter().map(|bits| bits.count_ones() as usize).sum());
        for (word, bits) in self.occupied.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let index = word * 64 + bits.trailing_zeros() as usize;
                run.0.push((index as u16, std::mem::take(&mut self.counts[index])));
                bits &= bits - 1;
            }
        }
        target.buckets = run;
    }

    /// Adds a run into the table.
    fn add(&mut self, buckets: &Buckets) {
        for &(index, count) in &buckets.0 {
            let index = usize::from(index);
            self.counts[index] += count;
            self.occupied[index / 64] |= 1 << (index % 64);
        }
    }
}

impl Extend<f64> for RttSketch {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.observe(v);
        }
    }
}

impl FromIterator<f64> for RttSketch {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut sketch = Self::new();
        sketch.extend(iter);
        sketch
    }
}

/// A minimal FNV-1a accumulator (kept local so `mop_measure` stays free of
/// simulator and packet dependencies).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        let mut last = 0u16;
        let mut v = MIN_MS / 2.0;
        while v < MAX_MS * 2.0 {
            let idx = RttSketch::index_of(v);
            assert!(idx >= last, "index must not decrease: {v} -> {idx} after {last}");
            assert!((idx as usize) < RttSketch::MAX_BUCKETS);
            last = idx;
            v *= 1.003;
        }
        assert_eq!(RttSketch::index_of(0.0), 0);
        assert_eq!(RttSketch::index_of(MAX_MS * 10.0), OVERFLOW);
    }

    #[test]
    fn representative_lies_inside_the_bucket() {
        let mut v = MIN_MS;
        while v < MAX_MS {
            let idx = RttSketch::index_of(v);
            let rep = RttSketch::representative(idx);
            let upper = RttSketch::upper_edge(idx);
            assert!(rep <= upper, "rep {rep} above upper edge {upper} for {v}");
            let err = (rep - v).abs() / v;
            assert!(err <= RttSketch::RELATIVE_ERROR, "value {v} rep {rep} err {err}");
            v *= 1.007;
        }
    }

    #[test]
    fn count_sum_min_max_are_exact() {
        let values = [0.5, 3.25, 100.0, 99.75, 760.5];
        let sketch: RttSketch = values.iter().copied().collect();
        assert_eq!(sketch.count(), 5);
        assert_eq!(sketch.min(), Some(0.5));
        assert_eq!(sketch.max(), Some(760.5));
        let exact_sum: f64 = values.iter().sum();
        assert!((sketch.sum_ns as f64 / SUM_SCALE - exact_sum).abs() < 1e-3);
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64 / 7.0).collect();
        let sketch: RttSketch = values.iter().copied().collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = sorted[(q * (sorted.len() - 1) as f64).round() as usize];
            let approx = sketch.quantile(q).unwrap();
            let err = (approx - exact).abs() / exact;
            assert!(err <= RttSketch::RELATIVE_ERROR, "q {q}: exact {exact} approx {approx}");
        }
        assert_eq!(sketch.quantile(0.0), sketch.min());
        assert_eq!(sketch.quantile(1.0), sketch.max());
    }

    #[test]
    fn fraction_and_series_are_monotone() {
        let sketch: RttSketch = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(sketch.fraction_at_or_below(0.1), 0.0);
        assert_eq!(sketch.fraction_at_or_below(5000.0), 1.0);
        let half = sketch.fraction_at_or_below(500.0);
        assert!((half - 0.5).abs() < 0.02, "fraction at 500: {half}");
        let series = sketch.series(1000.0, 21);
        assert_eq!(series.len(), 21);
        assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn a_cdf_walk_restarts_when_x_falls() {
        let sketch: RttSketch = (1..=1000).map(|i| i as f64).collect();
        let mut walk = CdfWalk::new(&sketch);
        for x in [900.0, 10.0, 500.0, 2.0, 999.0] {
            assert_eq!(walk.fraction_at_or_below(x), sketch.fraction_at_or_below(x), "x {x}");
        }
    }

    #[test]
    fn merging_any_partition_is_bit_identical() {
        let values: Vec<f64> = (0..5000).map(|i| 1.0 + (i % 997) as f64 * 0.73).collect();
        let whole: RttSketch = values.iter().copied().collect();
        // Three shards, merged in both orders.
        let mut shards = vec![RttSketch::new(), RttSketch::new(), RttSketch::new()];
        for (i, v) in values.iter().enumerate() {
            shards[i % 3].observe(*v);
        }
        let mut forward = RttSketch::new();
        for s in &shards {
            forward.merge_from(s);
        }
        let mut backward = RttSketch::new();
        for s in shards.iter().rev() {
            backward.merge_from(s);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward, whole);
        assert_eq!(forward.digest(), whole.digest());
    }

    #[test]
    fn empty_sketch_reports_nothing() {
        let sketch = RttSketch::new();
        assert!(sketch.is_empty());
        assert_eq!(sketch.median(), None);
        assert_eq!(sketch.min(), None);
        assert_eq!(sketch.max(), None);
        assert_eq!(sketch.fraction_at_or_below(100.0), 0.0);
        assert_eq!(sketch.occupied_buckets(), 0);
    }

    #[test]
    fn out_of_range_and_invalid_values() {
        let mut sketch = RttSketch::new();
        sketch.observe(f64::NAN);
        sketch.observe(f64::INFINITY);
        sketch.observe(-5.0);
        assert!(sketch.is_empty(), "invalid values must be ignored");
        sketch.observe(0.000001); // underflow bucket, min still exact
        sketch.observe(10_000_000.0); // overflow bucket, max still exact
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.min(), Some(0.000001));
        assert_eq!(sketch.max(), Some(10_000_000.0));
        // Quantiles stay inside the exact range even for clamped buckets.
        let q = sketch.quantile(0.5).unwrap();
        assert!((0.000001..=10_000_000.0).contains(&q));
    }

    #[test]
    fn memory_is_bounded_by_the_bucket_space() {
        let mut sketch = RttSketch::new();
        for i in 0..200_000u64 {
            sketch.observe(0.01 + (i % 40_000) as f64 * 0.05);
        }
        assert!(sketch.occupied_buckets() <= RttSketch::MAX_BUCKETS);
        assert_eq!(sketch.count(), 200_000);
    }
}
