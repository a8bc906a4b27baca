//! The sketch as it was kept before its buckets became one sorted run: a
//! `BTreeMap<u16, u64>` from bucket index to count, with every read written
//! over the map. The flat sketch is held to it over random observe streams —
//! every partition and merge order, pairwise and one-pass — and over JSON
//! bucket lists in any order and with repeats; the lists a sketch cannot
//! hold are refused.

use std::collections::BTreeMap;
use std::fmt;

use proptest::prelude::TestRng;

use crate::sketch::{Fnv, MergeTable, RttSketch};

/// The reference: the map-backed sketch, field for field.
#[derive(Clone)]
struct Model {
    buckets: BTreeMap<u16, u64>,
    count: u64,
    sum_ns: u128,
    min_bits: u64,
    max_bits: u64,
}

impl Model {
    fn new() -> Self {
        Self { buckets: BTreeMap::new(), count: 0, sum_ns: 0, min_bits: u64::MAX, max_bits: 0 }
    }

    fn observe(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        *self.buckets.entry(RttSketch::index_of(ms)).or_insert(0) += 1;
        self.count += 1;
        self.sum_ns += (ms * 1_000_000.0).round() as u128;
        self.min_bits = self.min_bits.min(ms.to_bits());
        self.max_bits = self.max_bits.max(ms.to_bits());
    }

    fn merge_from(&mut self, other: &Model) {
        for (&index, &count) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += count;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_bits = self.min_bits.min(other.min_bits);
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| f64::from_bits(self.min_bits))
    }

    fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| f64::from_bits(self.max_bits))
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        if rank == 0 {
            return self.min();
        }
        if rank == self.count - 1 {
            return self.max();
        }
        let mut cumulative = 0u64;
        for (&index, &count) in &self.buckets {
            cumulative += count;
            if cumulative > rank {
                let rep = RttSketch::representative(index);
                return Some(rep.clamp(self.min().unwrap_or(rep), self.max().unwrap_or(rep)));
            }
        }
        self.max()
    }

    fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.min().is_some_and(|min| x < min) {
            return 0.0;
        }
        if self.max().is_some_and(|max| x >= max) {
            return 1.0;
        }
        let limit = RttSketch::index_of(x.max(0.0));
        let below: u64 = self.buckets.range(..=limit).map(|(_, &count)| count).sum();
        below as f64 / self.count as f64
    }

    fn series(&self, x_max: f64, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        (0..points)
            .map(|i| {
                let x = x_max * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.count);
        h.write_u64((self.sum_ns >> 64) as u64);
        h.write_u64(self.sum_ns as u64);
        h.write_u64(self.min_bits);
        h.write_u64(self.max_bits);
        for (&index, &count) in &self.buckets {
            h.write_u64(u64::from(index));
            h.write_u64(count);
        }
        h.finish()
    }

    /// A sketch document with this model's scalars and `pairs` as its
    /// bucket list, decoded as the map decoder did (the later count wins).
    /// The model with its buckets replaced by inserting `pairs` one by one
    /// and its count by their total, and the document that says so with
    /// `count` off by `count_error`.
    fn with_bucket_list(&self, pairs: &[(u16, u64)], count_error: u64) -> (Model, String) {
        let mut decoded = Model { buckets: BTreeMap::new(), ..self.clone() };
        for &(index, count) in pairs {
            decoded.buckets.insert(index, count);
        }
        decoded.count = decoded.buckets.values().sum();
        let list: Vec<String> = pairs.iter().map(|(i, c)| format!("[{i},{c}]")).collect();
        let text = format!(
            "{{\"count\":{},\"sum_ns\":\"{:032x}\",\"min_bits\":\"{:016x}\",\
             \"max_bits\":\"{:016x}\",\"buckets\":[{}]}}",
            decoded.count + count_error,
            self.sum_ns,
            self.min_bits,
            self.max_bits,
            list.join(",")
        );
        (decoded, text)
    }
}

impl fmt::Debug for Model {
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

/// Every read of `ours` against the model's.
fn assert_matches(ours: &RttSketch, model: &Model, context: &str) {
    assert_eq!(format!("{ours:?}"), format!("{model:?}"), "{context}");
    assert_eq!(format!("{ours:#?}"), format!("{model:#?}"), "{context}");
    assert_eq!(ours.digest(), model.digest(), "{context}");
    assert_eq!(ours.occupied_buckets(), model.buckets.len(), "{context}");
    for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        let (a, b) = (ours.quantile(q), model.quantile(q));
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{context}: q {q}");
    }
    for x in [-1.0, 0.0, 0.01, 0.5, 3.0, 20.0, 77.7, 400.0, 5_000.0, 2e6, f64::NAN] {
        let (a, b) = (ours.fraction_at_or_below(x), model.fraction_at_or_below(x));
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: x {x}");
    }
    for (x_max, points) in [(500.0, 21), (3.0, 2), (2e6, 64), (0.0, 5), (-100.0, 7), (f64::NAN, 3)]
    {
        let (a, b) = (ours.series(x_max, points), model.series(x_max, points));
        let bits = |s: Vec<(f64, f64)>| {
            s.into_iter().map(|(x, f)| (x.to_bits(), f.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b), "{context}: series to {x_max}");
    }
}

/// A random RTT stream: mostly a few clustered values (so buckets repeat),
/// some spanning the under- and overflow buckets, a few invalid.
fn random_stream(rng: &mut TestRng) -> Vec<f64> {
    let centre = 10f64.powf(rng.next_f64() * 3.0);
    (0..rng.usize_range(0, 300))
        .map(|_| match rng.usize_range(0, 20) {
            0 => 10f64.powf(rng.next_f64() * 14.0 - 6.0),
            1 => [f64::NAN, -1.0, f64::INFINITY, 0.0][rng.usize_range(0, 4)],
            _ => centre * (1.0 + rng.next_f64()),
        })
        .collect()
}

#[test]
fn every_partition_and_merge_order_matches_the_map() {
    let mut rng = TestRng::from_name("sketch_model::partitions");
    let mut table = MergeTable::default();
    for case in 0..300 {
        let values = random_stream(&mut rng);
        let mut model = Model::new();
        let mut whole = RttSketch::new();
        for &v in &values {
            model.observe(v);
            whole.observe(v);
        }
        assert_matches(&whole, &model, &format!("case {case}: observe"));

        let shards = rng.usize_range(1, 6);
        let mut parts = vec![RttSketch::new(); shards];
        for &v in &values {
            parts[rng.usize_range(0, shards)].observe(v);
        }
        let mut order: Vec<usize> = (0..shards).collect();
        for i in (1..shards).rev() {
            order.swap(i, rng.usize_range(0, i + 1));
        }
        for (name, order) in [
            ("forward", (0..shards).collect::<Vec<_>>()),
            ("backward", (0..shards).rev().collect()),
            ("shuffled", order),
        ] {
            let mut pairwise = RttSketch::new();
            for &i in &order {
                pairwise.merge_from(&parts[i]);
            }
            assert_matches(&pairwise, &model, &format!("case {case}: {name} pairwise"));
            let refs: Vec<&RttSketch> = order.iter().map(|&i| &parts[i]).collect();
            assert_matches(&table.merged(&refs), &model, &format!("case {case}: {name} one pass"));
            // Into a target that already holds the first part.
            let mut target = refs[0].clone();
            table.merge_into(&mut target, &refs[1..]);
            assert_matches(&target, &model, &format!("case {case}: {name} into a target"));
        }
    }
}

#[test]
fn decoded_bucket_lists_match_the_map() {
    let mut rng = TestRng::from_name("sketch_model::bucket_lists");
    let mut table = MergeTable::default();
    for case in 0..300 {
        // At least one observation, so the extremes of a nonempty list are
        // set.
        let mut base = Model::new();
        random_stream(&mut rng).into_iter().chain([1.0]).for_each(|v| base.observe(v));
        // Unsorted and with repeats, whose last count is the one kept.
        let pairs: Vec<(u16, u64)> = (0..rng.usize_range(0, 40))
            .map(|_| {
                let index = match rng.usize_range(0, 10) {
                    0 => rng.usize_range(0, RttSketch::MAX_BUCKETS) as u16,
                    _ => rng.usize_range(0, 40) as u16 * 40,
                };
                (index, 1 + rng.next_u64() % 1_000)
            })
            .collect();
        // States `observe` and the merges cannot make are refused, naming
        // the member: an index past the overflow bucket, a zero count, a
        // count that is not the buckets' total.
        let past_overflow = RttSketch::MAX_BUCKETS as u16 + rng.next_u64() as u16 % 1_000;
        let zero = rng.usize_range(0, RttSketch::MAX_BUCKETS) as u16;
        for (extra, count_error, member) in [
            (Some((past_overflow, 1)), 0, "buckets"),
            (Some((zero, 0)), 0, "buckets"),
            (None, 1 + rng.next_u64() % 5, "count"),
        ] {
            let mut refused = pairs.clone();
            refused.extend(extra);
            let (_, text) = base.with_bucket_list(&refused, count_error);
            let error = mop_json::decode::<RttSketch>(&text).expect_err(&text);
            assert_eq!(error.path, member, "case {case}: {text}: {}", error.message);
        }
        let (model, text) = base.with_bucket_list(&pairs, 0);
        let ours: RttSketch = mop_json::decode(&text).unwrap();
        assert_matches(&ours, &model, &format!("case {case}: decoded {text}"));
        let again: RttSketch = mop_json::decode(&mop_json::to_string(&ours)).unwrap();
        assert_eq!(again, ours, "case {case}: the sorted encoding reads back");

        // Merged with observed sketches both ways, pairwise and in one pass.
        let mut other_model = Model::new();
        let mut other = RttSketch::new();
        for v in random_stream(&mut rng) {
            other_model.observe(v);
            other.observe(v);
        }
        let mut expected = model.clone();
        expected.merge_from(&other_model);
        expected.merge_from(&model);
        let mut pairwise = ours.clone();
        pairwise.merge_from(&other);
        pairwise.merge_from(&ours);
        assert_matches(&pairwise, &expected, &format!("case {case}: pairwise"));
        let merged = table.merged(&[&ours, &other, &ours]);
        assert_matches(&merged, &expected, &format!("case {case}: one pass"));
        let mut target = other.clone();
        table.merge_into(&mut target, &[&ours, &ours]);
        assert_matches(&target, &expected, &format!("case {case}: into a target"));
    }
}
