//! Property-based tests for the statistics primitives: the invariants the
//! figure-generation code relies on (monotone CDFs, order statistics inside
//! the sample range, histogram conservation).

use proptest::prelude::*;

use mop_measure::{
    percentile, AggregateStore, Cdf, Histogram, MeasurementKind, MeasurementStore, NetKind,
    RttRecord, RttSketch, Summary, WindowedAggregateStore,
};

/// Stamps one deterministic sample (keyed off its index) into a windowed
/// store — the shared fold for the windowed-store properties below.
fn stamp_windowed(w: &mut WindowedAggregateStore, i: usize, at_ns: u64, rtt: f64) {
    let apps = ["com.whatsapp", "com.android.chrome", "com.google.android.youtube"];
    let isps = ["Jio 4G", "Verizon", "HomeWiFi"];
    let network = if i % 4 == 0 { NetKind::Wifi } else { NetKind::Lte };
    w.observe_parts(
        at_ns,
        if i % 5 == 0 { MeasurementKind::Dns } else { MeasurementKind::Tcp },
        network,
        apps[i % apps.len()],
        "",
        isps[i % isps.len()],
        (i % 7) as u32,
        if (i % 7) % 2 == 0 { "USA" } else { "India" },
        rtt,
    );
}

/// One step of a session over pairs of sketches, stores and windowed
/// stores: `(what, which of the pair, timestamp, rtt)`.
type MemoOp = (u8, usize, u64, f64);

fn arb_memo_op() -> impl Strategy<Value = MemoOp> {
    (0u8..10, 0usize..2, 0u64..40_000, 0.5f64..1_500.0)
}

/// What a decoded copy of `value` digests to: a decode starts with no memo,
/// so this is the digest computed from scratch.
fn fresh_digest<T: mop_json::ToJson + mop_json::FromJson>(value: &T, digest: fn(&T) -> u64) -> u64 {
    digest(&mop_json::decode::<T>(&mop_json::to_string(value)).unwrap())
}

/// Every digest of the session's objects — each live epoch's through its
/// summary too — equals the one computed from scratch. Asking also warms
/// every memo for the changes that follow.
fn assert_digests_are_fresh(
    sketches: &[RttSketch],
    stores: &[AggregateStore],
    windows: &[WindowedAggregateStore],
) {
    for sketch in sketches {
        assert_eq!(sketch.digest(), fresh_digest(sketch, RttSketch::digest));
    }
    for store in stores {
        assert_eq!(store.digest(), fresh_digest(store, AggregateStore::digest));
    }
    for w in windows {
        assert_eq!(w.digest(), fresh_digest(w, WindowedAggregateStore::digest));
        for summary in w.epoch_summaries() {
            let store = w.epoch_store(summary.epoch).unwrap();
            assert_eq!(summary.digest, fresh_digest(store, AggregateStore::digest));
        }
    }
}

fn arb_rtts() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.1f64..2_000.0, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn percentiles_are_ordered_and_bounded(values in arb_rtts()) {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let p25 = percentile(&values, 25.0).unwrap();
        let p50 = percentile(&values, 50.0).unwrap();
        let p95 = percentile(&values, 95.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p95);
        prop_assert!(p25 >= min - 1e-9 && p95 <= max + 1e-9);
    }

    #[test]
    fn summary_mean_is_between_min_and_max(values in arb_rtts()) {
        let s = Summary::of(&values).unwrap();
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert_eq!(s.count, values.len());
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one(values in arb_rtts()) {
        let cdf = Cdf::from_values(&values);
        let series = cdf.series(2_000.0, 40);
        prop_assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
        prop_assert!((series.last().unwrap().1 - 1.0).abs() < 1e-9);
        // The empirical median quantile is consistent with fraction_at_or_below.
        let median = cdf.median().unwrap();
        prop_assert!(cdf.fraction_at_or_below(median) >= 0.5 - 1e-9);
    }

    #[test]
    fn histogram_conserves_samples(values in arb_rtts()) {
        let mut h = Histogram::table1_bins();
        h.add_all(&values);
        prop_assert_eq!(h.total() as usize, values.len());
        let above_1ms = values.iter().filter(|v| **v >= 1.0).count();
        prop_assert_eq!((h.total() as f64 * h.fraction_at_or_above(1.0)).round() as usize, above_1ms);
    }


    #[test]
    fn store_filters_partition_the_records(
        wifi_rtts in proptest::collection::vec(1.0f64..300.0, 0..60),
        lte_rtts in proptest::collection::vec(1.0f64..300.0, 0..60),
    ) {
        let mut store = MeasurementStore::new();
        for rtt in &wifi_rtts {
            store.push(RttRecord::tcp(*rtt, 1, "com.app.a", NetKind::Wifi));
        }
        for rtt in &lte_rtts {
            store.push(RttRecord::tcp(*rtt, 2, "com.app.b", NetKind::Lte));
        }
        let wifi = store.rtts_where(|r| r.network == NetKind::Wifi);
        let lte = store.rtts_where(|r| r.network == NetKind::Lte);
        prop_assert_eq!(wifi.len() + lte.len(), store.len());
        prop_assert_eq!(wifi.len(), wifi_rtts.len());
    }

    // ----- streaming sketch / aggregate properties ------------------------

    #[test]
    fn sketch_quantiles_stay_within_one_percent_of_exact(
        values in arb_rtts(),
        q in 0.0f64..=1.0,
    ) {
        let sketch: RttSketch = values.iter().copied().collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        // The exact nearest-rank order statistic the sketch approximates.
        let exact = sorted[(q * (sorted.len() - 1) as f64).round() as usize];
        let approx = sketch.quantile(q).unwrap();
        prop_assert!(
            (approx - exact).abs() / exact <= RttSketch::RELATIVE_ERROR + 1e-12,
            "q {} exact {} approx {}", q, exact, approx
        );
        // Count, min and max are exact.
        prop_assert_eq!(sketch.count() as usize, values.len());
        prop_assert_eq!(sketch.min().unwrap(), sorted[0]);
        prop_assert_eq!(sketch.max().unwrap(), *sorted.last().unwrap());
    }

    #[test]
    fn sketch_cdf_is_monotone_and_bracketed(values in arb_rtts()) {
        let sketch: RttSketch = values.iter().copied().collect();
        let series = sketch.series(2_000.0, 40);
        prop_assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
        prop_assert!((series.last().unwrap().1 - 1.0).abs() < 1e-9);
        // The sketch CDF is the exact CDF read at a point within one bucket
        // width: bracket it by evaluating the exact CDF slightly wider.
        let exact = Cdf::from_values(&values);
        let slack = 2.0 * RttSketch::RELATIVE_ERROR;
        for (x, f) in series {
            let lo = exact.fraction_at_or_below(x * (1.0 - slack) - 1e-9);
            let hi = exact.fraction_at_or_below(x * (1.0 + slack) + 1e-9);
            prop_assert!((lo..=hi).contains(&f), "x {}: sketch {} outside [{}, {}]", x, f, lo, hi);
        }
    }

    #[test]
    fn aggregate_merge_is_bit_identical_for_any_shard_permutation(
        values in proptest::collection::vec(0.5f64..1_500.0, 1..200),
        shards in 1usize..6,
        rotate in 0usize..6,
    ) {
        // Deterministic but varied cell keys derived from the sample index.
        let record = |i: usize, v: f64| {
            let apps = ["com.whatsapp", "com.android.chrome", "com.google.android.youtube"];
            let isps = ["Jio 4G", "Verizon", "HomeWiFi"];
            let network = if i % 4 == 0 { NetKind::Wifi } else { NetKind::Lte };
            // Country is a function of the device (a device has one country),
            // so the device plane is partition-independent.
            RttRecord::tcp(v, (i % 7) as u32, apps[i % apps.len()], network)
                .with_isp(isps[i % isps.len()])
                .with_country(if (i % 7) % 2 == 0 { "USA" } else { "India" })
        };
        let mut whole = AggregateStore::new();
        for (i, v) in values.iter().enumerate() {
            whole.observe(&record(i, *v));
        }
        // Partition across shards, then merge starting from an arbitrary
        // rotation — every order must produce the bit-identical store.
        let mut parts = vec![AggregateStore::new(); shards];
        for (i, v) in values.iter().enumerate() {
            parts[i % shards].observe(&record(i, *v));
        }
        let mut merged = AggregateStore::new();
        for k in 0..shards {
            merged.merge_from(&parts[(k + rotate) % shards]);
        }
        prop_assert_eq!(merged.digest(), whole.digest());
        prop_assert!(merged == whole, "merged store must equal the unpartitioned store");
        prop_assert_eq!(merged.sample_count() as usize, values.len());
        // The per-app counts agree with the batch store's.
        let mut batch = MeasurementStore::new();
        for (i, v) in values.iter().enumerate() {
            batch.push(record(i, *v));
        }
        prop_assert_eq!(merged.counts_per_app(), batch.counts_per_app());
        prop_assert_eq!(merged.counts_per_device(), batch.counts_per_device());
    }

    // ----- windowed (epoch) aggregate properties --------------------------

    #[test]
    fn windowed_ring_wraps_without_losing_samples(
        values in proptest::collection::vec(0.5f64..1_500.0, 1..250),
        width_ns in 1u64..5_000,
        window in 1usize..9,
    ) {
        // Timestamps sweep far past `window` epochs so the ring must wrap
        // and evict; the merged view must still equal direct observation.
        let mut w = WindowedAggregateStore::new(width_ns, window);
        let mut flat = AggregateStore::new();
        for (i, v) in values.iter().enumerate() {
            let at_ns = (i as u64).wrapping_mul(2_654_435_761) % (width_ns * 40);
            stamp_windowed(&mut w, i, at_ns, *v);
            let mut probe = WindowedAggregateStore::new(width_ns, 1);
            stamp_windowed(&mut probe, i, at_ns, *v);
            flat.merge_from(&probe.merged());
        }
        prop_assert_eq!(w.sample_count() as usize, values.len());
        prop_assert_eq!(w.merged().digest(), flat.digest());
        prop_assert!(w.live_epochs().len() <= window);
        if let Some(&max) = w.live_epochs().iter().max() {
            for epoch in w.live_epochs() {
                prop_assert!(epoch + window as u64 > max, "live epoch {} outside window ending at {}", epoch, max);
            }
        }
    }

    #[test]
    fn windowed_samples_attribute_to_the_epoch_containing_them(
        offsets in proptest::collection::vec(0u64..10_000, 1..120),
        width_ns in 2u64..2_000,
    ) {
        // A window long enough that nothing is evicted: every sample must
        // sit in the live store of exactly the epoch `at / width`.
        let window = 10_000 / width_ns as usize + 2;
        let mut w = WindowedAggregateStore::new(width_ns, window);
        let mut per_epoch = std::collections::BTreeMap::<u64, u64>::new();
        for (i, at_ns) in offsets.iter().enumerate() {
            stamp_windowed(&mut w, i, *at_ns, 25.0);
            *per_epoch.entry(at_ns / width_ns).or_default() += 1;
        }
        prop_assert_eq!(w.folded().sample_count(), 0);
        prop_assert_eq!(w.live_epochs(), per_epoch.keys().copied().collect::<Vec<_>>());
        for (epoch, count) in per_epoch {
            prop_assert_eq!(w.epoch_store(epoch).unwrap().sample_count(), count);
        }
    }

    #[test]
    fn windowed_merge_is_bit_identical_for_any_shard_permutation(
        values in proptest::collection::vec(0.5f64..1_500.0, 1..200),
        shards in 1usize..6,
        rotate in 0usize..6,
        width_ns in 10u64..3_000,
        window in 1usize..7,
    ) {
        let at_of = |i: usize| (i as u64).wrapping_mul(2_654_435_761) % (width_ns * 30);
        let mut whole = WindowedAggregateStore::new(width_ns, window);
        for (i, v) in values.iter().enumerate() {
            stamp_windowed(&mut whole, i, at_of(i), *v);
        }
        // Partition across shards, then merge starting from an arbitrary
        // rotation — every order must produce the bit-identical store.
        let mut parts: Vec<WindowedAggregateStore> =
            (0..shards).map(|_| WindowedAggregateStore::new(width_ns, window)).collect();
        for (i, v) in values.iter().enumerate() {
            stamp_windowed(&mut parts[i % shards], i, at_of(i), *v);
        }
        let mut merged = WindowedAggregateStore::new(width_ns, window);
        for k in 0..shards {
            merged.merge_from(&parts[(k + rotate) % shards]);
        }
        prop_assert_eq!(merged.digest(), whole.digest());
        prop_assert!(merged == whole, "merged windowed store must equal the unpartitioned one");
        // JSON round trip preserves the digest (the checkpoint path).
        let text = mop_json::to_string(&merged);
        let back: WindowedAggregateStore = mop_json::decode(&text).unwrap();
        prop_assert_eq!(back.digest(), whole.digest());
    }

    #[test]
    fn aggregate_medians_track_the_batch_store(values in proptest::collection::vec(1.0f64..900.0, 4..250)) {
        let mut agg = AggregateStore::new();
        let mut batch = MeasurementStore::new();
        for (i, v) in values.iter().enumerate() {
            let kind = if i % 3 == 0 { NetKind::Lte } else { NetKind::Wifi };
            let r = RttRecord::tcp(*v, 1, "com.app", kind);
            agg.observe(&r);
            batch.push(r);
        }
        for net in [NetKind::Wifi, NetKind::Lte] {
            let mut exact: Vec<f64> = batch.rtts_where(|r| r.network == net);
            if exact.is_empty() { continue; }
            exact.sort_by(f64::total_cmp);
            let exact_median = exact[(0.5 * (exact.len() - 1) as f64).round() as usize];
            let sketch_median = agg.median_where(|k| k.network == net).unwrap();
            prop_assert!(
                (sketch_median - exact_median).abs() / exact_median <= RttSketch::RELATIVE_ERROR + 1e-12,
                "net {:?}: exact {} sketch {}", net, exact_median, sketch_median
            );
        }
        prop_assert_eq!(
            agg.sketch_where(|k| k.kind == MeasurementKind::Tcp).count() as usize,
            values.len()
        );
    }

    #[test]
    fn memoised_digests_equal_digests_from_scratch(
        ops in proptest::collection::vec(arb_memo_op(), 1..120),
        width_ns in 500u64..4_000,
        window in 1usize..5,
    ) {
        let mut sketches = [RttSketch::new(), RttSketch::new()];
        let mut stores = [AggregateStore::new(), AggregateStore::new()];
        let mut windows = [
            WindowedAggregateStore::new(width_ns, window),
            WindowedAggregateStore::new(width_ns, window),
        ];
        for (i, &(what, which, at_ns, rtt)) in ops.iter().enumerate() {
            let (mine, theirs) = (which, 1 - which);
            match what {
                0 => sketches[mine].observe(rtt),
                1 => {
                    let other = sketches[theirs].clone();
                    sketches[mine].merge_from(&other);
                }
                2 => stores[mine].observe(
                    &RttRecord::tcp(rtt, (at_ns % 5) as u32, ["a", "b", "c"][i % 3], NetKind::Lte)
                        .with_isp(if at_ns % 2 == 0 { "Jio 4G" } else { "Airtel" }),
                ),
                3 => {
                    let other = stores[theirs].clone();
                    stores[mine].merge_from(&other);
                }
                // Timestamps run over ~10-80 epochs: samples advance the
                // window, land in live epochs, or fall into the tail.
                4 => stamp_windowed(&mut windows[mine], i, at_ns, rtt),
                5 => {
                    let other = windows[theirs].clone();
                    windows[mine].merge_from(&other);
                }
                // A clone carries its memo along.
                6 => windows[mine] = windows[theirs].clone(),
                _ => assert_digests_are_fresh(&sketches, &stores, &windows),
            }
        }
        assert_digests_are_fresh(&sketches, &stores, &windows);
    }
}
