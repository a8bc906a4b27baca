//! The sketch stores' JSON encoding as it was before `ToJson` / `FromJson`:
//! builders into a `mop_json::Value` tree and walkers out of one, kept as
//! the model the trait impls are held to. The impls must render every store
//! byte for byte as the builders' trees render, and must decode a document
//! — intact or mutated — exactly when the walkers did, to an equal store.

use std::collections::BTreeMap;

use mop_json::{json, Value};
use proptest::prelude::TestRng;

use crate::aggregate::{AggregateKey, AggregateStore, DeviceActivity};
use crate::record::{MeasurementKind, NetKind};
use crate::sketch::RttSketch;
use crate::window::WindowedAggregateStore;

const KINDS: [(MeasurementKind, &str); 2] =
    [(MeasurementKind::Tcp, "Tcp"), (MeasurementKind::Dns, "Dns")];
const NETS: [(NetKind, &str); 4] = [
    (NetKind::Wifi, "Wifi"),
    (NetKind::Lte, "Lte"),
    (NetKind::Umts3g, "Umts3g"),
    (NetKind::Gprs2g, "Gprs2g"),
];

fn tag<T: PartialEq>(tags: &[(T, &'static str)], value: &T) -> &'static str {
    tags.iter().find(|(v, _)| v == value).unwrap().1
}

fn untag<T: Copy>(tags: &[(T, &'static str)], name: &str) -> Option<T> {
    tags.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
}

fn sketch_to_json(s: &RttSketch) -> Value {
    let buckets: Vec<Value> =
        s.buckets.iter().map(|&(index, count)| json!([i64::from(index), count as i64])).collect();
    json!({
        "count": s.count as i64,
        "sum_ns": format!("{:032x}", s.sum_ns),
        "min_bits": format!("{:016x}", s.min_bits),
        "max_bits": format!("{:016x}", s.max_bits),
        "buckets": buckets,
    })
}

fn sketch_from_json(value: &Value) -> Option<RttSketch> {
    let mut buckets = BTreeMap::new();
    for entry in value["buckets"].as_array()? {
        let pair = entry.as_array()?;
        if pair.len() != 2 {
            return None;
        }
        let index = u16::try_from(pair[0].as_i64()?).ok()?;
        buckets.insert(index, pair[1].as_u64()?);
    }
    // What `observe` and the merges cannot make is refused: an index past
    // the overflow bucket, a zero count, a count that is not the total.
    let count = value["count"].as_u64()?;
    let total = buckets.values().try_fold(0u64, |total, &n| total.checked_add(n));
    let overflow = RttSketch::MAX_BUCKETS as u16 - 1;
    let impossible = buckets.keys().any(|&i| i > overflow) || buckets.values().any(|&n| n == 0);
    if impossible || total != Some(count) {
        return None;
    }
    Some(RttSketch {
        buckets: buckets.into_iter().collect(),
        count,
        sum_ns: u128::from_str_radix(value["sum_ns"].as_str()?, 16).ok()?,
        min_bits: u64::from_str_radix(value["min_bits"].as_str()?, 16).ok()?,
        max_bits: u64::from_str_radix(value["max_bits"].as_str()?, 16).ok()?,
        digest_memo: Default::default(),
    })
}

fn store_to_json(store: &AggregateStore) -> Value {
    let cells: Vec<Value> = store
        .cells
        .iter()
        .map(|(key, sketch)| {
            json!({
                "kind": tag(&KINDS, &key.kind),
                "network": tag(&NETS, &key.network),
                "app": key.app.as_str(),
                "domain": key.domain.as_str(),
                "isp": key.isp.as_str(),
                "sketch": sketch_to_json(sketch),
            })
        })
        .collect();
    let devices: Vec<Value> = store
        .devices
        .iter()
        .map(|(&device, activity)| {
            json!({
                "device": i64::from(device),
                "count": activity.count as i64,
                "country": activity.country.as_str(),
            })
        })
        .collect();
    json!({ "cells": cells, "devices": devices })
}

fn store_from_json(value: &Value) -> Option<AggregateStore> {
    let mut store = AggregateStore::new();
    for cell in value["cells"].as_array()? {
        let key = AggregateKey {
            kind: untag(&KINDS, cell["kind"].as_str()?)?,
            network: untag(&NETS, cell["network"].as_str()?)?,
            app: cell["app"].as_str()?.to_string(),
            domain: cell["domain"].as_str()?.to_string(),
            isp: cell["isp"].as_str()?.to_string(),
        };
        store.cells.insert(key, sketch_from_json(&cell["sketch"])?);
    }
    for entry in value["devices"].as_array()? {
        let device = u32::try_from(entry["device"].as_i64()?).ok()?;
        let activity = DeviceActivity {
            count: entry["count"].as_u64()?,
            country: entry["country"].as_str()?.to_string(),
        };
        store.devices.insert(device, activity);
    }
    Some(store)
}

fn windows_to_json(w: &WindowedAggregateStore) -> Value {
    let epochs: Vec<Value> = w
        .live_epochs()
        .into_iter()
        .map(|epoch| {
            let store = w.epoch_store(epoch).unwrap();
            json!({ "epoch": epoch as i64, "store": store_to_json(store) })
        })
        .collect();
    json!({
        "width_ns": w.width_ns() as i64,
        "window": w.window_len() as i64,
        "max_epoch": w.max_epoch.map_or(Value::Null, |e| (e as i64).into()),
        "folded": store_to_json(w.folded()),
        "epochs": epochs,
    })
}

fn windows_from_json(value: &Value) -> Option<WindowedAggregateStore> {
    let width_ns = value["width_ns"].as_u64()?;
    let window = usize::try_from(value["window"].as_u64()?).ok()?;
    let mut store = WindowedAggregateStore::new(width_ns, window);
    store.max_epoch = match &value["max_epoch"] {
        Value::Null => None,
        v => Some(v.as_u64()?),
    };
    store.folded = store_from_json(&value["folded"])?;
    for entry in value["epochs"].as_array()? {
        let epoch = entry["epoch"].as_u64()?;
        let slot = (epoch % window.max(1) as u64) as usize;
        store.ring[slot] = Some((epoch, store_from_json(&entry["store"])?));
    }
    Some(store)
}

/// A windowed store over random cells: escaped, non-ASCII and empty labels,
/// epochs in and behind the window, devices with and without a country.
fn random_windows(rng: &mut TestRng) -> WindowedAggregateStore {
    const LABELS: [&str; 6] = ["", "com.whatsapp", "Jio 4G", "q\"uo\\te\n", "é😀", "\u{1}"];
    let label = |rng: &mut TestRng| LABELS[rng.usize_range(0, LABELS.len())];
    let mut w = WindowedAggregateStore::new(1 + rng.next_u64() % 1_000, rng.usize_range(1, 5));
    for _ in 0..rng.usize_range(0, 40) {
        w.observe_parts(
            rng.next_u64() % 10_000,
            KINDS[rng.usize_range(0, 2)].0,
            NETS[rng.usize_range(0, 4)].0,
            label(rng),
            label(rng),
            label(rng),
            rng.next_u64() as u32 % 6,
            label(rng),
            // Spans the under- and overflow buckets, so every index width
            // and all three hex fields vary.
            10f64.powf(rng.next_f64() * 12.0 - 5.0),
        );
    }
    w
}

#[test]
fn stores_render_as_the_tree_path_did() {
    let mut rng = TestRng::from_name("codec_model::render");
    for _ in 0..200 {
        let w = random_windows(&mut rng);
        let tree = windows_to_json(&w);
        assert_eq!(mop_json::to_string(&w), mop_json::to_string(&tree));
        assert_eq!(mop_json::to_string_pretty(&w), mop_json::to_string_pretty(&tree));
        assert!(mop_json::to_value(&w) == tree);
        let merged = w.merged();
        assert_eq!(mop_json::to_string(&merged), mop_json::to_string(&store_to_json(&merged)));
    }
}

#[test]
fn store_mutants_decode_exactly_when_the_tree_path_did() {
    // The smallest of a few stores with live epochs and a folded tail.
    let mut rng = TestRng::from_name("codec_model::mutants");
    let text = (0..50)
        .map(|_| random_windows(&mut rng))
        .filter(|w| w.live_epochs().len() > 1 && w.folded().cell_count() > 0)
        .map(|w| mop_json::to_string_pretty(&w))
        .min_by_key(String::len)
        .unwrap();
    let bytes = text.as_bytes();
    let (mut accepted, mut refused) = (0, 0);
    for i in 0..bytes.len() {
        let mut mutants = vec![bytes[..i].to_vec()];
        for replacement in [b'0', b'"', b'-', b'x'] {
            let mut replaced = bytes.to_vec();
            replaced[i] = replacement;
            mutants.push(replaced);
        }
        let mut deleted = bytes.to_vec();
        deleted.remove(i);
        mutants.push(deleted);
        for mutant in mutants.into_iter().filter_map(|m| String::from_utf8(m).ok()) {
            let model = mop_json::from_str(&mutant).ok().and_then(|v| windows_from_json(&v));
            match (model, mop_json::decode::<WindowedAggregateStore>(&mutant)) {
                (Some(model), Ok(ours)) => {
                    assert!(model == ours && model.digest() == ours.digest(), "{mutant:?}");
                    accepted += 1;
                }
                (None, Err(_)) => refused += 1,
                (model, ours) => panic!("model {model:?}, ours {ours:?} on {mutant:?}"),
            }
        }
    }
    assert!(accepted > 50 && refused > 1000, "{accepted} accepted, {refused} refused");
}
