//! The layer probe ladder: fixed, workload-shaped inputs replayed through
//! inner layers' public functions, one wall-clock figure each.
//!
//! These reach below the surface `mopbench` is allowed to touch, which is
//! why they live in this binary only: an internal refactor may break a probe
//! (fix the probe, the headline numbers never noticed). Each probe reports
//! the fastest of a few batches (`stats.rs` says why); a probe that panics
//! reports `NaN`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mop_json::{json, Value};
use mop_measure::{AggregateStore, MeasurementKind, NetKind, WindowedAggregateStore};
use mop_packet::{Endpoint, FourTuple, PacketBuilder, PacketView, SackBlocks};
use mop_procnet::{ConnectionTable, LazyMapper, SocketStateCode};
use mop_server::{connect_unix, parse_request, result_frame, serve_unix, PlaneConfig, Server};
use mop_simnet::tap::TapKind;
use mop_simnet::{
    spsc_channel, CostModel, SchedulerKind, SimDuration, SimRng, SimTime, TapDirection,
    TimerScheduler, WireTap,
};
use mop_tcpstack::{CongestionAlgo, RecoveryState, TcpStateMachine};

use mopbench::stats::fastest;

/// The fastest of `batches` batches: mean nanoseconds per call of `f`.
fn ns_per_op(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    fastest(&samples)
}

fn flow(i: u32) -> FourTuple {
    let src = Endpoint::v4(
        10,
        (i >> 16) as u8,
        (i >> 8) as u8,
        i as u8,
        30_000 + (i % 1_000) as u16,
    );
    FourTuple::new(src, Endpoint::v4(216, 58, 221, 132, 443))
}

/// Deterministic offsets for the scheduler probes.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn json_frames(scale: usize) -> f64 {
    let line = r#"{"id":42,"method":"fleet.step","params":{"epochs":1}}"#;
    ns_per_op(5, 20_000 / scale, || {
        let request = parse_request(black_box(line)).expect("well-formed request");
        let result = json!({
            "cursor_epoch": 17,
            "ran": 31,
            "pending": 4_000,
            "digest": "3400ebb1c306960a"
        });
        black_box(result_frame(request.id, result));
    })
}

fn packet(out: &mut BTreeMap<&'static str, f64>, scale: usize) {
    let builder = PacketBuilder::new(flow(1).src, flow(1).dst);
    let syn = builder.tcp_syn(1_000).to_bytes();
    let data_packet = builder.tcp_data(1_001, 500, vec![0xab; 1_400]);
    let data = data_packet.to_bytes();
    let iters = 200_000 / scale;
    out.insert(
        "packet.view_parse_syn_ns",
        ns_per_op(5, iters, || {
            black_box(
                PacketView::parse(black_box(&syn))
                    .expect("valid SYN")
                    .four_tuple(),
            );
        }),
    );
    out.insert(
        "packet.view_parse_data_ns",
        ns_per_op(5, iters, || {
            let view = PacketView::parse(black_box(&data)).expect("valid segment");
            black_box((view.four_tuple(), view.tcp().expect("TCP").payload().len()));
        }),
    );
    let mut buffer = Vec::with_capacity(2_048);
    out.insert(
        "packet.encode_data_ns",
        ns_per_op(5, iters, || {
            buffer.clear();
            data_packet.encode_into(black_box(&mut buffer));
            black_box(buffer.len());
        }),
    );
}

fn tcpstack(out: &mut BTreeMap<&'static str, f64>, scale: usize) {
    let app = PacketBuilder::new(flow(1).src, flow(1).dst);
    let syn = app.tcp_syn(1_000).tcp().expect("TCP").clone();
    let data = app
        .tcp_data(1_001, 9_001, vec![1u8; 512])
        .tcp()
        .expect("TCP")
        .clone();
    out.insert(
        "tcpstack.handshake_ns",
        ns_per_op(5, 50_000 / scale, || {
            let mut machine = TcpStateMachine::new(flow(1), 9_000);
            machine.on_tunnel_segment(black_box(&syn));
            machine.on_external_connected();
            machine.on_tunnel_segment(black_box(&data));
            machine.on_external_write_complete();
        }),
    );
    let mut machine = TcpStateMachine::new(flow(1), 9_000);
    machine.on_tunnel_segment(&syn);
    machine.on_external_connected();
    machine.on_tunnel_segment(&data);
    let body = vec![0x5a; 64 * 1024];
    out.insert(
        "tcpstack.segment_64k_ns",
        ns_per_op(5, 2_000 / scale, || {
            black_box(machine.on_external_data(black_box(&body)));
        }),
    );

    // One 64-segment window: sent, three SACK-bearing duplicate ACKs around
    // a hole at the front (the third triggers fast retransmit), then the
    // cumulative ACK. Reported per segment of the window.
    const WINDOW: u32 = 64;
    const MSS: u32 = 1_400;
    let payload = vec![0x5a; MSS as usize];
    let per_window = ns_per_op(5, 2_000 / scale, || {
        let mut recovery = RecoveryState::new(CongestionAlgo::Reno, Some(20_000_000));
        let base = 5_000u32;
        for i in 0..WINDOW {
            recovery.on_data_sent(base + i * MSS, &payload, u64::from(i) * 1_000);
        }
        for dup in 1..=3u32 {
            let sack = SackBlocks::new(&[(base + MSS, base + (1 + dup * 8) * MSS)]);
            black_box(recovery.on_ack(base, Some(sack), 1_000_000 + u64::from(dup)));
        }
        black_box(recovery.on_ack(base + WINDOW * MSS, None, 2_000_000));
    });
    out.insert("tcpstack.recovery_ack_ns", per_window / f64::from(WINDOW));
}

fn wheel(out: &mut BTreeMap<&'static str, f64>, scale: usize) {
    const PENDING: u64 = 16_384;
    let prefill = || {
        let mut wheel: TimerScheduler<u64> =
            TimerScheduler::new(SchedulerKind::Wheel, SimDuration::from_nanos(1_024));
        let mut offsets = XorShift(0x9e37_79b9_7f4a_7c15);
        for i in 0..PENDING {
            wheel.schedule(SimTime::from_nanos(offsets.next() % 100_000_000), i);
        }
        (wheel, offsets)
    };
    let (mut hold, mut offsets) = prefill();
    out.insert(
        "simnet.wheel_hold_ns",
        ns_per_op(5, 100_000 / scale, || {
            let (at, event) = hold.pop().expect("occupancy holds steady");
            hold.schedule(
                at + SimDuration::from_nanos(offsets.next() % 10_000_000),
                event,
            );
        }),
    );
    let (mut churn, mut offsets) = prefill();
    let now = churn.peek_time().unwrap_or(SimTime::ZERO);
    out.insert(
        "simnet.wheel_cancel_ns",
        ns_per_op(5, 100_000 / scale, || {
            let at = now + SimDuration::from_nanos(offsets.next() % 10_000_000);
            let handle = churn.schedule(at, 1);
            black_box(churn.cancel(handle));
        }),
    );
}

/// `WireTap::handshake_rtt` against a capture of `records` records — what
/// the relay pays per connect once that many packets have been tapped.
fn tap_rtt(records: u32, scale: usize) -> f64 {
    let flows = records / 2;
    let mut tap = WireTap::new();
    for i in 0..flows {
        let at = SimTime::from_nanos(u64::from(i) * 10_000);
        tap.record(at, TapDirection::Outbound, TapKind::Syn, flow(i));
        tap.record(
            at + SimDuration::from_millis(8),
            TapDirection::Inbound,
            TapKind::SynAck,
            flow(i),
        );
    }
    let mut next = 0u32;
    ns_per_op(5, (4_000 / scale).max(50), || {
        // Stride through the capture so the mean scan depth is half of it.
        next = (next + 7_919) % flows;
        black_box(tap.handshake_rtt(flow(next)));
    })
}

/// `LazyMapper::map` with `entries` connections in the table while every
/// call follows a fresh registration (the table generation moves each
/// time, as under connect churn).
fn lazy_map(entries: u32, scale: usize) -> f64 {
    let mut table = ConnectionTable::new();
    for i in 0..entries {
        table.register(flow(i), true, 10_000 + i % 7, SocketStateCode::Established);
    }
    let mut mapper = LazyMapper::new();
    let cost = CostModel::android_phone();
    let mut rng = SimRng::seed_from_u64(2017);
    let mut next = entries;
    ns_per_op(5, (400 / scale).max(10), || {
        let new_flow = flow(next);
        table.register(new_flow, true, 10_100, SocketStateCode::Established);
        // Far enough apart that no earlier parse is still in flight.
        let now = SimTime::from_nanos(u64::from(next) * 60_000_000_000);
        black_box(mapper.map(&table, &cost, &mut rng, new_flow, now, now));
        next += 1;
    })
}

/// One message there and one back over two SPSC rings between two threads.
fn spsc_round_trip(scale: usize) -> f64 {
    let (to_echo, echo_in) = spsc_channel::<u64>(64);
    let (echo_out, from_echo) = spsc_channel::<u64>(64);
    let echo = std::thread::spawn(move || {
        while let Some(value) = echo_in.recv() {
            if echo_out.send(value).is_err() {
                break;
            }
        }
    });
    let ns = ns_per_op(5, 20_000 / scale, || {
        to_echo.send(1).expect("echo thread is alive");
        black_box(from_echo.recv());
    });
    drop(to_echo);
    echo.join().expect("echo thread exits when its ring closes");
    ns
}

fn measure(out: &mut BTreeMap<&'static str, f64>, scale: usize) {
    // The fleet shape: ~120 cells (40 apps × networks × ISPs).
    let apps: Vec<String> = (0..40).map(|i| format!("com.fleet.app{i:02}")).collect();
    let isps = ["HomeWiFi", "SimTel LTE", "SimTel 3G"];
    let observe = |store: &mut AggregateStore, i: usize| {
        let network = if i.is_multiple_of(3) {
            NetKind::Wifi
        } else {
            NetKind::Lte
        };
        store.observe_parts(
            MeasurementKind::Tcp,
            network,
            &apps[i % 40],
            "www.google.com",
            isps[i % 3],
            (i % 64) as u32,
            "",
            20.0 + (i % 499) as f64 * 0.7,
        );
    };
    let mut store = AggregateStore::new();
    let mut i = 0usize;
    out.insert(
        "measure.observe_ns",
        ns_per_op(5, 100_000 / scale, || {
            observe(&mut store, i);
            i += 1;
        }),
    );
    let mut windows = WindowedAggregateStore::new(25_000_000, 32);
    let mut i = 0usize;
    out.insert(
        "measure.window_observe_ns",
        ns_per_op(5, 100_000 / scale, || {
            // 100 µs apart: a new 25 ms epoch every 250 samples.
            windows.observe_parts(
                i as u64 * 100_000,
                MeasurementKind::Tcp,
                if i.is_multiple_of(3) {
                    NetKind::Wifi
                } else {
                    NetKind::Lte
                },
                &apps[i % 40],
                "www.google.com",
                isps[i % 3],
                (i % 64) as u32,
                "",
                20.0 + (i % 499) as f64 * 0.7,
            );
            i += 1;
        }),
    );
    let cells = store.cell_count().max(1) as f64;
    out.insert(
        "measure.merge_ns_per_cell",
        ns_per_op(5, 2_000 / scale, || {
            let mut target = AggregateStore::new();
            target.merge_from(black_box(&store));
            black_box(target.cell_count());
        }) / cells,
    );
}

fn request(id: u64, method: &str, params: Value) -> String {
    mop_json::to_string(&json!({ "id": id, "method": method, "params": params }))
}

/// The server layer without the fleet loop around it: scenario injection,
/// an in-process `server.info` against drained state, and the same query
/// over a Unix socket (the difference is transport).
fn server(out: &mut BTreeMap<&'static str, f64>, scratch: &Path, smoke: bool, scale: usize) {
    let users = if smoke { 10 } else { 200 };
    let config = PlaneConfig {
        shards: 1,
        ..PlaneConfig::default()
    };
    let inject = request(
        1,
        "scenario.inject",
        json!({ "scenario": "rush-hour", "users": users }),
    );
    let info = request(2, "server.info", Value::Null);

    let inject_ms: Vec<f64> = (0..5)
        .map(|_| {
            let mut server = Server::new(config);
            let started = Instant::now();
            black_box(server.handle_line(&inject));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("server.inject_ms", fastest(&inject_ms));

    let mut local = Server::new(config);
    local.handle_line(&inject);
    local.handle_line(&request(3, "fleet.step", Value::Null));
    let handle_us = ns_per_op(5, 400 / scale, || {
        black_box(local.handle_line(&info));
    }) / 1e3;
    out.insert("server.handle_line_us", handle_us);

    let socket = scratch.join(format!("probe-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    let thread = {
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(&mut Server::new(config), &socket))
    };
    let rtt_us = match connect_unix(&socket) {
        Ok(mut client) => {
            client
                .call(
                    "scenario.inject",
                    json!({ "scenario": "rush-hour", "users": users }),
                )
                .ok();
            client.call("fleet.step", Value::Null).ok();
            let rtt = ns_per_op(5, 400 / scale, || {
                black_box(client.call("server.info", Value::Null).ok());
            }) / 1e3;
            client.call("server.shutdown", Value::Null).ok();
            rtt
        }
        Err(_) => f64::NAN,
    };
    // `connect_unix` only gives up once the server thread is gone, and a
    // connected session ended with `server.shutdown`: either way it joins.
    thread.join().ok();
    std::fs::remove_file(&socket).ok();
    out.insert("server.transport_us", rtt_us - handle_us);
}

/// Serialise and parse throughput on the workload's own checkpoint
/// document (MB/s of JSON text).
pub fn json_codec(text: &str, out: &mut BTreeMap<&'static str, f64>) {
    let megabytes = text.len() as f64 / 1e6;
    let reps = if text.len() > 1_000_000 { 5 } else { 20 };
    let parse_s = ns_per_op(3, reps, || {
        black_box(mop_json::from_str(black_box(text)).is_ok());
    }) / 1e9;
    out.insert("json.from_str_mb_per_s", megabytes / parse_s);
    if let Ok(doc) = mop_json::from_str(text) {
        let print_s = ns_per_op(3, reps, || {
            black_box(mop_json::to_string_pretty(black_box(&doc)).len());
        }) / 1e9;
        out.insert("json.to_string_mb_per_s", megabytes / print_s);
    }
}

/// Runs the ladder. `smoke` divides the iteration counts by ten.
pub fn run(scratch: &Path, smoke: bool) -> BTreeMap<&'static str, f64> {
    let scale = if smoke { 10 } else { 1 };
    let mut out = BTreeMap::new();
    let mut guarded =
        |names: &[&'static str], probe: &mut dyn FnMut(&mut BTreeMap<&'static str, f64>)| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut found = BTreeMap::new();
                probe(&mut found);
                found
            }));
            match caught {
                Ok(found) => out.extend(found),
                Err(_) => out.extend(names.iter().map(|&name| (name, f64::NAN))),
            }
        };
    guarded(&["json.frame_roundtrip_ns"], &mut |o| {
        o.insert("json.frame_roundtrip_ns", json_frames(scale));
    });
    guarded(
        &[
            "packet.view_parse_syn_ns",
            "packet.view_parse_data_ns",
            "packet.encode_data_ns",
        ],
        &mut |o| packet(o, scale),
    );
    guarded(
        &[
            "tcpstack.handshake_ns",
            "tcpstack.segment_64k_ns",
            "tcpstack.recovery_ack_ns",
        ],
        &mut |o| tcpstack(o, scale),
    );
    guarded(
        &["simnet.wheel_hold_ns", "simnet.wheel_cancel_ns"],
        &mut |o| wheel(o, scale),
    );
    guarded(
        &["simnet.tap_rtt_ns_1k", "simnet.tap_rtt_ns_16k"],
        &mut |o| {
            o.insert("simnet.tap_rtt_ns_1k", tap_rtt(1_024, scale));
            o.insert("simnet.tap_rtt_ns_16k", tap_rtt(16_384, scale));
        },
    );
    guarded(
        &["procnet.lazy_map_ns_1k", "procnet.lazy_map_ns_16k"],
        &mut |o| {
            o.insert("procnet.lazy_map_ns_1k", lazy_map(1_024, scale));
            o.insert("procnet.lazy_map_ns_16k", lazy_map(16_384, scale));
        },
    );
    guarded(&["simnet.spsc_msg_ns"], &mut |o| {
        o.insert("simnet.spsc_msg_ns", spsc_round_trip(scale));
    });
    guarded(
        &[
            "measure.observe_ns",
            "measure.window_observe_ns",
            "measure.merge_ns_per_cell",
        ],
        &mut |o| measure(o, scale),
    );
    guarded(
        &[
            "server.inject_ms",
            "server.handle_line_us",
            "server.transport_us",
        ],
        &mut |o| server(o, scratch, smoke, scale),
    );
    out
}
