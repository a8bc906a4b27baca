//! Regression test: the *batched* relay datapath is allocation-free.
//!
//! `tests/zero_alloc.rs` pins the item-wise steady state; this file pins the
//! vectored one. Per burst that means (a) checking a `SlabBatch` out of the
//! `BatchPool` arena, (b) sealing a batch of app ACKs into the slab's contiguous
//! data region with inline per-packet slots, (c) zero-copy parsing each
//! packet straight out of the slab and running the TCP relay decision, and
//! (d) returning the slab to the pool. After warm-up (slab data region and
//! slot vector grown to the burst's working set), none of those steps may
//! touch the allocator — batching must amortise dispatch, not hide a per
//! packet allocation.
//!
//! This file intentionally contains a single test: the counting allocator is
//! process-global, so a concurrently running test would pollute the window.

use mop_bench::alloc_counter::CountingAllocator;
use mop_packet::{Endpoint, FourTuple, Packet, PacketBuilder, PacketView};
use mop_simnet::{BatchPool, SimTime};
use mop_tcpstack::{RelayAction, SegmentVerdict, TcpStateMachine};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn flow() -> FourTuple {
    FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443))
}

const BURST: usize = 32;

/// The relay stage's two machine-output buffers, owned by the caller.
#[derive(Default)]
struct Emitted {
    packets: Vec<Packet>,
    actions: Vec<RelayAction>,
}

/// One steady-state burst: seal `BURST` app ACKs into a pooled slab, parse
/// and relay-decide each packet out of the slab (the sink-style machine call
/// the engine's relay stage makes), recycle the slab.
fn relay_burst(
    pool: &mut BatchPool,
    machine: &mut TcpStateMachine,
    emitted: &mut Emitted,
    ack_bytes: &[u8],
) {
    let slab = pool.get();
    for i in 0..BURST {
        pool[slab].push_bytes(ack_bytes, SimTime::from_nanos(i as u64));
    }
    for (_due, bytes) in pool[slab].iter() {
        let view = PacketView::parse(bytes).expect("app ACK parses");
        let segment = view.tcp().expect("TCP packet");
        let verdict =
            machine.on_segment_into(segment.into(), &mut emitted.packets, &mut emitted.actions);
        assert!(
            emitted.packets.is_empty() && emitted.actions.is_empty(),
            "pure ACKs are discarded"
        );
        assert!(matches!(verdict, SegmentVerdict::PureAckDiscarded));
    }
    pool.put(slab);
}

#[test]
fn batched_relay_loop_performs_zero_allocations_per_burst() {
    let app = PacketBuilder::new(flow().src, flow().dst);

    // Establish the connection the way the engine does: app SYN, external
    // connect completes, then the app streams pure ACKs.
    let mut machine = TcpStateMachine::new(flow(), 9000);
    let syn = app.tcp_syn(1000);
    machine.on_tunnel_segment(syn.tcp().unwrap());
    machine.on_external_connected();
    let ack_bytes = app.tcp_ack(1001, 9001).to_bytes();

    let mut pool = BatchPool::for_packets(BURST);
    let mut emitted = Emitted::default();

    // Warm up: first bursts may allocate (pool cold, slab data region and
    // slot vector growing to the burst's working set).
    for _ in 0..16 {
        relay_burst(&mut pool, &mut machine, &mut emitted, &ack_bytes);
    }

    // Measure: hundreds of bursts — thousands of packets — zero allocations.
    // The counting allocator is process-global, so a one-shot lazy init on
    // the harness's main thread can race into a window; such noise never
    // repeats, so a dirty window gets retried — a real per-packet allocation
    // fails every window.
    const BURSTS: u64 = 500;
    const WINDOWS: usize = 3;
    let (mut allocs, mut deallocs) = (u64::MAX, u64::MAX);
    for _ in 0..WINDOWS {
        let allocs_before = ALLOC.allocations();
        let deallocs_before = ALLOC.deallocations();
        for _ in 0..BURSTS {
            relay_burst(&mut pool, &mut machine, &mut emitted, &ack_bytes);
        }
        allocs = ALLOC.allocations() - allocs_before;
        deallocs = ALLOC.deallocations() - deallocs_before;
        if allocs == 0 && deallocs == 0 {
            break;
        }
    }
    assert_eq!(
        allocs,
        0,
        "batched relay loop allocated {allocs} times over {} packets",
        BURSTS * BURST as u64
    );
    assert_eq!(
        deallocs,
        0,
        "batched relay loop freed {deallocs} times over {} packets",
        BURSTS * BURST as u64
    );
}
