//! Regression test: the steady-state relay loop is allocation-free.
//!
//! The paper's Table 3 workload is the relay's steady state: the app streams
//! ACKs into the tunnel while the relay segments server data back out. Per
//! packet that means (a) reading the raw bytes into a pooled buffer, (b)
//! parsing them with the zero-copy views, (c) running the TCP state machine's
//! relay decision (pure ACKs are discarded, §2.3), and (d) encoding the next
//! data segment towards the app into a reused buffer. After warm-up, none of
//! those steps may touch the allocator — that is the contract the pooled
//! zero-copy datapath exists to provide, and this test pins it for the
//! component loop, through the same sink-style machine call the engine's
//! relay stage makes. (`zero_alloc_engine.rs` holds the whole engine to a
//! per-flow allocation budget; this loop is the part that must be exactly
//! zero.)
//!
//! This file intentionally contains a single test: the counting allocator is
//! process-global, so a concurrently running test would pollute the window.

use mop_bench::alloc_counter::CountingAllocator;
use mop_packet::{Endpoint, FourTuple, Packet, PacketBuilder, PacketView};
use mop_simnet::BufferPool;
use mop_tcpstack::{RelayAction, SegmentVerdict, TcpStateMachine};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn flow() -> FourTuple {
    FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443))
}

/// The relay stage's two machine-output buffers, owned by the caller.
#[derive(Default)]
struct Emitted {
    packets: Vec<Packet>,
    actions: Vec<RelayAction>,
}

/// One steady-state round: TUN read into a pooled buffer, zero-copy parse,
/// relay decision, and encoding the next outbound data segment into a reused
/// buffer. Returns the verdict so the test can assert the path taken.
fn relay_round(
    pool: &mut BufferPool,
    machine: &mut TcpStateMachine,
    emitted: &mut Emitted,
    ack_bytes: &[u8],
    data_packet: &Packet,
    out: &mut Vec<u8>,
) -> SegmentVerdict {
    let mut buf = pool.get();
    buf.extend_from_slice(ack_bytes);
    let view = PacketView::parse(&buf).expect("app ACK parses");
    let segment = view.tcp().expect("TCP packet");
    let verdict =
        machine.on_segment_into(segment.into(), &mut emitted.packets, &mut emitted.actions);
    assert!(emitted.packets.is_empty() && emitted.actions.is_empty(), "pure ACKs are discarded");
    out.clear();
    data_packet.encode_into(out);
    pool.put(buf);
    verdict
}

#[test]
fn steady_state_relay_loop_performs_zero_allocations_per_packet() {
    let app = PacketBuilder::new(flow().src, flow().dst);
    let relay = PacketBuilder::new(flow().dst, flow().src);

    // Establish the connection the way the engine does: app SYN, external
    // connect completes, app ACKs the SYN/ACK.
    let mut machine = TcpStateMachine::new(flow(), 9000);
    let syn = app.tcp_syn(1000);
    machine.on_tunnel_segment(syn.tcp().unwrap());
    machine.on_external_connected();

    // The steady-state inputs: a pure ACK from the app (what a download
    // stream sends through the tunnel) and the relay's next MSS-sized data
    // segment towards the app.
    let ack_bytes = app.tcp_ack(1001, 9001).to_bytes();
    let data_packet = relay.tcp_data(9001, 1001, vec![0x5a; 1400]);

    let mut pool = BufferPool::for_packets();
    let mut emitted = Emitted::default();
    let mut out = Vec::with_capacity(2048);

    // Warm up: first rounds may allocate (pool cold, buffers growing, state
    // transition to Established).
    for _ in 0..16 {
        relay_round(&mut pool, &mut machine, &mut emitted, &ack_bytes, &data_packet, &mut out);
    }

    // Measure: thousands of packets, zero allocations. The counting
    // allocator is process-global, so a one-shot lazy init on the harness's
    // main thread can race into a window; such noise never repeats, so a
    // dirty window gets retried — a real per-packet allocation fails every
    // window.
    const PACKETS: u64 = 10_000;
    const WINDOWS: usize = 3;
    let (mut allocs, mut deallocs) = (u64::MAX, u64::MAX);
    for _ in 0..WINDOWS {
        let allocs_before = ALLOC.allocations();
        let deallocs_before = ALLOC.deallocations();
        for _ in 0..PACKETS {
            let verdict = relay_round(
                &mut pool,
                &mut machine,
                &mut emitted,
                &ack_bytes,
                &data_packet,
                &mut out,
            );
            assert!(matches!(verdict, SegmentVerdict::PureAckDiscarded));
        }
        allocs = ALLOC.allocations() - allocs_before;
        deallocs = ALLOC.deallocations() - deallocs_before;
        if allocs == 0 && deallocs == 0 {
            break;
        }
    }
    assert_eq!(
        allocs, 0,
        "steady-state relay loop allocated {allocs} times over {PACKETS} packets"
    );
    assert_eq!(
        deallocs, 0,
        "steady-state relay loop freed {deallocs} times over {PACKETS} packets"
    );
    assert!(std::hint::black_box(&out).len() >= 1400);
}
