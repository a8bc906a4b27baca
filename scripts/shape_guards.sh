#!/usr/bin/env bash
# Shape guards: facts about the source's shape that no test can observe,
# each pinning a structure a past change removed so that it cannot come
# back unnoticed. Every guard is checked on its own and every broken guard
# is reported; the script exits non-zero if any is broken.
#
# Run from anywhere: scripts/shape_guards.sh
set -u
self="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
cd "$(dirname "$0")/.."

broken=0
fail() {
    echo "shape guard broken: $1" >&2
    broken=$((broken + 1))
}

# Forbids a second keying switch, a scheduler selector, shard pinning or a
# credit-depth knob: knobs that only tests used (PR 17).
! grep -rnE 'EngineDiscipline|with_scheduler|with_pinning|with_credits|fleet_shard\(|mod affinity' crates src tests examples || fail "knobs that only tests use"

# Requires the engine's compile-time check that an event stays handle-sized,
# at most 16 bytes (PR 20).
grep -q 'assert!(std::mem::size_of::<Event>() <= 16)' crates/core/src/engine.rs || fail "handle-sized events"

# Forbids sorting inside `fleet_digest`: the digest folds a multiset (PR 22).
! awk '/pub fn fleet_digest/,/^    }$/' crates/core/src/shard.rs | grep -n sort || fail "fleet_digest sorts"

# Forbids re-splitting every pending flow in a served step (PR 25).
! awk '/pub fn step_with_delta/,/^    }$/' crates/server/src/plane.rs | grep -n 'split_at' || fail "step re-splits the pending flows"

# Forbids a by-tuple table in the engine's stages: one connection record (PR 15).
! grep -rnE 'HashMap<\s*FourTuple' crates/core/src/stages || fail "by-tuple table in the stages"

# Forbids a string-keyed cost ledger: the ledger stays enum-indexed (PR 16).
! grep -n 'BTreeMap<String' crates/simnet/src/cost.rs || fail "string-keyed cost ledger"

# Forbids a hashed socket table: the socket table stays dense (PR 16).
! grep -n 'HashMap<u64' crates/simnet/src/socket.rs || fail "hashed socket table"

# Forbids a per-packet capture vector in the wire tap (PR 26).
! grep -n 'Vec<TapRecord>' crates/simnet/src/tap.rs || fail "wire tap keeps packet records"

# Forbids a raw delay vector in the tunnel writer: Table 1 histograms only (PR 26).
! grep -n 'Vec<f64>' crates/core/src/tun_writer.rs || fail "tunnel writer keeps raw delays"

# Forbids a `[features]` table in any manifest: one build configuration (PR 23).
! grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml || fail "a manifest declares a feature"

# Forbids feature forks and wall-clock reads in the engine's crates (PR 23).
! grep -rn 'cfg(feature\|cfg!(feature\|Instant' crates/{simnet,core,server,tcpstack}/src || fail "feature fork or wall clock in the engine"

# Forbids a JSON tree builder in the checkpoint module: checkpoints stream (PR 19).
! grep -nE 'json!|Value::Object' crates/core/src/checkpoint.rs || fail "checkpoint module builds a JSON tree"

# Forbids re-sorting the cumulative report in a served step (PR 24).
! awk '/pub fn step_with_delta/,/^    }$/' crates/server/src/plane.rs | grep -n 'cumulative.canonicalise' || fail "step re-sorts the cumulative report"

# Forbids a credit gate, a deep job ring or burst messages on the fleet's
# hand-off: one job per worker per run (CHANGES.md, "One job per shard per
# run").
! grep -rnE 'CreditGate|INGRESS_CAPACITY|ShardJob::Burst' crates src tests examples || fail "one job per worker per run"

# Forbids slab batching, the burst knobs and a queueing TUN device: one
# tunnel packet per event (CHANGES.md, "One tunnel packet per event").
! grep -rnE 'SlabBatch|BatchPool|ProcessTunBatch|with_batch_size|WorkerModel|TunDevice' crates src tests examples || fail "one tunnel packet per event"

# Forbids a map behind the RTT sketch: its buckets are one sorted run, and
# only its tests may build a map to compare with (CHANGES.md, "Flat RTT
# sketches").
! awk '/^mod tests/ { exit } { print }' crates/measure/src/sketch.rs | grep -n 'BTreeMap' || fail "a map behind the RTT sketch"

# Forbids sizing the connection table by a run's flow list: records are
# reused once their flows finish, so the table follows the flows open at
# once (CHANGES.md, "Finished flows leave the engine").
! grep -rnE 'reserve_flows|conns\.reserve\(' crates/core/src || fail "connection table sized by the run's flows"

# Forbids the write-only selector, the wheel snapshot nothing took and the
# tcpdump shim nothing ran: public API that only tests called
# (CHANGES.md, "One public API per operation").
! grep -rnE 'struct (Selector|WheelSnapshot|TcpdumpReference)\b' crates src tests examples || fail "API that only tests call"

# Forbids silencing the compiler's dead-code audit in library code: with
# every crate-internal function checked by clippy's non-test build, one that
# only tests call must fail the lint, not be allowed (CHANGES.md, "Let the
# compiler audit the API").
! for f in $(find crates/*/src -name '*.rs' | sort); do awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"; done | grep -E '(allow|expect)\((dead_code|unused)' || fail "dead-code lint silenced in library code"

# Forbids byte-vector values in the app endpoint's reassembly map: an
# out-of-order segment is kept as its length, not a copy of its payload
# (CHANGES.md, "Tunnel bytes in flight cost their own size").
! grep -n 'BTreeMap<u32, Vec<u8>>' crates/tun/src/apps.rs || fail "app reassembly keeps payload copies"

# Forbids the segment payload pool anywhere in the crates, and a byte-vector
# payload field in the TCP segment or the sender scoreboard: a TCP payload
# is its length (CHANGES.md, "Server bytes are counted, not copied").
! { grep -rn 'SegmentPool' crates/*/src; grep -nE '^\s*(pub )?\w+: Vec<u8>,' crates/packet/src/tcp.rs crates/tcpstack/src/recovery.rs; } | grep . || fail "a TCP payload is kept as bytes"

if [ "$broken" -ne 0 ]; then
    echo "$broken shape guard(s) broken" >&2
    exit 1
fi
# Each guard is one line ending in a `fail` call; this pattern cannot match
# itself.
guards=$(grep -cE '\|\| fail "' "$self")
echo "all $guards shape guards hold"
