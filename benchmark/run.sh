#!/usr/bin/env bash
# mopbench — the single command named in BENCHMARK.json.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One workload, one process (the driver's form). Builds on first use,
#       prints the metric table and, as the last line of stdout, the result
#       object. --trace 0 runs `mopbench` (end-to-end metrics), --trace 1 runs
#       `mopbench-trace` (per-layer metrics).
#
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--out <dir>] [--smoke] [--trace <0|1>]
#       Everything: the four workloads one process each, then the traced pass,
#       then one collected document, <out>/mopbench.json. With --trace 0 only
#       the end-to-end pass runs, with --trace 1 only the traced pass.
#
# Everything is read and written under the repository root; a checkout that
# lacks ../crates fails in `cargo build` and exits non-zero with no result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the driver's .bench_build) is relative to the
# caller's directory; pin it before changing directory.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
  CARGO_TARGET_DIR="$(realpath -m "$CARGO_TARGET_DIR")"
  export CARGO_TARGET_DIR
fi
# Run from the repository root so scratch paths stay short and relative (a
# Unix socket path is limited to ~108 bytes).
cd "$here/.."
bin="${CARGO_TARGET_DIR:-benchmark/target}/release"

workload="" trace="" out="benchmark/out"
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) workload="${args[i + 1]:-}" ;;
    --trace) trace="${args[i + 1]:-}" ;;
    --out) out="${args[i + 1]:-}" ;;
  esac
done

build() { cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin "$1" 1>&2; }

MOPBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
MOPBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export MOPBENCH_RUSTC MOPBENCH_COMMIT

if [[ -n "$workload" ]]; then
  # Both binaries are built on the first call in a checkout, whichever pass it
  # asks for, so no later run pays for a build. A traced binary that no longer
  # compiles (an internal refactor broke a probe) must not stop the
  # end-to-end pass. Every path out of this branch leaves the script: a failed
  # build exits non-zero with no result line.
  build mopbench || exit 1
  case "${trace:-0}" in
    0) build mopbench-trace || true; exec "$bin/mopbench" "$@" ;;
    1) build mopbench-trace || exit 1; exec "$bin/mopbench-trace" "$@" ;;
    *) echo "--trace must be 0 or 1, got '$trace'" >&2; exit 2 ;;
  esac
  exit 1
fi

# ----- the whole suite ------------------------------------------------------
build mopbench
traced=1
build mopbench-trace || { traced=0; echo "warning: mopbench-trace does not build; per-layer metrics will be missing" >&2; }
status=0
if [[ "$trace" != 1 ]]; then
  for w in rush_hour bulk_lossy serve_steps day_ckpt; do
    "$bin/mopbench" --workload "$w" "$@" | sed '$d' || status=1
    echo
  done
fi
if ((traced)) && [[ "$trace" != 0 ]]; then
  for w in rush_hour bulk_lossy serve_steps day_ckpt; do
    "$bin/mopbench-trace" --workload "$w" "$@" | sed '$d' || status=1
    echo
  done
fi
"$bin/mopbench" collect "$out" || status=1
exit "$status"
