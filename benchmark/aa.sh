#!/usr/bin/env bash
# A/A check of one commit against itself: three full end-to-end sets per side,
# taken alternately (a1 b1 a2 b2 a3 b3) so host drift lands on both sides,
# plus one traced pass per side for the modelled figures. The medians of
# each end-to-end metric must agree within the metric's own bound (either way),
# and every `clock: modelled` figure and every digest exactly, in every set.
# Exits non-zero on disagreement.
#
#   bash benchmark/aa.sh [--seed <n>] [--seconds <s>] [--smoke]
#
# This is the `diff a.json b.json` the roadmap asks for; `mopbench diff` also
# compares any two (lists of) collected documents from one host and seed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
  CARGO_TARGET_DIR="$(realpath -m "$CARGO_TARGET_DIR")"
  export CARGO_TARGET_DIR
fi
cd "$here/.."

out="benchmark/out"
a=() b=()
for i in 1 2 3; do
  for side in a b; do
    dir="$out/aa-$side$i"
    rm -rf "$dir"
    # The first set of each side also carries the traced pass.
    if ((i == 1)); then
      bash benchmark/run.sh "$@" --out "$dir"
    else
      bash benchmark/run.sh "$@" --trace 0 --out "$dir"
    fi
    if [[ $side == a ]]; then a+=("$dir/mopbench.json"); else b+=("$dir/mopbench.json"); fi
  done
done
join() { local IFS=,; echo "$*"; }
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/mopbench" diff "$(join "${a[@]}")" "$(join "${b[@]}")"
