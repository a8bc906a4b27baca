#!/usr/bin/env bash
# API audit, by name: every `pub fn` name declared in the non-test part of
# `crates/*/src` that no non-test code anywhere else names. Such a function
# is public API that only tests call; it should be deleted (and its tests
# ported onto the API programs use), or narrowed to `pub(crate)` /
# `#[cfg(test)]`.
#
# What covers what:
# * A crate-internal function (`pub(crate)` or private) that only tests call
#   is caught by the compiler: `cargo clippy --workspace --all-targets -- -D
#   warnings` checks each lib in its non-test configuration, where such a
#   function is dead code. Shape guard 19 keeps that check from being
#   silenced with `allow(dead_code)` / `allow(unused`.
# * A `pub fn` is never dead code to the compiler. This script is what
#   catches one that no other crate's program calls: it lists the `pub fn`
#   names that no non-test code names anywhere.
#
# "Non-test part" is what `scripts/nontest.awk` prints: a file's lines
# before the column-0 `#[cfg(test)]` that opens its inline test module (a
# `#[cfg(test)]` on a `use` or a `mod NAME;` cuts nothing); comment lines
# are not callers. The callers searched are the non-test parts
# of `crates/*/src`, `src/`, `examples/`, `crates/*/benches` and
# `benchmark/src`, with every `fn NAME` declaration token removed first. The
# check is by name, so a function that shares its name with one that is
# called elsewhere is not listed.
#
# Prints each such name and the count; exits non-zero if the count exceeds
# CEILING. The names left are kept on purpose: another crate's tests call
# them (getters integration tests assert through, and helpers other crates'
# unit tests use), and CHANGES.md lists them.
#
# Run from anywhere: scripts/api_audit.sh
set -u
cd "$(dirname "$0")/.."

CEILING=9

# The non-test, non-comment lines of the given files.
nontest() {
    awk -f scripts/nontest.awk "$@" | grep -v '^[[:space:]]*//'
}

declared=$(nontest $(find crates/*/src -name '*.rs' | sort) \
    | grep -oE '\bpub fn [A-Za-z_][A-Za-z0-9_]*' | awk '{ print $3 }' | sort -u)
named=$(nontest $(find crates/*/src src examples crates/*/benches benchmark/src -name '*.rs' 2>/dev/null | sort) \
    | sed -E 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' \
    | grep -oE '\b[A-Za-z_][A-Za-z0-9_]*\b' | sort -u)
unused=$(comm -23 <(printf '%s\n' "$declared") <(printf '%s\n' "$named"))

count=0
if [ -n "$unused" ]; then
    printf '%s\n' "$unused"
    count=$(printf '%s\n' "$unused" | wc -l)
fi
echo "$count pub fn name(s) with no caller outside tests (ceiling $CEILING)"
if [ "$count" -gt "$CEILING" ]; then
    echo "api audit: $count exceeds the ceiling of $CEILING" >&2
    exit 1
fi
