#!/usr/bin/env bash
# API audit: every `pub fn` name declared in the non-test part of
# `crates/*/src` that no non-test code anywhere else names. Such a function
# is public API only tests call; it should be deleted (and its tests ported
# onto the API programs use), or narrowed to `pub(crate)` / `#[cfg(test)]`.
#
# "Non-test part" is a file's lines before its first column-0 `#[cfg(test)]`;
# comment lines are not callers. The callers searched are the non-test parts
# of `crates/*/src`, `src/`, `examples/`, `crates/*/benches` and
# `benchmark/src`, with every `fn NAME` declaration token removed first. The
# check is by name, so a function that shares its name with one that is
# called elsewhere is not listed.
#
# Prints each such name and the count; exits non-zero if the count exceeds
# CEILING. The names left are kept on purpose: reference implementations
# the equivalence tests compare against, and getters integration tests
# assert through (CHANGES.md lists them).
#
# Run from anywhere: scripts/api_audit.sh
set -u
cd "$(dirname "$0")/.."

CEILING=25

# The non-test, non-comment lines of the given files.
nontest() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"
    done | grep -v '^[[:space:]]*//'
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
