# Prints the non-test part of Rust source files: each file up to the first
# column-0 `#[cfg(test)]` whose next line opens an inline `mod NAME {` (the
# file's test module). A `#[cfg(test)]` on anything else, such as a `use`,
# a `mod NAME;` or a function, cuts nothing: the file goes on past it. With
# `-v where=1` each line is prefixed with `FILE:LINE: `.
#
# Usage: awk [-v where=1] -f scripts/nontest.awk FILE...
function emit(line, n) {
    print (where ? FILENAME ":" n ": " : "") line
}
FNR == 1 { cut = 0; held = "" }
cut { next }
held != "" && /^(pub(\([^)]*\))? )?mod [A-Za-z_][A-Za-z0-9_]* *\{/ { cut = 1; next }
held != "" { emit(held, FNR - 1); held = "" }
/^#\[cfg\(test\)\]/ { held = $0; next }
{ emit($0, FNR) }
