#!/bin/bash
# Non-test lines per crate and in total: the one line count CHANGES.md and
# ROADMAP.md quote. It reads every .rs file under crates/*/src and the
# facade's src/. A file counts up to the `#[cfg(test)]` that opens its
# first inline test module (`mod tests { … }`); a file that is itself a
# `#[cfg(test)] mod name;` of its parent counts zero. A `#[cfg(test)]` on
# a single item, or on a module declaration, does not end the count.
#
#   bash scripts/loc.sh
set -e
cd "$(dirname "$0")/.."

awk '
FNR == 1 { cut = 0; pend = 0 }
cut { next }
pend && /^[[:space:]]*#\[/ { held++; next }
pend && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ *\{/ { cut = 1; next }
pend && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+;/ {
  match($0, /mod [A-Za-z_0-9]+/)
  dir = FILENAME; sub(/[^\/]*$/, "", dir)
  zero[dir substr($0, RSTART + 4, RLENGTH - 4) ".rs"] = 1
}
pend { lines[FILENAME] += held; pend = 0 }
/^[[:space:]]*#\[cfg\(test\)\]/ { pend = 1; held = 1; next }
{ lines[FILENAME]++ }
END { for (f in lines) if (!(f in zero)) print lines[f], f }
' $(find crates/*/src src -name '*.rs' | sort) \
  | awk '{ c = $2; sub(/^crates\//, "", c); sub(/\/.*/, "", c); n[c] += $1; t += $1 }
         END { for (c in n) printf "%7d %s\n", n[c], c; printf "%7d total\n", t }' \
  | sort -k2
