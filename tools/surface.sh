#!/usr/bin/env bash
# The code-surface census: how much program there is, counted the same way
# every time, so a change can state its before/after rows.
#
#   tools/surface.sh [repo root]
#
# Prints, as markdown:
#   - non-test lines per crate: each `.rs` file under `crates/<crate>/`
#     counted up to its first `#[cfg(test)]`, with `crates/*/tests/`
#     excluded (EXPERIMENTS.md's method) and so is a file that is itself a
#     test-only module (declared `#[cfg(test)] mod x;`);
#   - `Msg` variants: the rows of its `wire_table!` plus the hand-written
#     `Relay` row;
#   - `EngineConfig` and `ClusterConfig` fields;
#   - lock `Rank`s;
#   - production `thread::sleep` / `Instant::now()` sites under
#     `crates/{core,net,kvstore}/src` (comment lines and test code excluded);
#   - production `unbounded(` sites under `crates/*/src`.
# Reads files only; builds and runs nothing.
set -euo pipefail
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

# Non-test lines of the given files: each file up to its first #[cfg(test)].
nontest() {
    awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' "$@"
}

# Files declared as test-only modules (`#[cfg(test)]` above `mod x;`).
test_modules() {
    local f dir
    for f in $(find crates -path '*/src/*.rs' -not -path '*/target/*'); do
        case $(basename "$f") in
            lib.rs | main.rs | mod.rs) dir=$(dirname "$f") ;;
            *) dir=${f%.rs} ;;
        esac
        awk -v dir="$dir" '
            prev ~ /#\[cfg\(test\)\]/ && match($0, /mod [a-z_0-9]+;/) {
                name = substr($0, RSTART + 4, RLENGTH - 5)
                print dir "/" name ".rs"; print dir "/" name "/mod.rs"
            }
            { prev = $0 }' "$f"
    done
}
skip=$(test_modules)

# The .rs files under the given directories, test-only modules left out.
sources() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' | sort |
        grep -vxF "${skip:-/}" || true
}

# Production lines of the given files, without comment lines.
prod_code() {
    awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ":" $0 }' "$@"
}

# `pub` fields of `pub struct <name>` in <file>.
fields() {
    awk -v s="pub struct $2 {" '
        index($0, s) == 1 { on = 1; next }
        on && /^}/ { exit }
        on && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$1"
}

echo "| crate | non-test lines |"
echo "|---|---|"
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    mapfile -t files < <(sources "$dir")
    n=0
    if ((${#files[@]})); then n=$(nontest "${files[@]}"); fi
    total=$((total + n))
    echo "| $crate | $n |"
done
echo "| **total** | **$total** |"
echo

msg=$(awk '
    /^    Msg, \|out, r\| \{/ { on = 1; next }
    on && /^}/ { exit }
    on && /^        [0-9A-Z_]+ => [A-Z][A-Za-z]* \{/ { n++ }
    END { print n + 0 }' crates/core/src/wirecodec.rs)
engine=$(fields crates/core/src/engine.rs EngineConfig)
cluster=$(fields crates/core/src/cluster/types.rs ClusterConfig)
ranks=$(awk '
    /^pub enum Rank \{/ { on = 1; next }
    on && /^}/ { exit }
    on && /^    [A-Z][A-Za-z]* = [0-9]+,/ { n++ }
    END { print n + 0 }' crates/core/src/lockorder.rs)
mapfile -t clocked < <(sources crates/core/src crates/net/src crates/kvstore/src)
clock=$(prod_code "${clocked[@]}" | grep -cE 'thread::sleep|Instant::now\(\)' || true)
mapfile -t srcs < <(sources crates/*/src)
unbounded=$(prod_code "${srcs[@]}" | grep -c 'unbounded(' || true)

echo "| surface | count |"
echo "|---|---|"
echo "| \`Msg\` variants | $msg |"
echo "| \`EngineConfig\` fields | $engine |"
echo "| \`ClusterConfig\` fields | $cluster |"
echo "| lock \`Rank\`s | $ranks |"
echo "| \`thread::sleep\` / \`Instant::now()\` sites, \`crates/{core,net,kvstore}/src\` | $clock |"
echo "| \`unbounded(\` sites, \`crates/*/src\` | $unbounded |"
