#!/usr/bin/env bash
# CPU census of one gt-benchmark run: where the process spends its CPU and
# how often its threads switch, per travel.
#
#   tools/census.sh <gt-benchmark binary> <workload> [seed]
#
# Runs the binary directly (not through cargo, so the pid is the cluster's)
# for 25 s untraced, snapshots every thread 5 s and 20 s in, and prints for
# those 15 s: CPU-s/s of the process, CPU ms per travel (user + sys), and
# CPU ms and voluntary / involuntary context switches per travel by thread
# group (workers `gt-s<N>-w<M>`, dispatchers `gt-s<N>-dispatch`, the rest).
# Per-thread sums miss threads that exited, so the process total is read
# from /proc/<pid>/stat. The benchmark's own last line (one JSON object)
# is printed first; travels/s comes from it.
set -euo pipefail
bin=${1:?usage: census.sh <gt-benchmark binary> <workload> [seed]}
workload=${2:?usage: census.sh <gt-benchmark binary> <workload> [seed]}
seed=${3:-1}
out=$(mktemp)
trap 'rm -f "$out"' EXIT

"$bin" --workload "$workload" --seed "$seed" --seconds 25 --trace 0 >"$out" 2>/dev/null &
pid=$!

# One line per thread: group utime stime voluntary involuntary.
threads() {
    for t in /proc/"$pid"/task/*; do
        local comm stat f sw
        comm=$(cat "$t/comm" 2>/dev/null) || continue
        stat=$(cat "$t/stat" 2>/dev/null) || continue
        sw=$(awk '/^(non)?voluntary_ctxt_switches/ {printf "%s ", $2}' "$t/status" 2>/dev/null) || continue
        f=(${stat##*) })
        case $comm in
            gt-s*-w*) comm=workers ;;
            gt-s*-dispatch) comm=dispatchers ;;
            *) comm=other ;;
        esac
        echo "$comm ${f[11]} ${f[12]} $sw"
    done
}
# Process utime + stime, in clock ticks.
total() {
    local s f
    s=$(cat /proc/"$pid"/stat)
    f=(${s##*) })
    echo $((f[11] + f[12]))
}

sleep 5
a=$(threads)
ta=$(total)
sleep 15
b=$(threads)
tb=$(total)
wait "$pid" || true
tail -1 "$out"

tps=$(tail -1 "$out" | sed -n 's/.*"travels_per_s": {"value": \([0-9.e+-]*\).*/\1/p')
hz=$(getconf CLK_TCK)
awk -v tps="$tps" -v hz="$hz" -v ta="$ta" -v tb="$tb" '
    NR == FNR { u[$1] -= $2; s[$1] -= $3; v[$1] -= $4; i[$1] -= $5; next }
    { u[$1] += $2; s[$1] += $3; v[$1] += $4; i[$1] += $5; seen[$1] = 1 }
    END {
        travels = tps * 15
        ms = 1000 / hz / travels
        printf "travels/s %.2f  CPU-s/s %.3f  CPU ms/travel %.2f\n", tps, (tb - ta) / hz / 15, (tb - ta) * ms
        printf "%-12s %10s %10s %10s %14s %14s\n", "group", "user ms", "sys ms", "CPU ms", "voluntary", "involuntary"
        for (g in seen)
            printf "%-12s %10.2f %10.2f %10.2f %14.1f %14.1f\n", g, u[g] * ms, s[g] * ms, (u[g] + s[g]) * ms, v[g] / travels, i[g] / travels
    }' <(echo "$a") <(echo "$b")
