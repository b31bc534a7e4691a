#!/usr/bin/env bash
# Where one gt-benchmark workload spends its CPU, by function.
#
#   tools/profile.sh <workload> [seed] [seconds]
#
# Builds gt-benchmark with frame pointers into its own target directory
# (target/profile/, or $PROFILE_DIR), compiles a SIGPROF sampler with the
# system `cc` and preloads it into one untraced run. Every millisecond of
# the process's CPU time the sampler records the interrupted PC and the
# frame-pointer chain above it; at exit it writes them out, and this
# script symbolizes them with `nm -C` and prints each function's self
# share (samples whose PC is in it) and inclusive share (samples with it
# anywhere on the stack), in percent of all samples. Frames in libc are
# one group, `[libc]`; frames in other shared objects are grouped by
# object. Code built without frame pointers (the precompiled Rust
# standard library, libc) can hide or misattribute its caller's frame,
# so read small inclusive shares with care.
#
#   CALLERS=<regex> tools/profile.sh <workload> [seed] [seconds]
#
# adds a third table: the samples with a function matching <regex>
# (awk syntax) anywhere on their stack, grouped by their innermost four
# frames ("leaf <- caller <- …"), each path's share of all samples. It
# tells which callee a hot function's time goes to once inlining hides
# it from the self column, e.g. CALLERS='has_vertex_at|edge_dsts_at'.
set -euo pipefail

workload=${1:?usage: tools/profile.sh <workload> [seed] [seconds]}
seed=${2:-1}
seconds=${3:-20}
top=${TOP:-40}
callers=${CALLERS:-}
root=$(cd "$(dirname "$0")/.." && pwd)
out=${PROFILE_DIR:-$root/target/profile}
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out/target" \
    cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --bin gt-benchmark
bin="$out/target/release/gt-benchmark"

cc -O2 -fPIC -shared -o "$out/sigprof.so" -x c - <<'C'
#define _GNU_SOURCE
#include <link.h>
#include <setjmp.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define WORDS (1 << 22) /* samples, as [n, pc, return addresses…] */
#define DEPTH 64
static uint64_t buf[WORDS];
static long used;
static __thread __attribute__((tls_model("initial-exec"))) sigjmp_buf walk_jmp;
static __thread __attribute__((tls_model("initial-exec"))) volatile int walking;

/* A frame chain that leaves the stack faults here and ends the walk. */
static void on_fault(int sig) {
    if (walking) siglongjmp(walk_jmp, 1);
    signal(sig, SIG_DFL);
    raise(sig);
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    uint64_t frame[DEPTH + 1], sp = m->gregs[REG_RSP];
    volatile uint64_t fp = m->gregs[REG_RBP];
    volatile int n = 0;
    frame[n++] = m->gregs[REG_RIP];
    walking = 1;
    if (sigsetjmp(walk_jmp, 1) == 0) {
        while (n <= DEPTH && fp >= sp && fp - sp < (1u << 22) && !(fp & 7)) {
            uint64_t next = ((uint64_t *)fp)[0], ret = ((uint64_t *)fp)[1];
            if (ret < 4096) break;
            frame[n++] = ret;
            if (next <= fp) break;
            fp = next;
        }
    }
    walking = 0;
    long at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS) return;
    buf[at] = n;
    memcpy(&buf[at + 1], frame, n * sizeof(uint64_t));
}

static int dump_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X))
            fprintf(data, "obj %lx %lx %lx %s\n", (unsigned long)info->dlpi_addr,
                    (unsigned long)(info->dlpi_addr + ph->p_vaddr),
                    (unsigned long)(info->dlpi_addr + ph->p_vaddr + ph->p_memsz),
                    info->dlpi_name[0] ? info->dlpi_name : "[exe]");
    }
    return 0;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    signal(SIGSEGV, on_fault);
    signal(SIGBUS, on_fault);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("GT_PROF_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f) return;
    dl_iterate_phdr(dump_object, f);
    long end = used < WORDS ? used : WORDS;
    for (long at = 0; at < end && at + 1 + (long)buf[at] <= end; at += 1 + buf[at]) {
        fputs("s", f);
        for (uint64_t i = 1; i <= buf[at]; i++) fprintf(f, " %lx", (unsigned long)buf[at + i]);
        fputs("\n", f);
    }
    fclose(f);
}
C

samples="$out/$workload.samples"
rm -f "$samples"
GT_PROF_OUT="$samples" LD_PRELOAD="$out/sigprof.so" CARGO_TARGET_DIR="$out/target" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1

# Function symbols of the binary, by address: "<hex address> <name>",
# the Rust hash suffix dropped.
nm -C --defined-only -n "$bin" |
    awk '$2 ~ /^[tTwW]$/ { a = $1; sub(/^[^ ]+ [^ ]+ /, ""); sub(/::h[0-9a-f]+$/, ""); print a, $0 }' \
        >"$out/symbols.txt"

awk -v top="$top" -v callers="$callers" '
function hex(s,    i, c, v) {
    v = 0
    for (i = 1; i <= length(s); i++) {
        c = index("0123456789abcdef", substr(s, i, 1)) - 1
        v = v * 16 + c
    }
    return v
}
function name_of(a,    lo, hi, mid, i, base) {
    for (i = 1; i <= nobj; i++) {
        if (a >= ostart[i] && a < oend[i]) {
            if (oname[i] != "[exe]") {
                if (oname[i] ~ /libc[.-]/) return "[libc]"
                base = oname[i]
                sub(/.*\//, "", base)
                return "[" base "]"
            }
            a -= obase[i]
            lo = 1; hi = nsym
            if (nsym == 0 || a < saddr[1]) return "[exe ?]"
            while (lo < hi) {
                mid = int((lo + hi + 1) / 2)
                if (saddr[mid] <= a) lo = mid; else hi = mid - 1
            }
            return sname[lo]
        }
    }
    return "[unknown]"
}
FNR == NR { nsym++; saddr[nsym] = hex($1); sub(/^[^ ]+ /, ""); sname[nsym] = $0; next }
$1 == "obj" { nobj++; obase[nobj] = hex($2); ostart[nobj] = hex($3); oend[nobj] = hex($4); oname[nobj] = $5; next }
$1 == "s" {
    total++
    delete seen
    hit = 0
    path = ""
    for (i = 2; i <= NF; i++) {
        # A return address points after its call: look up the call.
        k = $i (i > 2 ? "r" : "")
        if (!(k in memo)) memo[k] = name_of(hex($i) - (i > 2 ? 1 : 0))
        f = memo[k]
        if (i == 2) self[f]++
        if (!(f in seen)) { seen[f] = 1; incl[f]++ }
        if (callers != "" && f ~ callers) hit = 1
        if (i <= 5) path = path (i > 2 ? " <- " : "") f
    }
    if (hit) { matched++; paths[path]++ }
}
END {
    if (total == 0) { print "no samples"; exit 1 }
    printf "%d samples\n\n%7s %7s  %s\n", total, "self%", "incl%", "function"
    for (f in incl) printf "%7.2f %7.2f  %s\n", 100 * self[f] / total, 100 * incl[f] / total, f | "sort -k1,1nr | head -n " top
    close("sort -k1,1nr | head -n " top)
    printf "\n%7s %7s  %s   (by inclusive share)\n", "self%", "incl%", "function"
    for (f in incl) printf "%7.2f %7.2f  %s\n", 100 * self[f] / total, 100 * incl[f] / total, f | "sort -k2,2nr | head -n " top
    close("sort -k2,2nr | head -n " top)
    if (callers == "") exit
    printf "\n%7.2f%% of samples have /%s/ on the stack; by innermost four frames:\n", 100 * matched / total, callers
    for (p in paths) printf "%7.2f  %s\n", 100 * paths[p] / total, p | "sort -k1,1nr | head -n " top
}
' "$out/symbols.txt" "$samples"
