#!/bin/sh
# Repo check pipeline: build, tests, formatting, and a bench-harness smoke
# run (so the benchmark harness cannot silently rot).
#
# Usage: tools/ci.sh        from the repository root.
set -e

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== dune build @doc =="
# A no-op without odoc installed, but keeps the doc comments compiling in
# environments that have it.
dune build @doc

echo "== trace smoke (exec --trace produces Chrome trace JSON) =="
trace_tmp=$(mktemp /tmp/rewind_trace.XXXXXX.json)
dune exec bin/rewind_cli.exe -- exec --trace "$trace_tmp" -e "
  CREATE DATABASE d; USE d;
  CREATE TABLE t (k INT, v INT);
  INSERT INTO t VALUES (1, 10), (2, 20);
  UPDATE t SET v = 99 WHERE k = 1;
  CHECKPOINT;
  SELECT * FROM t;" >/dev/null
test -s "$trace_tmp"
grep -q '"traceEvents"' "$trace_tmp"
grep -q '"ph"' "$trace_tmp"
rm -f "$trace_tmp"
echo "trace ok"

echo "== examples (selective undo, point-in-time audit) =="
# The final balance table of the undo example and the audit's closing
# verdict are the examples' end-to-end results.
undo_rows=$(dune exec examples/undo_transaction.exe | tail -n 6 | head -n 5 | tr -d ' ')
expected_rows=$(printf '1|1000\n2|1000\n3|1000\n4|500\n(4rows)')
if [ "$undo_rows" != "$expected_rows" ]; then
  echo "error: undo_transaction example ended with unexpected balances:" >&2
  echo "$undo_rows" >&2
  exit 1
fi
dune exec examples/point_in_time_audit.exe | tail -n 1 |
  grep -q "every past balance reproduced exactly"
echo "examples ok"

echo "== every exported value has a caller =="
# A `val NAME` of a library interface must appear, as a whole word, in some
# .ml outside its own module; an export nothing uses is deleted instead.
unused=$(for mli in lib/*/*.mli; do
  own=${mli%.mli}.ml
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    find lib bin bench rwbench examples test -name '*.ml' ! -path "$own" |
      xargs grep -lw -- "$name" | grep -q . || echo "$mli: $name"
  done
done)
if [ -n "$unused" ]; then
  echo "error: exported values with no caller outside their module:" >&2
  echo "$unused" >&2
  exit 1
fi
echo "exports ok"

echo "== rwbench smoke (as-of answers agree with the oracle) =="
# A short seeded run of the two as-of workloads and of repair_restart,
# whose REWIND TRANSACTION rewinds pages through the same batch gather.
# rwbench exits non-zero when any operation fails or an answer disagrees
# with its oracle.
for w in asof_audit htap repair_restart; do
  dune exec rwbench/main.exe -- --workload "$w" --seed 7 --seconds 2 --trace 0 >/dev/null
  echo "rwbench $w ok"
done

echo "== formatting (dune fmt) =="
# `dune fmt` exits 0 even when it reformats files on this dune version, so
# detect whether promotion changed anything by hashing the sources around it
# (diffing against git would also flag legitimate uncommitted edits).
fmt_state() {
  find . -path ./_build -prune -o \
    \( -name dune -o -name dune-project -o -name '*.ml' -o -name '*.mli' \) \
    -type f -print | sort | xargs cat | cksum
}
before=$(fmt_state)
dune fmt >/dev/null 2>&1 || true
after=$(fmt_state)
if [ "$before" != "$after" ]; then
  echo "error: sources were not fmt-clean ('dune fmt' reformatted them; commit the result)" >&2
  exit 1
fi

# The self-checks and soaks run before the bench smoke: its host-time
# regression guard depends on the machine, and must not hide them.
echo "== e12 smoke (domain-parallel batch, serial-twin byte-equality) =="
# Fan-out sweep with the serial-twin self-check; exits non-zero on any
# divergence between fan-outs.
dune exec bench/main.exe -- e12 --quick

echo "== e9 smoke (instant restart vs a full-replay twin) =="
# Instant restart at three log lengths, checked during the backlog and
# after the drain against a twin restarted by full log-scan redo.  Exits
# non-zero on any divergence.
dune exec bench/main.exe -- e9 --quick

echo "== e10 smoke (replica catch-up vs the primary) =="
# Replicas fed by log shipping, checked against the primary's rows,
# pages and as-of answers.  Exits non-zero on any divergence.
dune exec bench/main.exe -- e10 --quick

echo "== fault-injection soak (fixed seeds, random crash points) =="
# TPC-C under torn writes / bit rot / transient errors / torn log tails,
# crashed at seed-derived points, recovered, repaired, and verified against
# a fault-free oracle.  Exits non-zero if any crash point fails.
dune exec bin/rewind_cli.exe -- faultsoak --seeds 11,23,47 --quick

echo "== replication soak (fixed seeds) =="
# Replica crash mid-catch-up, sustained lag, network partition, and
# primary failover + rejoin, each converging to a fault-free single-node
# oracle (rows, every allocated page in canonical form, a mid-history
# as-of query).  Exits non-zero on divergence.
dune exec bin/rewind_cli.exe -- replsoak --seeds 11,23,47 --quick

echo "== what-if selective-undo soak (fixed seeds) =="
# Dependent-chain, fully-independent and mixed histories: a mid-history
# victim is removed as a what-if view and, after a crash and reopen with
# an in-flight transaction in the log tail (the rebuilt dependency graph
# must equal the pre-crash one), as an in-place repair; both verified
# (logical rows + every allocated page, page LSN masked + pre-victim
# as-of) against a replay-minus-victim oracle.  Exits non-zero on any
# inequality.
dune exec bin/rewind_cli.exe -- whatifsoak --seeds 11,23,47 --quick

echo "== rwbench count determinism (trace off vs on) and exact counts =="
# Every count line of an rwbench run comes from its counted window, which
# runs the same code with tracing off or on, so the two runs must print
# the same counts-digest.  The writing workloads are checked too:
# full-page-image emission is write-side work that must be just as
# deterministic.  The non-gc.* count lines are modeled work, so they must
# also equal the checked-in tools/counts/<workload>.txt exactly: a change
# that moves modeled work on purpose updates those files and says old ->
# new for each moved line.
bench_run() {
  dune exec rwbench/main.exe -- --workload "$1" --seed 7 --seconds 2 --trace "$2"
}
for w in asof_audit htap repair_restart; do
  out_off=$(bench_run "$w" 0)
  digest_off=$(echo "$out_off" | sed -n 's/^counts-digest //p')
  digest_on=$(bench_run "$w" 1 | sed -n 's/^counts-digest //p')
  echo "$w counts-digest trace 0: $digest_off  trace 1: $digest_on"
  if [ -z "$digest_off" ] || [ "$digest_off" != "$digest_on" ]; then
    echo "error: $w counts differ between --trace 0 and --trace 1" >&2
    exit 1
  fi
  if ! echo "$out_off" | grep '^count ' | grep -v '^count gc\.' |
    diff "tools/counts/$w.txt" - >&2; then
    echo "error: $w count lines differ from tools/counts/$w.txt (< checked in, > this run)" >&2
    exit 1
  fi
  echo "$w counts equal tools/counts/$w.txt"
done

echo "== bench smoke (all --quick --json) =="
# The bench run overwrites BENCH_micro.json, so snapshot the checked-in
# baseline values of the guarded benchmarks first.
bench_value() {
  grep -F "\"$1\"" BENCH_micro.json | sed 's/.*: *//; s/,$//'
}
base_prepare=$(bench_value "core-primitives/prepare_page_as_of (400-op rewind)" || true)
base_prepare_cold=$(bench_value "core-primitives/prepare_page_as_of (cold segment)" || true)
base_commit=$(bench_value "core-primitives/group commit (8 txns/flush)" || true)
base_shared=$(bench_value "core-primitives/prepare_page_as_of (shared-cache hit)" || true)
base_analysis=$(bench_value "core-primitives/recovery-analysis-only" || true)
base_catchup=$(bench_value "core-primitives/replica-catchup-apply (parallel redo)" || true)
base_depgraph=$(bench_value "core-primitives/dep-graph-build (64-txn history)" || true)
base_selective=$(bench_value "core-primitives/selective-replay-vs-full-rewind: selective" || true)
base_batch_par=$(bench_value "prepare_batch_as_of-parallel-4" || true)
base_batch_serial=$(bench_value "prepare_batch_as_of-serial" || true)
base_cold_par=$(bench_value "cold-segment-parallel" || true)

bench_out=$(dune exec bench/main.exe -- all --quick --json)
test -s BENCH_micro.json
echo "BENCH_micro.json written:"
head -c 400 BENCH_micro.json
echo ""

# Both CRC-32 kernels give equal values, so a silent fall-back from the
# carry-less-multiply kernel to slicing-by-8 would pass every test.  When
# the run reports the hardware kernel, its page checksum must beat the
# bytewise reference of the same run by at least 20x; host speed cancels
# out of the ratio.  (On a 2-core x86-64 host, the hardware kernel read
# about 80x and slicing-by-8 about 6x.)
crc_kernel=$(echo "$bench_out" | sed -n 's/^crc32 kernel: //p')
echo "crc32 kernel: ${crc_kernel:-unknown}"
if [ "$crc_kernel" = "pclmulqdq" ]; then
  awk -v k="$(bench_value "core-primitives/crc32 of one 8KiB page" || true)" \
    -v b="$(bench_value "core-primitives/crc32 bytewise reference (8KiB page)" || true)" 'BEGIN {
    if (k == "" || b == "" || k == "null" || b == "null" || k <= 0) {
      print "error: crc32 bench rows missing"; exit 1
    }
    printf "crc32 of one 8KiB page: %.1fx faster than bytewise (need >= 20x)\n", b / k
    if (b < 20 * k) { print "error: the pclmulqdq kernel is not in use"; exit 1 }
  }'
fi

# The sim-clock modeled rows are deterministic, not host-load-dependent,
# so they must equal the checked-in values exactly.  This runs before the
# host-time guard below, which can fail on a slow host and must not hide
# it.
echo "== modeled bench rows (exact vs checked-in baseline) =="
check_exact() {
  key=$1
  base=$2
  cur=$(bench_value "$key" || true)
  echo "$key: $cur (baseline $base)"
  if [ -z "$base" ] || [ -z "$cur" ] || [ "$cur" != "$base" ]; then
    echo "error: modeled row \"$key\" differs from the checked-in baseline" >&2
    return 1
  fi
}
check_exact "prepare_batch_as_of-serial" "$base_batch_serial"
check_exact "prepare_batch_as_of-parallel-4" "$base_batch_par"
check_exact "cold-segment-parallel" "$base_cold_par"
# Batched as-of preparation through the shared domain pool must beat the
# serial batch row by >= 2x at fan-out 4 on the cold-chain operating point
# (the acceptance bar of the staged pipeline).
batch_serial=$(bench_value "prepare_batch_as_of-serial" || true)
batch_par=$(bench_value "prepare_batch_as_of-parallel-4" || true)
awk -v s="$batch_serial" -v p="$batch_par" 'BEGIN {
  if (s == "" || p == "" || s == "null" || p == "null") {
    print "error: batch bench rows missing"; exit 1
  }
  printf "prepare_batch_as_of serial/parallel-4 speedup: %.2fx (need >= 2x)\n", s / p
  if (s < 2.0 * p) { print "error: parallel batch row fails the 2x bar"; exit 1 }
}'

echo "== bench regression guard (>25% vs checked-in baseline fails) =="
# Guards the two headline numbers of the read- and write-path overhauls.
check_regression() {
  key=$1
  base=$2
  cur=$(bench_value "$key" || true)
  if [ -z "$base" ] || [ "$base" = "null" ]; then
    echo "warning: no baseline for \"$key\"; skipping guard" >&2
    return 0
  fi
  if [ -z "$cur" ] || [ "$cur" = "null" ]; then
    echo "error: bench run produced no value for \"$key\"" >&2
    return 1
  fi
  awk -v base="$base" -v cur="$cur" -v key="$key" 'BEGIN {
    limit = base * 1.25
    printf "%-45s %12.2f ns (baseline %.2f, limit %.2f)\n", key, cur, base, limit
    if (cur > limit) { printf "error: \"%s\" regressed >25%%\n", key; exit 1 }
  }'
}
check_regression "core-primitives/prepare_page_as_of (400-op rewind)" "$base_prepare"
check_regression "core-primitives/prepare_page_as_of (cold segment)" "$base_prepare_cold"
check_regression "core-primitives/group commit (8 txns/flush)" "$base_commit"
check_regression "core-primitives/prepare_page_as_of (shared-cache hit)" "$base_shared"
# Instant restart's time-to-first-query is O(analysis): guard the analysis
# pass so the pre-open work cannot silently grow back toward full replay.
check_regression "core-primitives/recovery-analysis-only" "$base_analysis"
# Replica catch-up is bounded by page-grouped redo of shipped
# segments: guard the apply rate so replication lag cannot silently grow.
check_regression "core-primitives/replica-catchup-apply (parallel redo)" "$base_catchup"
# What-if selective undo: the graph build reads the write-set index,
# O(transactions + write sets), and must not grow toward a log scan; the
# selective target computation must stay pinned to the dependent set
# (the full-rewind row is its context, not a guard).
check_regression "core-primitives/dep-graph-build (64-txn history)" "$base_depgraph"
check_regression "core-primitives/selective-replay-vs-full-rewind: selective" "$base_selective"

echo "== ci ok =="
