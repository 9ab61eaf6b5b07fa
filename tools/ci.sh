#!/bin/sh
# Repo check pipeline: build, tests (including the golden outputs of every
# experiment and soak), smoke runs of the CLI, examples and rwbench, exact
# rwbench counts, and the microbenchmarks' same-run ratio guards.
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
# The read through the snapshot rewinds its pages in page batches, each
# one span with its page count and fan-out (lib/core/page_batch.ml).
trace_tmp=$(mktemp /tmp/rewind_trace.XXXXXX.json)
dune exec bin/rewind_cli.exe -- exec --trace "$trace_tmp" -e "
  CREATE DATABASE d; USE d;
  CREATE TABLE t (k INT, v INT);
  INSERT INTO t VALUES (1, 10), (2, 20);
  UPDATE t SET v = 99 WHERE k = 1;
  CHECKPOINT;
  SELECT * FROM t;
  CREATE DATABASE s AS SNAPSHOT OF d AS OF -0;
  SELECT * FROM s.t;" >/dev/null
test -s "$trace_tmp"
grep -q '"traceEvents"' "$trace_tmp"
grep -q '"ph"' "$trace_tmp"
grep -q '"name": "snapshot.materialize_batch", "cat": "pool", "ph": "X".*"args": {"pages": [0-9]*, "fanout": [0-9]*}' "$trace_tmp"
rm -f "$trace_tmp"
echo "trace ok"

echo "== profile smoke (exec --profile writes folded stacks) =="
# 4,000 inserts in 40 statements, an update and a checkpoint: tens of ms
# of CPU, several samples at the sampler's measured period (about one per
# 4 ms on a 2-core x86-64 host).  The folded file must hold at least one
# "frame;...;frame count" line.
prof_tmp=$(mktemp /tmp/rewind_prof.XXXXXX.folded)
prof_sql="CREATE DATABASE d; USE d; CREATE TABLE t (k INT, v INT);"
i=1
while [ "$i" -le 40 ]; do
  rows=$(seq -s, $((i * 100)) $((i * 100 + 99)) | sed 's/\([0-9][0-9]*\)/(\1, 7)/g')
  prof_sql="$prof_sql INSERT INTO t VALUES $rows;"
  i=$((i + 1))
done
prof_sql="$prof_sql UPDATE t SET v = 8 WHERE k > 500; CHECKPOINT; SELECT COUNT(*) FROM t;"
dune exec bin/rewind_cli.exe -- exec --profile "$prof_tmp" -e "$prof_sql" | grep '^profile:'
test -s "$prof_tmp"
grep -q ' [0-9][0-9]*$' "$prof_tmp"
rm -f "$prof_tmp"
echo "profile ok"

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
# A `val NAME` of a library interface (the engine's or the experiments')
# must appear, as a whole word, in some .ml outside its own module; an
# export nothing uses is deleted instead.
unused=$(for mli in lib/*/*.mli experiments/*.mli; do
  own=${mli%.mli}.ml
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    find lib experiments bin bench rwbench examples test -name '*.ml' ! -path "$own" |
      xargs grep -lw -- "$name" | grep -q . || echo "$mli: $name"
  done
done)
if [ -n "$unused" ]; then
  echo "error: exported values with no caller outside their module:" >&2
  echo "$unused" >&2
  exit 1
fi
echo "exports ok"

echo "== formatting of dune files (dune fmt) =="
# dune-project enables formatting for dune files only: the repository has
# no .ocamlformat and the check must run without an ocamlformat binary, so
# `dune fmt` leaves the .ml sources alone and this step checks the dune
# and dune-project files.  Whether it reformatted anything is read from a
# hash of those files around it (diffing against git would also flag
# legitimate uncommitted edits).
fmt_state() {
  find . -path ./_build -prune -o \( -name dune -o -name dune-project \) \
    -type f -print | sort | xargs cat | cksum
}
before=$(fmt_state)
dune fmt >/dev/null 2>&1 || true
after=$(fmt_state)
if [ "$before" != "$after" ]; then
  echo "error: dune files were not fmt-clean ('dune fmt' reformatted them; commit the result)" >&2
  exit 1
fi

echo "== rwbench count determinism (trace off vs on) and exact counts =="
# The trace-off runs are also rwbench's smoke test: rwbench exits non-zero
# when any operation fails or an answer disagrees with its oracle, which
# stops this script.
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
# htap's minor-heap allocation per operation is deterministic in the dev
# profile too, and it is what boxed int64 results, per-call closures and
# intermediate copies cost on the row-access and log-append paths
# (DESIGN.md, "Ids are ints at the byte level", "Checkpoint flushing" and
# "Log append in one pass").  The bound is the figure once each log record
# was encoded once, straight into its segment, 1.7261 MiB, plus 2%;
# before, it was 1.877 MiB (2.312 MiB before the buffer pool's lookups
# allocated no closure or option, 3.208 MiB before keys, child ids and
# log-header fields were read in place).
htap_minor_max=1.76
# repair_restart's bound, likewise deterministic: the figure once instant
# restart recovered its backlog in page batches and redid records in
# place, 1.5548 MiB, plus 2%; before, it was 1.6248 MiB.
repair_minor_max=1.586
# asof_audit's bound, likewise deterministic: the figure once snapshot
# creation found its SplitLSN, base checkpoint and in-flight set by
# search of the control directory, 19.0877 MiB, plus 2%; before, it was
# 19.2814 MiB (20.4207 MiB before rewinds took each chain record at the
# position the chain index holds for it).
asof_minor_max=19.47
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
  case $w in
    htap) minor_max=$htap_minor_max ;;
    repair_restart) minor_max=$repair_minor_max ;;
    asof_audit) minor_max=$asof_minor_max ;;
    *) minor_max= ;;
  esac
  if [ -n "$minor_max" ]; then
    minor=$(echo "$out_off" | sed -n 's/^count gc\.minor_mb_per_op = \([0-9.]*\) MiB$/\1/p')
    if ! awk -v m="$minor" -v max="$minor_max" 'BEGIN { exit !(m != "" && m + 0 <= max + 0) }'; then
      echo "error: $w gc.minor_mb_per_op is ${minor:-missing} MiB, above $minor_max MiB" >&2
      exit 1
    fi
    echo "$w gc.minor_mb_per_op $minor MiB (at most $minor_max)"
  fi
done

echo "== microbenchmarks (host time, guarded by same-run ratios) =="
# Host time swings between runs and hosts, so no row is held to an
# absolute figure.  Each guard divides two rows of the same run, where the
# host's speed cancels out, and fails when the quotient reaches its bound.
# The ranges in the comments are from twelve runs on a 2-core x86-64 host;
# each bound is at least 1.4x the worst of them.  Rows with no partner of
# the same shape (cold segment, dep-graph build, replica catch-up) or no
# such margin below their natural bound (selective vs full baseline, up to
# 0.85 of 1; group commit at 8 vs 1 txns/flush, up to 6.5 of 8) are
# printed only.
micro_out=$(dune exec bench/main.exe -- micro)
echo "$micro_out"
# row NAME: host ns per run of core-primitives/NAME in this run.
row() {
  echo "$micro_out" | awk -v k="core-primitives/$1" 'index($0, k " ") == 1 {
    u = $NF; v = $(NF - 1); print v * (u == "ms" ? 1e6 : u == "us" ? 1e3 : 1) }'
}
# ratio_below LABEL NUM DEN BOUND: fail unless row NUM / row DEN < BOUND.
ratio_below() {
  awk -v label="$1" -v n="$(row "$2")" -v d="$(row "$3")" -v bound="$4" 'BEGIN {
    if (!(n > 0 && d > 0)) { printf "error: micro rows for %s missing\n", label; exit 1 }
    printf "%-35s %8.4f (bound %s)\n", label, n / d, bound
    if (n / d >= bound) { printf "error: %s reached its bound\n", label; exit 1 }
  }'
}
# Both CRC-32 kernels give equal values, so a silent fall-back from the
# carry-less-multiply kernel to slicing-by-8 would pass every test.  When
# the run reports the hardware kernel, its page checksum must beat the
# bytewise reference by at least 20x (61-104x with pclmulqdq; about 6x
# with slicing-by-8).
crc_kernel=$(echo "$micro_out" | sed -n 's/^crc32 kernel: //p')
if [ "$crc_kernel" = "pclmulqdq" ]; then
  ratio_below "crc32 kernel / bytewise" "crc32 of one 8KiB page" \
    "crc32 bytewise reference (8KiB page)" 0.05
fi
# Instant restart's time-to-first-query is O(analysis): the analysis pass
# must stay well below the full replay it precedes (0.35-0.49).
ratio_below "analysis-only / full replay" recovery-analysis-only recovery-full-replay 0.75
# The chain index and the in-place undo kernel against the
# record-at-a-time walk over the same 400-op history (0.16-0.44).
ratio_below "400-op rewind / walk" "prepare_page_as_of (400-op rewind)" \
  "prepare_page_as_of_walk (400-op rewind)" 0.75
# A shared-cache hit is a probe plus a page copy, not a rewind
# (0.011-0.063).
ratio_below "shared-cache hit / 400-op rewind" "prepare_page_as_of (shared-cache hit)" \
  "prepare_page_as_of (400-op rewind)" 0.1
# A checkpoint reads only the dirty frames: 4 dirty of 1,000 resident
# costs about four page writes, not a pass over every frame, against 64
# dirty pages (0.070-0.109; 0.22-0.47 when a flush folded the whole
# frame table).
ratio_below "sparse / dense checkpoint flush" "checkpoint flush (4 dirty of 1,000 resident)" \
  "checkpoint flush (64 dirty pages)" 0.21

echo "== ci ok =="
