#!/bin/sh
# Paired rwbench runs of two checkouts, summarised as one BENCH_history.jsonl
# line.
#
#   tools/bench_history.sh run PARENT_DIR CHANGE_DIR OUT_DIR
#       For every workload at seeds 7 and 90210, run 10 pairs of
#       PARENT_DIR's and CHANGE_DIR's rwbench, each for BENCHMARK.json's
#       run_seconds, alternating which side runs first, one run at a time.
#       Each run's output goes to OUT_DIR/<side>_<workload>_<seed>_<pair>.txt.
#   tools/bench_history.sh summarize OUT_DIR PARENT_COMMIT CHANGE_LABEL
#       Print one JSON line: per workload and seed, the number of pairs and
#       the run length the run files report, the failed operations of each
#       side, and for every end-to-end metric of BENCHMARK.json the
#       parent's and the change's medians, the parent's quartile distance
#       and the pairs the change won (strictly better in the metric's
#       direction; ties count for neither side).
#
# Run from the root of the repository; append the summary with
#   tools/bench_history.sh summarize ... >> BENCH_history.jsonl
set -eu

workloads="htap asof_audit repair_restart"
seeds="7 90210"
pairs=10

# "name better" for each end-to-end metric, in BENCHMARK.json order.
metrics() {
  awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
       on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
       on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json
}

# The values of one metric over a list of run files, one per line.
values() {
  m=$1
  shift
  for f in "$@"; do
    awk -v m="$m" '$1 == "metric" && $2 == m { print $4 }' "$f"
  done
}

# Median and quartile distance (linear interpolation) of stdin's numbers.
stats() {
  sort -g | awk '{ v[NR - 1] = $1 }
    function q(p,  x, i) { x = p * (NR - 1); i = int(x); return v[i] + (x - i) * (v[i + 1] - v[i]) }
    END { if (NR == 0) printf "null null"; else printf "%.6g %.6g", q(0.5), q(0.75) - q(0.25) }'
}

run() {
  parent=$1 change=$2 out=$3
  seconds=$(awk '/"run_seconds"/ { gsub(/[^0-9]/, "", $2); print $2 }' BENCHMARK.json)
  mkdir -p "$out"
  for w in $workloads; do
    for s in $seeds; do
      i=1
      while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
          if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
          (cd "$dir" && bash rwbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" \
            --trace 0) >"$out/${side}_${w}_${s}_$i.txt" 2>&1
        done
        i=$((i + 1))
      done
    done
  done
}

summarize() {
  out=$1 commit=$2 label=$3
  host=$(cat "$out"/parent_*_1.txt |
    awk '$1 == "run:" && $2 == "nproc" { print "nproc " $3 ", ocaml " $5; exit }')
  printf '{"parent":"%s","change":"%s","host":"%s","workloads":{' "$commit" "$label" "$host"
  wsep=""
  for w in $workloads; do
    printf '%s"%s":{' "$wsep" "$w"
    wsep=","
    ssep=""
    for s in $seeds; do
      n=$(ls "$out"/parent_"${w}"_"${s}"_*.txt 2>/dev/null | wc -l)
      [ "$n" -gt 0 ] || continue
      # The run length every run file of this workload and seed reports
      # ("workload W  seed S  seconds N ..."), or null if they differ.
      secs=$(cat "$out"/*_"${w}"_"${s}"_*.txt |
        awk '$1 == "workload" { v[$6] = 1 } END { for (k in v) { n++; x = k } print (n == 1 ? x : "null") }')
      failed() { cat "$out"/"$1"_"${w}"_"${s}"_*.txt | awk '$1 == "attempted" { f += $4 } END { print f + 0 }'; }
      printf '%s"%s":{"pairs":%d,"seconds":%s,"failed":{"parent":%d,"change":%d}' "$ssep" "$s" "$n" \
        "$secs" "$(failed parent)" "$(failed change)"
      ssep=","
      metrics | while read -r m better; do
        p=$(values "$m" "$out"/parent_"${w}"_"${s}"_*.txt | stats)
        c=$(values "$m" "$out"/change_"${w}"_"${s}"_*.txt | stats)
        wins=0
        i=1
        while [ "$i" -le "$n" ]; do
          pv=$(values "$m" "$out/parent_${w}_${s}_$i.txt")
          cv=$(values "$m" "$out/change_${w}_${s}_$i.txt")
          if [ -n "$pv" ] && [ -n "$cv" ] && awk -v p="$pv" -v c="$cv" -v b="$better" \
            'BEGIN { exit !((b == "lower" && c < p) || (b == "higher" && c > p)) }'; then
            wins=$((wins + 1))
          fi
          i=$((i + 1))
        done
        printf ',"%s":{"parent":%s,"change":%s,"parent_iqr":%s,"wins":%d}' "$m" \
          "${p% *}" "${c% *}" "${p#* }" "$wins"
      done
      printf '}'
    done
    printf '}'
  done
  printf '}}\n'
}

case "${1:-}" in
  run) shift; run "$@" ;;
  summarize) shift; summarize "$@" ;;
  *)
    echo "usage: $0 run PARENT_DIR CHANGE_DIR OUT_DIR" >&2
    echo "       $0 summarize OUT_DIR PARENT_COMMIT CHANGE_LABEL" >&2
    exit 2
    ;;
esac
