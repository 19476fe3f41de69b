#!/usr/bin/env bash
# The repo's one performance gate: the repo benchmark (BENCHMARK.json),
# parent against change, in alternating pairs.
#
#   scripts/bench_gate.sh <parent-ref> [pairs=10]
#
# Extracts <parent-ref> into a temporary directory (git archive), builds the
# benchmark package of both trees (the change is this working tree) into
# separate target directories, then for each pair runs every workload once
# per side with the contract's own command and seed = pair number. The
# parent goes first on odd pairs and the change on even ones, because this
# host's speed drifts by a fifth over minutes. Logs every run's metrics to
# stderr and prints, per workload and end-to-end metric, both medians, the
# relative change, the contract's bound, the pairs the change won and the
# parent's interquartile range (a claimed gain needs >= 9/10 wins and a
# median shift beyond that range); exits 1 if a median is worse than its
# bound or any run reports a failed operation. A full gate is 8 x pairs
# runs of ~25 s each. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: scripts/bench_gate.sh <parent-ref> [pairs=10]" >&2
  exit 2
fi
parent_ref=$1
pairs=${2:-10}
command -v jq >/dev/null || { echo "bench_gate.sh: jq not found" >&2; exit 2; }

change=$PWD
work=$(mktemp -d)
parent=$work/parent
trap 'rm -rf "$work"' EXIT
mkdir -p "$parent"
git archive "$parent_ref" | tar -x -C "$parent"

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

# in_tree <side> <command...>: runs the command at the root of that side's
# tree with that side's target directory.
in_tree() {
  local side=$1 tree=$change
  shift
  [ "$side" = parent ] && tree=$parent
  (cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" "$@")
}

for side in parent change; do
  echo "building the benchmark ($side)" >&2
  in_tree "$side" cargo build --release --quiet --offline \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
done

# One row per run and metric: pair, workload, side, metric, value.
runs=$work/runs.tsv
: >"$runs"
failed_runs=0
for ((pair = 1; pair <= pairs; pair++)); do
  if ((pair % 2)); then order=(parent change); else order=(change parent); fi
  for w in "${workloads[@]}"; do
    for side in "${order[@]}"; do
      echo "pair $pair/$pairs: $w ($side)" >&2
      # The last stdout line is the contract's result object.
      last=$(in_tree "$side" "${cmd[@]}" --workload "$w" --seed "$pair" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
      if [ "$(jq -r '.correct' <<<"$last" 2>/dev/null)" != true ]; then
        echo "  run failed: ${last:-no result line}" >&2
        failed_runs=$((failed_runs + 1))
        continue
      fi
      jq -c '.metrics | map_values(.value)' <<<"$last" >&2
      jq -r --arg p "$pair" --arg w "$w" --arg s "$side" \
        '.metrics | to_entries[] | [$p, $w, $s, .key, .value.value] | @tsv' <<<"$last" >>"$runs"
    done
  done
done

# values <workload> <side> <metric>: that side's runs, sorted.
values() {
  awk -F'\t' -v w="$1" -v s="$2" -v m="$3" '$2 == w && $3 == s && $4 == m {print $5}' "$runs" |
    sort -g
}

# median <workload> <side> <metric>
median() {
  values "$@" | awk '{v[NR] = $1} END {if (NR) print (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2}'
}

# iqr <workload> <side> <metric>: third minus first quartile (nearest rank).
iqr() {
  values "$@" | awk '{v[NR] = $1} END {if (NR) print v[int((3 * NR + 3) / 4)] - v[int((NR + 3) / 4)]}'
}

# wins <workload> <metric> <better>: pairs in which the change beat the
# parent, out of the pairs where both sides ran.
wins() {
  awk -F'\t' -v w="$1" -v m="$2" -v better="$3" '$2 == w && $4 == m {v[$1, $3] = $5; seen[$1] = 1}
    END {
      for (p in seen) if ((p, "parent") in v && (p, "change") in v) {
        n++
        d = v[p, "change"] - v[p, "parent"]
        won += (better == "higher") ? (d > 0) : (d < 0)
      }
      printf "%d/%d\n", won, n
    }' "$runs"
}

worse=0
printf '\n%-14s %-15s %12s %12s %8s %6s %6s %10s\n' workload metric parent change delta bound wins p_iqr
for w in "${workloads[@]}"; do
  while IFS=$'\t' read -r metric better bound; do
    p=$(median "$w" parent "$metric")
    c=$(median "$w" change "$metric")
    if [ -z "$p" ] || [ -z "$c" ]; then
      printf '%-14s %-15s %12s %12s %8s %6s\n' "$w" "$metric" "${p:-n/a}" "${c:-n/a}" n/a "$bound"
      continue
    fi
    # delta is change/parent - 1; which sign is worse depends on the metric.
    read -r delta verdict < <(awk -v p="$p" -v c="$c" -v b="$bound" -v better="$better" 'BEGIN {
      d = (p == 0) ? 0 : c / p - 1
      bad = (better == "lower") ? (d > b) : (-d > b)
      printf "%+.1f%% %s\n", 100 * d, bad ? "WORSE" : "ok"
    }')
    printf '%-14s %-15s %12s %12s %8s %6s %6s %10s' "$w" "$metric" "$p" "$c" "$delta" "$bound" \
      "$(wins "$w" "$metric" "$better")" "$(iqr "$w" parent "$metric")"
    if [ "$verdict" = WORSE ]; then
      printf '  WORSE than the bound'
      worse=$((worse + 1))
    fi
    printf '\n'
  done < <(jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' BENCHMARK.json)
done

echo
echo "bench_gate: $pairs pair(s) against $parent_ref: $worse metric(s) worse than the bound, $failed_runs failed run(s)"
[ "$worse" -eq 0 ] && [ "$failed_runs" -eq 0 ]
