#!/usr/bin/env bash
# CI's performance gate: a short gated run of every workload of
# `go run ./bench` (it exits non-zero on any failed op), then one traced
# run per workload held to the newest committed BENCH_<n>.json. Times
# vary with the host and are not compared; what must hold anywhere is
# that every op verifies, that each machine-independent count (unit
# "count", outside host.*) equals the ledger's, that an op allocates no
# more than 1.25x the ledger's bytes (host.alloc_mb_per_op: what the
# allocation-free packet and flow paths bought, and a function of the
# code, not the host or the run length: 5 s and 30 s runs agree to four
# digits on all four workloads), and that where the ledger measured the K=2
# parallel kernel it is not slower than the sequential one
# (cluster.parallel_eff = speedup_k2 / min(2, GOMAXPROCS) >= 0.5;
# workloads that bypass the cluster read 0). That last figure is a ratio
# of two wall times: single 5 s runs of one tree read 0.37-0.61 on the
# ledger host, so the floor is held to the median of three traced runs.
set -euo pipefail
cd "$(dirname "$0")/.."
ledger=$(ls BENCH_*.json | sort -t_ -k2 -n | tail -n 1)

go run ./bench --seconds 5

status=0
for w in $(jq -r '.workloads | keys_unsorted[]' "$ledger"); do
  got=$(go run ./bench --workload "$w" --trace 1 --seconds 5 -json | tail -n 1) || true
  eff=$(jq '.metrics["cluster.parallel_eff"].value' <<<"$got")
  if jq -e --arg w "$w" '.workloads[$w].traced.metrics["cluster.parallel_eff"].value > 0' "$ledger" > /dev/null; then
    for _ in 2 3; do
      more=$(go run ./bench --workload "$w" --trace 1 --seconds 5 -json | tail -n 1) || true
      eff="$eff $(jq '.metrics["cluster.parallel_eff"].value' <<<"$more")"
    done
    echo "     $w: cluster.parallel_eff of three runs: $eff"
    eff=$(printf '%s\n' $eff | sort -g | sed -n 2p)
  fi
  bad=$(jq -r --arg w "$w" --argjson got "$got" --argjson eff "$eff" '
    .workloads[$w].traced.metrics as $want
    | ($got.correct | select(. != true) | "correct: \(.)"),
      ($got.failed | select(. != 0) | "failed: \(.) of \($got.attempted) ops"),
      ($want | to_entries[]
        | select(.value.unit == "count" and (.key | startswith("host.") | not))
        | select($got.metrics[.key].value != .value.value)
        | "\(.key): \($got.metrics[.key].value), ledger has \(.value.value)"),
      ($want["host.alloc_mb_per_op"].value as $mb | $got.metrics["host.alloc_mb_per_op"].value
        | select(. > 1.25 * $mb)
        | "host.alloc_mb_per_op: \(.), more than 1.25 x the ledger value \($mb)"),
      (0.5 as $floor | $eff
        | select($want["cluster.parallel_eff"].value > 0 and . < $floor)
        | "cluster.parallel_eff: median of three runs \(.) < \($floor)")' "$ledger")
  if [ -n "$bad" ]; then
    echo "FAIL $w vs $ledger:"$'\n'"$bad" >&2
    status=1
  else
    echo "ok   $w: counts equal $ledger"
  fi
done
exit $status
