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
# workloads that bypass the cluster read 0).
set -euo pipefail
cd "$(dirname "$0")/.."
ledger=$(ls BENCH_*.json | sort -t_ -k2 -n | tail -n 1)

go run ./bench --seconds 5

status=0
for w in $(jq -r '.workloads | keys_unsorted[]' "$ledger"); do
  got=$(go run ./bench --workload "$w" --trace 1 --seconds 5 -json | tail -n 1) || true
  bad=$(jq -r --arg w "$w" --argjson got "$got" '
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
      (0.5 as $floor | $got.metrics["cluster.parallel_eff"].value
        | select($want["cluster.parallel_eff"].value > 0 and . < $floor)
        | "cluster.parallel_eff: \(.) < \($floor)")' "$ledger")
  if [ -n "$bad" ]; then
    echo "FAIL $w vs $ledger:"$'\n'"$bad" >&2
    status=1
  else
    echo "ok   $w: counts equal $ledger"
  fi
done
exit $status
