#!/usr/bin/env bash
# Rewrites steerbench/reference.json with the steering decisions of every
# workload for seeds 0 to N-1 (default 20) at the checked-out revision.
# Run it from the repository root, and only after a change that alters the
# loop's decisions on purpose: the benchmark fails any run whose seed has an
# entry and whose decisions differ from it.
set -euo pipefail
seeds=${1:-20}
cargo build --release --offline --manifest-path steerbench/Cargo.toml
bin=${CARGO_TARGET_DIR:-steerbench/target}/release/steerbench
out=steerbench/reference.json.new
{
  echo '{"entries": ['
  sep=''
  for workload in sticky-warm fresh-cold fleet-mixed durable-sticky; do
    for ((seed = 0; seed < seeds; seed++)); do
      printf '%s%s' "$sep" "$("$bin" --workload "$workload" --seed "$seed" --emit-reference)"
      sep=$',\n'
    done
  done
  printf '\n]}\n'
} > "$out"
mv "$out" steerbench/reference.json
