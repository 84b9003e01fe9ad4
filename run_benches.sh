#!/bin/bash
# Regenerates every table/figure of the paper (see EXPERIMENTS.md) with the
# harnesses in build/bench/. Each harness prints its tables, then one stamp:
# line and its row: lines (bench/common.h); this collects all of them into
# bench_results/rows.txt. The micro_* binaries write google-benchmark JSON to
# bench_results/<name>.json instead. Exits nonzero if any binary failed.
cd "$(dirname "$0")" || exit 1
mkdir -p bench_results
rows=bench_results/rows.txt
: > "$rows"
failed=""
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue   # skip CMake artifacts
  name=$(basename "$b")
  envs=() args=()
  case "$name" in
    micro_*) args=(--benchmark_out="bench_results/$name.json" --benchmark_out_format=json) ;;
    # Codec sweep; fig9 gates the fp16 and int8 volume ratios against fp32.
    fig8_strong_scaling|fig9_comm_breakdown) envs=(GW2V_SYNC_CODEC=fp32,fp16,int8) ;;
    # Nonzero exit unless some SSP staleness matches naive accuracy at <= 0.5x bytes.
    ps_convergence) envs=(GW2V_PS_GATE=volume) ;;
    # Scratch spill directory, removed after the run.
    store_hitrate) envs=(GW2V_STORE_DIR=bench_results/store_spill) ;;
  esac
  echo "##### $name"
  env "${envs[@]}" "$b" "${args[@]}" | tee bench_results/last.txt
  [ "${PIPESTATUS[0]}" -eq 0 ] || failed="$failed $name"
  grep -E '^(stamp|row): ' bench_results/last.txt >> "$rows"
  echo
done
rm -rf bench_results/last.txt bench_results/store_spill
echo "collected $(grep -c '^row: ' "$rows") rows in $rows"
[ -z "$failed" ] || { echo "failed:$failed"; exit 1; }
