#!/usr/bin/env bash
# Release-mode bench smoke: run every bench binary for a few iterations so a
# perf-path crash (OOB table index, allocation blow-up, divergent loop) fails
# CI instead of the next person's perf run. Also checks that every
# BENCH_*.json the shared --json reporting writes parses, and runs the solver
# examples end to end. Usage:
# scripts/bench_smoke.sh <build-dir> [out-dir]
set -euo pipefail

build_dir=${1:?usage: bench_smoke.sh <build-dir> [out-dir]}
out_dir=${2:-"$build_dir/bench-json"}
mkdir -p "$out_dir"
src_dir=$(cd "$(dirname "$0")/.." && pwd)

runs=2
threads=2

run() {
  echo "--- $* ---"
  "$@" > /dev/null
}

run "$build_dir/bench_table1_success_rate" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_fig8_solution_distribution" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_fig9_distinct_solutions" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_fig10_time_to_solution" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_scaling" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_tiled_scaling" 1 --threads $threads --json "$out_dir/"
run "$build_dir/bench_serve_throughput" 3 --threads $threads --json "$out_dir/"
run "$build_dir/bench_store" 8 --json "$out_dir/"
run "$build_dir/bench_fig2_fefet_idvg"
run "$build_dir/bench_fig5_wta_cell"
run "$build_dir/bench_fig7a_crossbar_linearity"
run "$build_dir/bench_fig7b_wta_corners"
run "$build_dir/bench_ablation_quantization" $runs
run "$build_dir/bench_ablation_variability" $runs
run "$build_dir/bench_ablation_faults" $runs
run "$build_dir/bench_ablation_mlc" $runs
run "$build_dir/bench_ablation_squbo" $runs
if [ -x "$build_dir/bench_micro_vmv" ]; then
  run "$build_dir/bench_micro_vmv" --benchmark_min_time=0.01 --json "$out_dir/"
fi

# A broken writer must fail here, not ship an unparsable artifact. Python's
# json module accepts NaN and Infinity, which JSON does not, so reject them.
echo "--- parse every BENCH_*.json ---"
python3 -c 'import json, sys
def reject(constant):
    raise ValueError("not JSON: " + constant)
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            json.load(f, parse_constant=reject)
    except ValueError as e:
        sys.exit("%s: %s" % (path, e))
print("parsed %d reports" % len(sys.argv[1:]))' "$out_dir"/BENCH_*.json

# The solver examples. quickstart promises the same results for any thread
# count, so its stdout must not depend on --threads.
echo "--- quickstart --threads 1 vs --threads 8 ---"
example_dir=$(mktemp -d)
trap 'rm -rf "$example_dir"' EXIT
"$build_dir/quickstart" --threads 1 > "$example_dir/quickstart-1.txt"
"$build_dir/quickstart" --threads 8 > "$example_dir/quickstart-8.txt"
cmp "$example_dir/quickstart-1.txt" "$example_dir/quickstart-8.txt"
run "$build_dir/mixed_strategy_hunt"
run "$build_dir/repeated_pd_tournament"
run "$build_dir/solve_file" --runs 20 "$src_dir/examples/games/battle_of_sexes.game"
# Too many support pairs for a ground truth: the summary must skip it, not
# hang in support enumeration.
run timeout 60 "$build_dir/solve_file" --runs 2 --iterations 200 \
  "$src_dir/examples/games/random_64.game"

echo "bench smoke OK; JSON reports in $out_dir:"
ls "$out_dir"
