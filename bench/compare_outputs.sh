#!/usr/bin/env bash
# Runs every deterministic output surface from two build trees and reports,
# per program, whether the two outputs are identical:
#   - the 17 figure/table benches (fig*, table*, ablation_state_size),
#   - the 8 examples,
#   - the gated benches in their CI configurations (perf_smoke with
#     TAS_WATCHDOG_BENCH=1 and with TAS_LATENCY=1, proxy_cycles,
#     million_flow_churn, watchdog_chaos).
#
#   bench/compare_outputs.sh <build-a> <build-b>
#
# Each build tree is a CMake build directory (holding bench/ and examples/).
# Before comparing, each output loses what measures the host rather than the
# simulation: the "wall" object of its BENCH_JSON record and the printed
# wall-clock and peak-RSS table rows; runs of spaces are squeezed, since a
# wider wall-clock value re-pads its table. Every program runs at the default
# (reduced) scale in its own working directory, with the TAS_* environment
# toggles cleared, and its exit code is part of its output. Normalized outputs
# stay under $OUT_DIR (default: a fresh temporary directory) for diffing.
# Exits 0 when every output is identical, 1 when any differs, 2 on bad usage.
set -u

if [ $# -ne 2 ] || [ ! -d "$1/bench" ] || [ ! -d "$2/bench" ]; then
  echo "usage: $0 <build-a> <build-b>  (CMake build directories)" >&2
  exit 2
fi
build_a=$(cd "$1" && pwd)
build_b=$(cd "$2" && pwd)
out_dir=${OUT_DIR:-$(mktemp -d -t compare_outputs.XXXXXX)}
mkdir -p "$out_dir"

# name|environment|program (relative to the build tree)|arguments
programs=(
  "ablation_state_size||bench/ablation_state_size|"
  "fig4_connscale||bench/fig4_connscale|"
  "fig5_shortlived||bench/fig5_shortlived|"
  "fig6_pipelined||bench/fig6_pipelined|"
  "fig7_loss||bench/fig7_loss|"
  "fig8_kv_scaling||bench/fig8_kv_scaling|"
  "fig9_kv_latency||bench/fig9_kv_latency|"
  "fig10_flexstorm||bench/fig10_flexstorm|"
  "fig11_cc_interval||bench/fig11_cc_interval|"
  "fig12_cluster||bench/fig12_cluster|"
  "fig13_incast||bench/fig13_incast|"
  "fig14_proportionality||bench/fig14_proportionality|"
  "fig15_scaling_latency||bench/fig15_scaling_latency|"
  "table1_cycles||bench/table1_cycles|"
  "table2_counters||bench/table2_counters|"
  "table4_compat||bench/table4_compat|"
  "table7_nonscalable||bench/table7_nonscalable|"
  "analytics_pipeline||examples/analytics_pipeline|"
  "chaos_lab||examples/chaos_lab|"
  "congestion_lab||examples/congestion_lab|"
  "kv_cluster||examples/kv_cluster|"
  "latency_lab||examples/latency_lab|"
  "proxy_lab||examples/proxy_lab|"
  "quickstart||examples/quickstart|"
  "trace_lab||examples/trace_lab|"
  "perf_smoke|TAS_WATCHDOG_BENCH=1|bench/perf_smoke|"
  "perf_smoke_latency|TAS_LATENCY=1|bench/perf_smoke|"
  "proxy_cycles||bench/proxy_cycles|"
  "million_flow_churn||bench/million_flow_churn|"
  "watchdog_chaos||bench/watchdog_chaos|watchdog_chaos"
)

# Printed rows that read the host clock or the host's memory.
host_rows='^(wall seconds|events/sec|wall ns/event|peak RSS MiB|armed wall seconds|recorder overhead \(wall\)|A: wall sec|B: wall sec \(each run\)|B: recorder overhead \(wall\)) '

normalize() {
  grep -Ev "$host_rows" | sed -E -e 's/^(BENCH_JSON .*),"wall":\{.*\}\}$/\1}/' -e 's/ +/ /g'
}

# run <build> <tag> <name> <env> <program> <args>
run() {
  local build=$1 tag=$2 name=$3 env_kv=$4 prog=$5 args=$6
  local work="$out_dir/$tag.work/$name"
  mkdir -p "$work"
  (
    cd "$work" || exit 1
    env -u TAS_SCALE -u TAS_LATENCY -u TAS_WATCHDOG_BENCH -u TAS_TRACE_OUT $env_kv \
      "$build/$prog" $args < /dev/null 2>&1
    echo "exit: $?"
  ) | normalize > "$out_dir/$tag.$name.out"
}

differing=0
for entry in "${programs[@]}"; do
  IFS='|' read -r name env_kv prog args <<< "$entry"
  run "$build_a" a "$name" "$env_kv" "$prog" "$args" &
  run "$build_b" b "$name" "$env_kv" "$prog" "$args" &
  wait
  if cmp -s "$out_dir/a.$name.out" "$out_dir/b.$name.out"; then
    printf 'identical  %s\n' "$name"
  else
    printf 'DIFFERS    %s  (diff %s/{a,b}.%s.out)\n' "$name" "$out_dir" "$name"
    differing=$((differing + 1))
  fi
done
echo "$differing of ${#programs[@]} outputs differ; normalized outputs in $out_dir"
[ "$differing" -eq 0 ]
