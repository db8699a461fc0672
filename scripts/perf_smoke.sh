#!/usr/bin/env bash
# Pinned-budget performance smoke: times a fig4a sweep, a trace replay and
# a checkpoint save/resume pass (-> BENCH_ckpt.json), the process-sharded
# coordinator against the same in-process grid (-> BENCH_sweep.json
# beside it), the `.mstore` result-store append + query path
# (-> BENCH_store.json), single-run core throughput over the Table-I
# configs (-> BENCH_core.json, the hot-loop overhaul's gate), and a
# full-tree malec_lint pass (-> BENCH_lint.json) — so perf regressions,
# coordinator overhead, store overhead and developer-loop lint cost all
# show up as diffable artifacts instead of anecdotes.
# scripts/bench_compare.sh diffs these against bench/baselines/ in CI.
#
# Usage: scripts/perf_smoke.sh <build-dir> [out.json]
# Budgets are pinned here (NOT via MALEC_INSTR) so runs are comparable
# across CI invocations regardless of the suite-shrinking env.
set -euo pipefail

build_dir="${1:?usage: perf_smoke.sh <build-dir> [out.json]}"
out="${2:-BENCH_ckpt.json}"

instr=60000        # fig4a grid budget per run
trace_instr=120000 # capture length for the replay + checkpoint passes
ckpt_every=50000

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

now() { date +%s.%N; }
elapsed() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", b - a }'; }

# 1. fig4a sweep (full workload x config grid, table sink to /dev/null).
t0="$(now)"
MALEC_INSTR="$instr" "$build_dir/malec_bench" --suite fig4a \
  --sink table > /dev/null
t1="$(now)"
fig4a_s="$(elapsed "$t0" "$t1")"

# 2. trace replay: capture once, replay through the default config.
#    MALEC_INSTR=0 pins the replays to the whole capture — a CI-level
#    MALEC_INSTR (e.g. 20000) would otherwise cap them below ckpt_every
#    and the checkpoint pass would never write a file to resume.
"$build_dir/trace_tools" gen gcc "$trace_instr" "$workdir/perf.mtrace" \
  > /dev/null
t0="$(now)"
MALEC_INSTR=0 "$build_dir/trace_tools" run "$workdir/perf.mtrace" > /dev/null
t1="$(now)"
replay_s="$(elapsed "$t0" "$t1")"

# 3. checkpoint pass: a checkpointing run, then a resume in a NEW process;
#    the two reports must byte-diff clean (the determinism contract).
t0="$(now)"
MALEC_INSTR=0 "$build_dir/trace_tools" run "$workdir/perf.mtrace" \
  --ckpt-out "$workdir/perf.mckpt" --ckpt-every "$ckpt_every" \
  > "$workdir/full.txt"
t1="$(now)"
ckpt_save_s="$(elapsed "$t0" "$t1")"

t0="$(now)"
MALEC_INSTR=0 "$build_dir/trace_tools" run "$workdir/perf.mtrace" \
  --from-ckpt "$workdir/perf.mckpt" > "$workdir/resumed.txt"
t1="$(now)"
ckpt_resume_s="$(elapsed "$t0" "$t1")"

diff "$workdir/full.txt" "$workdir/resumed.txt" > /dev/null || {
  echo "perf_smoke: resumed report differs from the straight-through run" >&2
  exit 1
}

# 4. coordinator overhead: the same small grid in-process vs sharded
#    across worker processes. The two reports must byte-diff clean (the
#    fault-tolerance contract) and the timing delta IS the coordinator's
#    price — fork/exec, journal fsyncs, result-file round trips.
sweep_workers=2
t0="$(now)"
MALEC_INSTR="$instr" "$build_dir/malec_bench" --suite fig4a --filter gcc \
  --jobs "$sweep_workers" > "$workdir/sweep_inproc.txt"
t1="$(now)"
sweep_inproc_s="$(elapsed "$t0" "$t1")"

t0="$(now)"
MALEC_INSTR="$instr" "$build_dir/malec_bench" --suite fig4a --filter gcc \
  --workers "$sweep_workers" --journal "$workdir/perf.mjournal" \
  > "$workdir/sweep_coord.txt"
t1="$(now)"
sweep_coord_s="$(elapsed "$t0" "$t1")"

diff "$workdir/sweep_inproc.txt" "$workdir/sweep_coord.txt" > /dev/null || {
  echo "perf_smoke: coordinated sweep differs from the in-process run" >&2
  exit 1
}

# 5. result store: the same grid once more with a store sink (the timing
#    delta vs sweep_inproc_s is the append price: encode + index + atomic
#    rewrite), then a batch of queries over the written store (load +
#    validate + select/sort dominate; each query is a fresh process).
query_iters=10
t0="$(now)"
MALEC_INSTR="$instr" "$build_dir/malec_bench" --suite fig4a --filter gcc \
  --jobs "$sweep_workers" --sink table --sink store \
  --store "$workdir/perf.mstore" > /dev/null
t1="$(now)"
store_write_s="$(elapsed "$t0" "$t1")"

t0="$(now)"
for _ in $(seq "$query_iters"); do
  "$build_dir/malec_bench" query --store "$workdir/perf.mstore" \
    --sort ipc --desc --format json > /dev/null
done
t1="$(now)"
store_query_s="$(elapsed "$t0" "$t1")"

cat > "$out" <<JSON
{
  "bench": "perf_smoke",
  "budgets": {"fig4a_instr": $instr, "trace_instr": $trace_instr,
              "ckpt_every": $ckpt_every},
  "fig4a_s": $fig4a_s,
  "trace_replay_s": $replay_s,
  "ckpt_save_s": $ckpt_save_s,
  "ckpt_resume_s": $ckpt_resume_s
}
JSON
echo "perf_smoke: wrote $out"
cat "$out"

sweep_out="$(dirname "$out")/BENCH_sweep.json"
cat > "$sweep_out" <<JSON
{
  "bench": "sweep_coordinator_overhead",
  "budgets": {"fig4a_instr": $instr, "workers": $sweep_workers,
              "grid": "fig4a --filter gcc (1 workload x 5 configs)"},
  "inprocess_s": $sweep_inproc_s,
  "coordinated_s": $sweep_coord_s
}
JSON
echo "perf_smoke: wrote $sweep_out"
cat "$sweep_out"

store_out="$(dirname "$out")/BENCH_store.json"
cat > "$store_out" <<JSON
{
  "bench": "result_store_throughput",
  "budgets": {"fig4a_instr": $instr, "grid": "fig4a --filter gcc",
              "query_iters": $query_iters},
  "store_write_s": $store_write_s,
  "store_query_s": $store_query_s
}
JSON
echo "perf_smoke: wrote $store_out"
cat "$store_out"

# 6. core single-run throughput: one long synthetic run per Table-I
#    config, no sweep/store machinery in the way — this is the number the
#    hot-loop overhaul (calendar exec queue, arena ROB, SoA scans,
#    translation memo) moves, and the one its baseline gates. The budget
#    is long enough that process startup is noise.
core_instr=1500000
core_s_for() {
  local cfg="$1" t0 t1
  t0="$(now)"
  "$build_dir/trace_tools" synth gcc --config "$cfg" \
    --instr "$core_instr" > /dev/null
  t1="$(now)"
  elapsed "$t0" "$t1"
}
core_malec_s="$(core_s_for MALEC)"
core_base2ld1st_s="$(core_s_for Base2ld1st)"
core_base1ldst_s="$(core_s_for Base1ldst)"

core_out="$(dirname "$out")/BENCH_core.json"
cat > "$core_out" <<JSON
{
  "bench": "core_single_run_throughput",
  "budgets": {"workload": "synth gcc", "core_instr": $core_instr},
  "core_malec_s": $core_malec_s,
  "core_base2ld1st_s": $core_base2ld1st_s,
  "core_base1ldst_s": $core_base1ldst_s
}
JSON
echo "perf_smoke: wrote $core_out"
cat "$core_out"

# 7. static-analysis throughput: one full-tree malec_lint pass (every
#    rule family + schema extraction over src/ + tools/ + bench/). The
#    lint runs on every CI build and before every commit, so its wall
#    clock is a developer-loop cost worth gating like the simulator's.
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
t0="$(now)"
"$build_dir/malec_lint" --root "$repo_root" \
  --allowlist "$repo_root/tools/lint/allowlist.txt" > /dev/null
t1="$(now)"
lint_full_tree_s="$(elapsed "$t0" "$t1")"

lint_out="$(dirname "$out")/BENCH_lint.json"
cat > "$lint_out" <<JSON
{
  "bench": "lint_full_tree",
  "budgets": {"tree": "src + tools + bench, all rule families + schemas"},
  "lint_full_tree_s": $lint_full_tree_s
}
JSON
echo "perf_smoke: wrote $lint_out"
cat "$lint_out"
