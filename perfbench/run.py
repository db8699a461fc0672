#!/usr/bin/env python3
"""Repo benchmark: build the harness from source, run one workload, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repo root. The harness (perfbench_harness, built from this
directory's CMakeLists.txt into .bench_build/) runs each workload in its own
processes. --trace 0 reports the end-to-end metrics: set-up time is the
median over several set-up processes (SETUP_MIN to SETUP_MAX); the
iteration timings of one measured process are reported at a nominal host
speed (see REF_NOMINAL_S). --trace 1 runs one process that times untraced
and then traced iterations, and reports the per-layer metrics.
Every metric is printed by name with its unit; the last stdout line is one
JSON object (correct, attempted, failed, metrics). README.md in this
directory documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("malec_synth", "baseline_replay", "fig4a_sweep")
# Set-up processes per --trace 0 call: at least SETUP_MIN, then more until
# SETUP_BUDGET_S of set-up time was spent or SETUP_MAX ran, so a set-up of a
# few milliseconds (dominated by process spawn) gets many more samples.
SETUP_MIN = 5
SETUP_MAX = 40
SETUP_BUDGET_S = 2.0
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170

# Host-speed scaling. A shared host runs the same iteration at speeds that
# differ by half within seconds and stay off for minutes; contention only
# ever slows a run. So each untraced iteration is preceded by one pass of a
# fixed reference work (referenceWork in harness.cpp) on the workload's
# thread count, and an iteration timing T is reported as
#   low(T) * REF_NOMINAL_S / low(reference pass times),
# where low() is the 10th percentile over the run. REF_NOMINAL_S is the
# reference pass's 10th percentile on the host the benchmark was defined
# on (README.md), so the scaled numbers read as that host's seconds.
REF_NOMINAL_S = 0.045


def low(values):
    """10th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


# name -> unit, in report order. Gated: BENCHMARK.json end_to_end.
END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "mips_norm": "Minstr/s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics of the traced run that every workload exercises
# (BENCHMARK.json per_layer).
PER_LAYER = {
    "trace.next_s": "s",
    "trace.next_calls": "count",
    "trace.ns_per_next": "ns",
    "cpu.self_s": "s",
    "cpu.cycles": "cycles",
    "cpu.ipc": "instr/cycle",
    "cpu.rob_full_cycles": "cycles",
    "cpu.dispatch_stall_cycles": "cycles",
    "cpu.lq_stall_cycles": "cycles",
    "core.begin_cycle_s": "s",
    "core.submit_s": "s",
    "core.end_cycle_s": "s",
    "core.drain_s": "s",
    "core.end_cycle_calls": "count",
    "core.submit_calls": "count",
    "core.submit_rejects": "count",
    "core.submit_accept_ratio": "fraction",
    "core.groups": "count",
    "core.entries_per_group": "entries/group",
    "core.merged_loads": "count",
    "core.ib_hold_events": "count",
    "core.bank_conflicts": "count",
    "core.port_conflicts": "count",
    "core.way_lookups": "count",
    "core.way_coverage": "fraction",
    "core.load_l1_accesses": "count",
    "core.load_l1_miss_rate": "fraction",
    "core.sb_forwards": "count",
    "energy.events": "count",
    "energy.report_s": "s",
    "sim.build_s": "s",
    "sim.runs": "count",
    "sim.mips.gcc": "Minstr/s",
    "sim.mips.mcf": "Minstr/s",
    "sim.mips.djpeg": "Minstr/s",
    "sim.cell_s_p50": "s",
    "sim.cell_s_max": "s",
    "sim.pool_busy_frac": "fraction",
    "ckpt.saves": "count",
    "ckpt.bytes": "bytes",
    "store.bytes": "bytes",
    "tracing_overhead_frac": "fraction",
}

# Traced-run timings of layers only some workloads exercise (checkpoints on
# baseline_replay, the store on fig4a_sweep). Printed, not in the JSON: on
# the other workloads they are structurally zero.
LAYER_EXTRAS = {
    "ckpt.save_s": "s",
    "ckpt.write_s": "s",
    "ckpt.restore_s": "s",
    "store.sink_s": "s",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.query_s": "s",
}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def nproc():
    return len(os.sched_getaffinity(0))


def build(bdir):
    """Configure and build the harness; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources next to {BENCH_DIR.name}/ "
             "(run from a full checkout of the repo)", 2)
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    # Configure every time: cheap when nothing changed, and CMake refuses a
    # build directory that another source tree configured, so a shared
    # CARGO_TARGET_DIR can never build (and measure) the wrong checkout.
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(bdir)],
             ["cmake", "--build", str(bdir), "--target", "perfbench_harness",
              "-j", str(nproc())]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log, "a") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())
                                    ).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                tail = log.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed ({rc}): {' '.join(cmd)}")
    harness = bdir / "perfbench_harness"
    if not harness.is_file():
        fail(f"build produced no {harness}")
    return harness


class Harness:
    def __init__(self, exe, workload, seed, workdir, deadline):
        self.exe, self.workload, self.seed = exe, workload, seed
        self.workdir, self.deadline = workdir, deadline

    def run(self, mode, seconds):
        left = self.deadline - time.monotonic()
        if left <= 0:
            fail("out of time budget before the run finished")
        t0 = time.monotonic_ns()
        cmd = [str(self.exe), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode,
               "--seconds", str(seconds),
               "--workdir", str(self.workdir), "--t0-ns", str(t0)]
        try:
            r = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=left)
        except subprocess.TimeoutExpired:
            fail(f"harness {mode} run timed out")
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-4000:])
            fail(f"harness {mode} run exited with {r.returncode}")
        lines = r.stdout.strip().splitlines()
        if not lines:
            fail(f"harness {mode} run printed no result")
        return json.loads(lines[-1])


def digest_check(bdir, exe, workload, seed, digest):
    """Same build, workload and seed -> same digest, across invocations.

    Returns (attempted, failed)."""
    stamp = exe.stat()
    key = [stamp.st_size, stamp.st_mtime_ns]
    ddir = bdir / "digests"
    ddir.mkdir(exist_ok=True)
    path = ddir / f"{workload}-seed{seed}.json"
    if path.is_file():
        prev = json.loads(path.read_text())
        if prev.get("harness") == key:
            return 1, int(prev["digest"] != digest)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({"harness": key, "digest": digest}))
    tmp.replace(path)
    return 1, 0


def spread_note(values):
    return (f"median of {len(values)} (min {min(values):.6g}, "
            f"max {max(values):.6g})")


def percentile(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[min(len(v) - 1, max(0, int(-(-q * len(v) // 100)) - 1))]


def report_line(name, value, unit, note=""):
    shown = f"{int(value):d}" if float(value).is_integer() else f"{value:.6f}"
    print(f"  {name:<34} {shown:>16} {unit:<14} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    bdir = build_dir()
    exe = build(bdir)
    workdir = bdir / "work" / f"{a.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    h = Harness(exe, a.workload, a.seed, workdir,
                time.monotonic() + RUN_BUDGET_S)
    try:
        results = []
        if a.trace == 0:
            spent = 0.0
            while len(results) < SETUP_MIN - 1 or (
                    spent < SETUP_BUDGET_S and len(results) < SETUP_MAX - 1):
                results.append(h.run("setup", a.seconds))
                spent += results[-1]["setup_s"]
        main_run = h.run("measure" if a.trace == 0 else "traced", a.seconds)
        results.append(main_run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    d_att, d_fail = digest_check(bdir, exe, a.workload, a.seed,
                                 main_run["digest"])
    attempted += d_att
    failed += d_fail

    walls = main_run["wall_s"]
    cpus = main_run["cpu_s"]
    mips = [n / w / 1e6 for n, w in zip(main_run["instructions"], walls)]
    instructions = statistics.median(main_run["instructions"])
    refs = main_run["ref_s"]
    speed = REF_NOMINAL_S / low(refs)
    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace} "
          f"jobs={nproc()}: {len(walls)} untraced iterations")
    metrics = {}
    if a.trace == 0:
        setups = [r["setup_s"] for r in results]
        wall_norm = low(walls) * speed
        values = {
            "setup_s": (statistics.median(setups), spread_note(setups)),
            "wall_norm_s": (wall_norm, "p10 wall_s at nominal host speed"),
            "mips_norm": (instructions / wall_norm / 1e6,
                          "instructions / wall_norm_s"),
            "cpu_norm_s": (low(cpus) * speed,
                           "p10 cpu_s at nominal host speed"),
            "peak_rss_mb": (main_run["peak_rss_mb"], "measured process"),
        }
        for name, unit in END_TO_END.items():
            value, note = values[name]
            report_line(name, value, unit, note)
            metrics[name] = {"value": value, "unit": unit}
        report_line("host_speed", speed, "x",
                    f"REF_NOMINAL_S / p10 of {len(refs)} reference passes")
        report_line("wall_s", statistics.median(walls), "s",
                    "unscaled, " + spread_note(walls))
        report_line("mips", statistics.median(mips), "Minstr/s",
                    "unscaled, " + spread_note(mips))
        report_line("cpu_s", statistics.median(cpus), "s",
                    "unscaled, " + spread_note(cpus))
        q = main_run["query_ms"]
        if q:
            report_line("query_ms_p50", statistics.median(q), "ms",
                        f"{len(q)} store load+query samples")
            report_line("query_ms_p90", percentile(q, 90), "ms",
                        f"{len(q) - int(0.9 * len(q))} samples beyond p90")
    else:
        layers = {k: statistics.median(v)
                  for k, v in main_run["layers"].items()}
        traced = main_run["traced_wall_s"]
        layers["tracing_overhead_frac"] = (
            statistics.median(traced) - statistics.median(walls)
        ) / statistics.median(walls)
        print(f"  per-layer metrics: medians of {len(traced)} traced "
              f"iterations")
        for name, unit in PER_LAYER.items():
            report_line(name, layers[name], unit)
            metrics[name] = {"value": layers[name], "unit": unit}
        for name, unit in LAYER_EXTRAS.items():
            if layers[name] != 0:
                report_line(name, layers[name], unit, "(printed only)")
    for name, value in sorted(main_run["model"].items()):
        report_line(name, value, "%", "informational, Base1ldst = 100")
    report_line("fail_rate", failed / max(1, attempted), "fraction",
                f"{failed}/{attempted} checks failed")
    print(f"  digest                             {main_run['digest']}")
    for msg in (r for res in results for r in res["failures"]):
        print(f"  FAILED CHECK: {msg}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
