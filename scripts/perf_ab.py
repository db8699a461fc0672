#!/usr/bin/env python3
"""Same-runner perf gate: this working tree against a base revision.

    python3 scripts/perf_ab.py <base-rev>

Exports <base-rev> with `git archive` into a temporary directory and runs
every BENCHMARK.json workload through perfbench (`perfbench/run.py --trace
0`) on both trees, in PAIRS alternating pairs: pair k runs the base first
when k is even. Each tree builds into its own .bench_build/. Every run's
JSON line goes to RECORDS; for each workload and end-to-end metric the
script prints both medians, the median per-pair ratio (head / base) and the
pairs the head lost. `decide` is the gate. Exit status: 0 pass, 1 fail, 2
bad usage.

Both trees run on one host, interleaved, so a slow spell of the host hits
both sides alike. A baseline measured on another day or host could not be
compared: a shared host's speed drifts by tens of percent.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_build" / "perf_ab.jsonl"
PAIRS = 10
SECONDS = 5
SEED = 1
# A metric fails when its median per-pair ratio is more than BOUND worse and
# the head loses more than half of the pairs. Code placement alone moves a
# binary's medians by several percent, and fig4a_sweep's setup_s by about
# 10% (CHANGES.md), so the bound sits above both.
BOUND = 0.20


def fail(msg, code):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(code)


def export(commit, dest):
    """Write the tree of `commit` into `dest`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"could not export {commit}", 1)


def run_once(tree, workload):
    """One perfbench run in `tree`; returns (exit status, its JSON or None)."""
    # run.py builds into $CARGO_TARGET_DIR when set: one directory for both
    # trees, which CMake refuses once the other tree has configured it.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run([sys.executable, "perfbench/run.py",
                        "--workload", workload, "--seed", str(SEED),
                        "--seconds", str(SECONDS), "--trace", "0"],
                       cwd=tree, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return r.returncode, None


def run_failure(rec, names):
    """Why a run record fails the gate, or None for a good run."""
    res = rec["result"] or {}
    missing = [n for n in names if n not in res.get("metrics", {})]
    if rec["rc"] == 0 and res.get("correct") is True and \
            res.get("failed", 1) == 0 and not missing:
        return None
    return (f"{rec['workload']} pair {rec['pair']} {rec['tree']}: exit "
            f"{rec['rc']}, correct={res.get('correct')}, "
            f"failed={res.get('failed')}"
            + (f", missing {', '.join(missing)}" if missing else ""))


def decide(records, end_to_end):
    """The gate over run records ({workload, pair, tree, rc, result}, with
    tree "base" or "head" and result perfbench's JSON line) and
    BENCHMARK.json's end_to_end list.

    Returns (rows, failures): a row per workload and metric (both medians,
    the median per-pair ratio head / base, pairs lost and compared) and a
    message per failure. A failed run fails the gate; so does a metric whose
    median per-pair ratio is more than BOUND worse in its `better`
    direction while the head loses more than half of the pairs."""
    names = [m["name"] for m in end_to_end]
    failures = []
    pairs = {}  # (workload, pair) -> {tree: metrics}
    for rec in records:
        why = run_failure(rec, names)
        if why:
            failures.append("run failed: " + why)
        else:
            pairs.setdefault((rec["workload"], rec["pair"]), {})[
                rec["tree"]] = rec["result"]["metrics"]
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        both = [p for (w, _), p in sorted(pairs.items())
                if w == workload and len(p) == 2]
        if not both:
            continue
        for m in end_to_end:
            name, higher = m["name"], m["better"] == "higher"
            base = [p["base"][name]["value"] for p in both]
            head = [p["head"][name]["value"] for p in both]
            ratio = statistics.median(h / b for h, b in zip(head, base))
            worse = 1 - ratio if higher else ratio - 1
            lost = sum((h < b) if higher else (h > b)
                       for h, b in zip(head, base))
            failed = worse > BOUND and 2 * lost > len(both)
            rows.append({"workload": workload, "metric": name,
                         "base": statistics.median(base),
                         "head": statistics.median(head), "ratio": ratio,
                         "lost": lost, "pairs": len(both), "failed": failed})
            if failed:
                failures.append(
                    f"{workload} {name}: median head/base {ratio:.3f} is "
                    f"{worse:.1%} worse (bound {BOUND:.0%}), head lost "
                    f"{lost}/{len(both)} pairs")
    return rows, failures


def measure(trees, bench, out):
    """Run every workload's pairs on `trees` ({"base": dir, "head": dir}),
    writing each record to `out`; stop at the first failed run, which fails
    the gate whatever follows."""
    names = [m["name"] for m in bench["end_to_end"]]
    records = []
    for workload in (w["name"] for w in bench["workloads"]):
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for tree in order:
                rc, result = run_once(trees[tree], workload)
                rec = {"workload": workload, "pair": pair, "tree": tree,
                       "rc": rc, "result": result}
                records.append(rec)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                metrics = (result or {}).get("metrics", {})
                shown = " ".join(f"{n}={metrics[n]['value']:.6g}"
                                 for n in names if n in metrics)
                print(f"{workload} pair {pair} {tree}: exit {rc} {shown}",
                      flush=True)
                if run_failure(rec, names):
                    return records
    return records


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        fail("usage: perf_ab.py <base-rev>", 2)
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             "--quiet", sys.argv[1] + "^{commit}"],
                            capture_output=True, text=True)
    if commit.returncode != 0:
        fail(f"'{sys.argv[1]}' names no commit", 2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    RECORDS.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp, \
            open(RECORDS, "w") as out:
        export(commit.stdout.strip(), Path(tmp))
        records = measure({"base": Path(tmp), "head": ROOT}, bench, out)

    rows, failures = decide(records, bench["end_to_end"])
    print(f"\n{'workload':<16} {'metric':<12} {'base':>12} {'head':>12} "
          f"{'head/base':>9} {'lost':>6}")
    for r in rows:
        print(f"{r['workload']:<16} {r['metric']:<12} {r['base']:>12.6g} "
              f"{r['head']:>12.6g} {r['ratio']:>9.3f} "
              f"{r['lost']:>3}/{r['pairs']:<2}"
              + ("  FAIL" if r["failed"] else ""))
    print(f"records: {RECORDS}")
    for f in failures:
        print(f"FAIL {f}")
    print("perf_ab: " + ("FAIL" if failures else "pass") +
          f" ({PAIRS} pairs, {SECONDS} s runs, seed {SEED}, bound "
          f"{BOUND:.0%})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
