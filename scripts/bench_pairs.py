#!/usr/bin/env python3
"""Paired benchmark runs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent REV --label NAME [--pairs 10]

Run from the root of the repository. The parent revision and the
working tree's tracked files (as `git stash create` records them, new
files only once `git add`ed) are each exported with `git archive` into
a temporary directory (set TMPDIR to choose where), so both sides run
from a fresh checkout in like places. Both sides first make one
discarded run, which builds and caches their desk checkpoint. Then the
working tree's scripts/output_hashes.py runs once in each side's
export, on that side's ddtlab, so both sides print the same keys.

For every workload of BENCHMARK.json, pair i runs `perfbench/run.py`
at seed SEED0 + i on both sides with the command and run length of
BENCHMARK.json, the parent first in even pairs and the working tree
first in odd ones. The result goes to BENCH_<label>.json: every run's
end-to-end metrics, the sha256 of each side's desk checkpoint, each
side's output hashes and, per key, whether they agree
(`outputs_identical`; a key that only one side printed reads false, and
so does a side that printed no keys), and per workload and metric each
side's min, quartiles and median, its wins over the pairs (ties count
for neither), the change of the median against the metric's bound and
`gain_shown`: the working tree won at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's
interquartile range (q3 - q1). Each workload also gets each side's
median ms per request kind.

Every run also records the BLAS thread count it ran with and the thread
variables of its environment. A workload whose runs did not all run with
one BLAS thread count gets no summary, only a "refused" reason, and the
script exits 1: with a different BLAS thread count the two sides run
with different parallelism (ddtlab's row slices run side by side only
with two or more threads), so their timings are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "work")
SEED0 = 1000


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_rev(rev: str, dest: Path) -> None:
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_once(bench: dict, side_root: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark process; its last two output lines are the detail
    record and the metrics record."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side_root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} in {side_root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    *_, detail, result = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail), json.loads(result)
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "op_ms_p50_by_kind": detail["op_ms_p50_by_kind"],
        "checkpoint": detail["checkpoint"]["path"],
        "blas_threads": detail["machine"]["blas_threads"],
        "thread_env": detail["machine"]["thread_env"],
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3}


def summarize(bench: dict, runs: dict) -> dict:
    """Per metric: each side's spread and wins, the median change and
    whether a gain is shown. Then per side and request kind, the median over the runs of each
    run's median ms, which shows the kind that op_ms_p50 lands on.
    Raises ValueError when the runs did not all use one BLAS thread count."""
    threads = {side: {r["blas_threads"] for r in runs[side]} for side in SIDES}
    if len(threads["parent"] | threads["work"]) != 1:
        raise ValueError(f"BLAS threads differ: parent ran with {threads['parent']}, "
                         f"work with {threads['work']}")
    out = {}
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        wins = dict.fromkeys(SIDES, 0)
        for p, w in zip(values["parent"], values["work"]):
            if p != w:
                wins["work" if (w > p) == higher else "parent"] += 1
        row = {side: {**spread(values[side]), "wins": wins[side]} for side in SIDES}
        base, new = row["parent"]["median"], row["work"]["median"]
        change = (new - base) / abs(base) if base else 0.0
        worse = -change if higher else change
        row["median_change"] = change
        row["bound"] = metric["bound"]
        row["within_bound"] = worse <= metric["bound"]
        # a gain counts when the change wins nine tenths of the pairs and
        # its median beats the parent's by more than the parent's q3 - q1
        gap = (new - base) if higher else (base - new)
        row["gain_shown"] = (wins["work"] >= 0.9 * len(values["parent"])
                             and gap > row["parent"]["q3"] - row["parent"]["q1"])
        out[name] = row
    out["op_ms_p50_by_kind"] = {
        side: {kind: statistics.median(r["op_ms_p50_by_kind"][kind] for r in runs[side])
               for kind in runs[side][0]["op_ms_p50_by_kind"]}
        for side in SIDES}
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(side_root: Path) -> dict[str, str]:
    """The `key sha256` lines of the working tree's output_hashes.py run
    on one side's ddtlab; if there are none (the script failed, with a
    note), a `<side> printed no keys` key that the other side lacks."""
    env = dict(os.environ, PYTHONPATH=str(side_root / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_hashes.py")],
                          cwd=side_root, env=env, capture_output=True, text=True)
    hashes = {}
    if proc.returncode != 0:
        print(f"output_hashes.py in {side_root} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    else:
        hashes = dict(line.split() for line in proc.stdout.strip().splitlines())
    return hashes or {f"{side_root.name} printed no keys": "none"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent_rev = git("rev-parse", args.parent)
    # a commit of the tracked working files; empty when they match HEAD
    work_rev = git("stash", "create") or git("rev-parse", "HEAD")
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        roots = {side: tmp / side for side in SIDES}
        export_rev(parent_rev, roots["parent"])
        export_rev(work_rev, roots["work"])
        checkpoints, hashes = {}, {}
        for side in SIDES:
            warm = run_once(bench, roots[side], workloads[0], SEED0 - 1, 1.0)
            checkpoints[side] = sha256(roots[side] / warm["checkpoint"])
            hashes[side] = output_hashes(roots[side])
        report = {"parent": parent_rev, "pairs": args.pairs, "run_seconds": seconds,
                  "checkpoint_sha256": checkpoints,
                  "checkpoints_identical": checkpoints["parent"] == checkpoints["work"],
                  "output_hashes": hashes,
                  "outputs_identical": {
                      key: hashes["parent"].get(key) == hashes["work"].get(key)
                      for key in {**hashes["parent"], **hashes["work"]}},
                  "workloads": {}}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(bench, roots[side], workload, SEED0 + i, seconds)
                    runs[side].append({**run, "order": order.index(side)})
                    print(f"{workload} pair {i} {side}: "
                          f"op_ms_p50 {run['metrics']['op_ms_p50']:.1f}", file=sys.stderr)
            try:
                report["workloads"][workload] = {"runs": runs,
                                                 "summary": summarize(bench, runs)}
            except ValueError as err:
                print(f"{workload}: not summarised: {err}", file=sys.stderr)
                report["workloads"][workload] = {"runs": runs, "summary": None,
                                                 "refused": str(err)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 1 if any("refused" in w for w in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
