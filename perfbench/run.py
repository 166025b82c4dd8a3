"""Run one ddtlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,sample,plan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ddtlab is imported from its src/. The
first run in a checkout trains the desk checkpoint that sample and plan
load (see NOTES.md) and caches it under .bench_build/.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones,
from untraced runs; with --trace 1 they are the per-layer ones, from a
run that wraps ddtlab's public functions in spans. The line before it
holds the machine record and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

from spans import Tracer
from stats import Ledger, layer_metrics, median, tail

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads(nproc: int) -> None:
    """Never run more BLAS threads than CPUs; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and (not value.isdigit() or int(value) > nproc):
            os.environ[var] = str(nproc)


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def end_to_end(workload, durations, setups, ledger) -> tuple[dict, dict]:
    op_ms = [1000.0 * d for d in durations]
    op_tail = tail(op_ms)
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": 1.0 - ledger.failed_ratio,
        "op_ms_p50": median(op_ms),
        "op_ms_tail": op_tail.value,
        "items_per_s": workload.items() * len(durations) / sum(durations),
        "quality_vs_baseline": workload.quality(),
    }
    kinds = {}
    for i, ms in enumerate(op_ms):
        kinds.setdefault(workload.kind(i), []).append(ms)
    details = {
        "ops": len(durations),
        "op_ms_p50_by_kind": {k: median(v) for k, v in kinds.items()},
        "op_ms_tail_pct": op_tail.pct,
        "op_ms_tail_beyond": op_tail.beyond,
        "setup_s_each": setups,
        "ops_failed_ratio": ledger.failed_ratio,
        **workload.details(),
    }
    return values, details


def timed_run(cls, args, checkpoint, scratch):
    from workloads import cycles_for, measure
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = cls(args.seed, checkpoint, scratch)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    ledger = Ledger()
    durations = measure(workload, cycles_for(workload, args.seconds), ledger)
    values, details = end_to_end(workload, durations, setups, ledger)
    return values, details, ledger


def traced_run(cls, args, checkpoint, scratch):
    """Three passes over the same operations, each from a fresh set-up: a
    warm-up (a process's first requests run slower), a traced pass, and
    an untraced one. Traced over untraced time is the tracing overhead."""
    from workloads import cycles_for, graph_nodes, measure
    ledger = Ledger()

    def run_pass(tracer=None):
        workload = cls(args.seed, checkpoint, scratch)
        workload.setup()
        return workload, measure(workload, cycles_for(workload, args.seconds), ledger, tracer)

    run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        workload, traced = run_pass(tracer)
        nodes = graph_nodes(workload.model, workload.dataset, args.seed)
    finally:
        tracer.uninstall()
    _, untraced = run_pass()
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    values = layer_metrics(tracer.spans, traced, untraced, nodes, workload.skipped)
    details = {"ops": len(traced), "spans": len(tracer.spans),
               "trace_file": str(trace_path.relative_to(ROOT))}
    return values, details, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "sample", "plan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ddtlab" / "__init__.py").is_file():
        print(f"benchmark: no ddtlab sources under {ROOT / 'src'}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import ddtlab
    if Path(ddtlab.__file__).resolve().parent != ROOT / "src" / "ddtlab":
        print(f"benchmark: imported ddtlab from {ddtlab.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    # workloads imports ddtlab, so it loads only once src/ is on the path
    from workloads import WORKLOADS, ensure_checkpoint
    checkpoint, build_s = ensure_checkpoint(ROOT)
    scratch = ROOT / ".bench_build" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        values, details, ledger = run(WORKLOADS[args.workload], args, checkpoint, str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit_of = {m["name"]: m["unit"]
               for m in units["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(nproc),
        "checkpoint": {"path": os.path.relpath(checkpoint, ROOT), "build_s": build_s},
        "failures": ledger.failures,
        **details,
    }))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit_of[name]}
                    for name in unit_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
