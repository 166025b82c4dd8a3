"""The repository scripts' own wiring, and smoke runs of the short ones."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ddtlab.samplers import SOLVER_ORDERS
from ddtlab.sharesched import read_plan

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str, monkeypatch, folder: str = "scripts"):
    """Import <folder>/<name>.py as a module; its main() does not run."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # undo the script's insert
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hashes_samples_the_benchmark_modes(monkeypatch):
    hashes = load_script("output_hashes", monkeypatch)
    workloads = sys.modules["workloads"]
    assert Path(workloads.__file__).resolve() == ROOT / "perfbench" / "workloads.py"
    assert hashes.SAMPLE_MODES is workloads.SAMPLE_MODES


def test_trace_targets_resolve_and_uninstall_restores(monkeypatch):
    # perfbench --trace 1 patches these names; a rename breaks it
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    spans = load_script("spans", monkeypatch, folder="perfbench")
    functions, solvers = spans._targets()
    targets = [(owner, attr) for owner, attr, *_ in functions + solvers]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if attr not in vars(owner)]
    assert not missing
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(targets, originals))


@pytest.mark.parametrize("code", [1, 0])  # the script failed, or printed nothing
def test_bench_pairs_side_without_keys_is_never_identical(tmp_path, monkeypatch, code):
    bench_pairs = load_script("bench_pairs", monkeypatch)
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda args, **kw: subprocess.CompletedProcess(args, code, "", "boom"))
    parent, work = (bench_pairs.output_hashes(tmp_path / side) for side in bench_pairs.SIDES)
    assert parent == {"parent printed no keys": "none"}
    assert work == {"work printed no keys": "none"}
    # main's outputs_identical reads false for a key only one side printed
    assert parent.keys().isdisjoint(work)


def run_script(name: str, argv: list[str], monkeypatch) -> None:
    """Run scripts/<name>.py's main() in this process with argv; a
    sys.exit with a non-zero code fails the test."""
    module = load_script(name, monkeypatch)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    try:
        module.main()
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{name} exited {exc.code}"


def test_run_desk_experiment_smoke(tmp_path, monkeypatch):
    out = tmp_path / "desk"
    run_script("run_desk_experiment", ["--out", str(out), "--steps", "5",
                                       "--sample-steps", "4"], monkeypatch)
    plan, _ = read_plan(out / "plan_dp" / "plan.txt")
    shared = json.loads((out / "sample_shared" / "eval.json").read_text())
    assert (shared["nfe_encoder"], shared["nfe_decoder"]) == (plan.K, 4)


def test_solver_sweep_smoke(monkeypatch, capsys):
    run_script("solver_sweep", ["--steps", "25", "50", "--shifts", "1"], monkeypatch)
    # a blank line, the shift, the header, then one row per solver
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:]]
    assert [row[0] for row in rows] == list(SOLVER_ORDERS)
    assert all(len(row) == 4 for row in rows)  # name, two errors, one order
