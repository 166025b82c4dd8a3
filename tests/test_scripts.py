"""The repository scripts' own wiring, checked without running them."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str, monkeypatch):
    """Import scripts/<name>.py as a module; its main() does not run."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # undo the script's insert
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hashes_samples_the_benchmark_modes(monkeypatch):
    hashes = load_script("output_hashes", monkeypatch)
    workloads = sys.modules["workloads"]
    assert Path(workloads.__file__).resolve() == ROOT / "perfbench" / "workloads.py"
    assert hashes.SAMPLE_MODES is workloads.SAMPLE_MODES


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
