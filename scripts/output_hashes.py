#!/usr/bin/env python3
"""Print a sha256 of each of ddtlab's outputs, one `key sha256` line per key.

    PYTHONPATH=src python3 scripts/output_hashes.py

Two revisions that print the same lines compute the same outputs bit for
bit. The keys:

  weights        the desk model, seed 0, after 12 train() steps at batch
                 32 (two row slices): every state_arrays() entry in order,
                 its name, dtype and shape included
  weights_blas1  the same in a child process with OPENBLAS_NUM_THREADS=1,
                 where both row slices run in the calling process; it
                 must equal `weights`
  sample/<mode>  the sample benchmark's request in each of its modes, on
                 those weights, with the encoder and decoder NFE counts:
                 the mode table, inputs and plans come from
                 perfbench/workloads.py (SampleWorkload.setup at seed 0)
  plan/<name>    the dp and uniform plans, anchors and utility, on a
                 seeded N=250 cosine similarity matrix at share ratio 0.75
  diagnose       the spectrum CSVs of `ddtlab diagnose` with its defaults
  probe          similarity.npy and plan.txt of `ddtlab plan --checkpoint`
                 on those weights: a 20-step adams2 probe at shift 2 with
                 24 rows (two row slices) and a dp plan at share ratio 0.75

It takes 10 to 18 s on 2 CPUs (Intel Xeon) with OpenBLAS at 2 threads,
as that machine's speed drifts between runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import ddtlab
from ddtlab import cli, samplers, sharesched
from ddtlab.datasets import make_dataset
from ddtlab.model import DDTModel, preset, save_checkpoint
from ddtlab.rng import substream
from ddtlab.train import train

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SAMPLE_MODES, SAMPLE_STEPS, SHARE_RATIO, SampleWorkload  # noqa: E402

SEED = 0
TRAIN_STEPS = 12
BATCH = 32
PLAN_STEPS = 250


def digest(*parts) -> str:
    """sha256 over parts: arrays by dtype, shape and bytes, anything else
    by repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def trained_model() -> DDTModel:
    model = DDTModel(preset("desk"), seed=SEED)
    train(model, make_dataset("bandlimited"), steps=TRAIN_STEPS, batch_size=BATCH,
          seed=SEED, alignment_weight=0.5, lr=1e-3, label_drop=0.1)
    return model


def weights_hash(model: DDTModel) -> str:
    return digest(*[part for name, a in model.state_arrays().items() for part in (name, a)])


def weights_with_one_blas_thread() -> str:
    """`weights` from a child process that imports this same ddtlab."""
    src = str(Path(ddtlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    out = subprocess.run([sys.executable, __file__, "weights"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()[-1]


def saved(model: DDTModel, tmp: str) -> str:
    path = os.path.join(tmp, "model.ckpt")
    save_checkpoint(path, model.config, model.state_arrays())
    return path


def sample_hashes(model: DDTModel) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        bench = SampleWorkload(SEED, saved(model, tmp), tmp)
        bench.setup()
    model, hashes = bench.model, {}
    for mode, solver, shift, guidance, plan in SAMPLE_MODES:
        grid = samplers.make_timegrid(SAMPLE_STEPS, shift=shift)
        model.reset_counters()
        x = sharesched.sample_with_sharing(model, bench.x0, grid, bench.plans.get(plan),
                                           bench.y, guidance=guidance, solver=solver)
        hashes[f"sample/{mode}"] = digest(x, model.nfe_encoder, model.nfe_decoder)
    return hashes


def plan_hashes() -> dict[str, str]:
    """Plans on the cosines of a seeded random walk of step features."""
    z = np.cumsum(substream(SEED, "plan-walk").standard_normal((PLAN_STEPS, 16)), axis=0)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    s = z @ z.T
    s = np.clip(0.5 * (s + s.T), -1.0, 1.0)
    np.fill_diagonal(s, 1.0)
    sim = sharesched.SimilarityMatrix(s)
    k = cli._budget_from_ratio(PLAN_STEPS, SHARE_RATIO)
    dp = sharesched.plan_dp(sim, k)
    uniform = sharesched.plan_uniform(PLAN_STEPS, k).anchors
    return {"plan/dp": digest(dp.anchors, dp.utility.hex()),
            "plan/uniform": digest(uniform, sharesched.plan_utility(sim, uniform).hex())}


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")


def diagnose_hash() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["diagnose", "--seed", str(SEED), "--out", tmp])
        csvs = sorted(Path(tmp).glob("spectrum_*.csv"))
        return digest(*[part for p in csvs for part in (p.name, p.read_bytes())])


def probe_hash(model: DDTModel) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "plan")
        run_cli(["plan", "--checkpoint", saved(model, tmp), "--steps", "20",
                 "--solver", "adams2", "--shift", "2", "--probe-size", "24",
                 "--share-ratio", "0.75", "--out", str(out)])
        return digest((out / "similarity.npy").read_bytes(), (out / "plan.txt").read_bytes())


def main() -> None:
    model = trained_model()
    if sys.argv[1:] == ["weights"]:
        print("weights", weights_hash(model))
        return
    hashes = {"weights": weights_hash(model),
              "weights_blas1": weights_with_one_blas_thread(),
              **sample_hashes(model), **plan_hashes(), "diagnose": diagnose_hash(),
              "probe": probe_hash(model)}
    for key, value in hashes.items():
        print(key, value)


if __name__ == "__main__":
    main()
