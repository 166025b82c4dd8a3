#!/usr/bin/env python3
"""End-to-end desk experiment driven through the CLI.

Trains the desk preset on the bandlimited dataset, samples with and
without encoder sharing, builds DP and uniform plans from a probe (its
step similarity lands in plan_dp/similarity.npy), and dumps the
dataset's spectral diagnostics. Everything lands under --out.
"""

import argparse
import json
import sys
from pathlib import Path

from ddtlab.cli import main as cli


def run(args: list[str]) -> None:
    print("$ ddtlab", " ".join(args))
    code = cli(args)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/desk", help="experiment directory")
    ap.add_argument("--steps", type=int, default=2000, help="training steps")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sample-steps", type=int, default=50)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.txt"
    config.write_text(
        f"preset=desk\nseed={args.seed}\nsteps={args.steps}\n"
        "batch=32\nlr=0.001\ndataset=bandlimited\n")

    run(["train", "--config", str(config), "--out", str(out / "train")])
    ckpt = str(out / "train" / "checkpoint.ckpt")

    run(["sample", "--checkpoint", ckpt, "--steps", str(args.sample_steps),
         "--seed", str(args.seed), "--out", str(out / "sample_full")])

    run(["plan", "--checkpoint", ckpt, "--steps", str(args.sample_steps),
         "--share-ratio", "0.75", "--strategy", "dp",
         "--seed", str(args.seed), "--out", str(out / "plan_dp")])
    run(["plan", "--similarity", str(out / "plan_dp" / "similarity.npy"),
         "--share-ratio", "0.75", "--strategy", "uniform",
         "--out", str(out / "plan_uniform")])

    run(["sample", "--checkpoint", ckpt, "--steps", str(args.sample_steps),
         "--plan", str(out / "plan_dp" / "plan.txt"),
         "--seed", str(args.seed), "--out", str(out / "sample_shared")])

    run(["diagnose", "--dataset", "bandlimited", "--seed", str(args.seed),
         "--out", str(out / "diagnose")])

    full = json.loads((out / "sample_full" / "eval.json").read_text())
    shared = json.loads((out / "sample_shared" / "eval.json").read_text())
    print("\nsummary")
    print(f"  full encoding : mmd {full['mmd']:.4f}  "
          f"nfe enc/dec {full['nfe_encoder']}/{full['nfe_decoder']}")
    print(f"  shared (0.75) : mmd {shared['mmd']:.4f}  "
          f"nfe enc/dec {shared['nfe_encoder']}/{shared['nfe_decoder']}")
    print(f"  noise baseline: mmd {full['mmd_noise_baseline']:.4f}")


if __name__ == "__main__":
    main()
