"""Command-line interface.

Subcommands: train | sample | plan | diagnose. Every command derives all
randomness from --seed via named substreams, writes its primary outputs
atomically (temp-and-rename), and drops a manifest.json recording inputs
(with content checksums), outputs, settings and the run environment so
a run can be audited and replayed.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from .datasets import DATASETS, make_dataset
from .errors import FormatError, NumericalError, UsageError
from .files import atomic_write, open_text
from .metrics import mmd_rbf, spectral_distance
from .model import DDTModel, load_checkpoint, preset, save_checkpoint
from .numcore import blas_threads, row_slices, worker_regions
from .rng import substream
from .samplers import GuidanceSpec, SOLVER_ORDERS, make_timegrid
from .sharesched import (
    BRUTEFORCE_MAX_N,
    STRATEGIES,
    SharingPlan,
    SimilarityMatrix,
    plan_bruteforce,
    plan_dp,
    plan_uniform,
    plan_utility,
    probe_similarity,
    read_plan,
    read_similarity,
    sample_with_sharing,
    similarity_checksum,
    write_plan,
    write_similarity,
)
from .spectral import (
    SpectrumProfile,
    empirical_noisy_spectrum,
    radial_spectrum,
    write_spectrum_csv,
)
from .train import (
    dataset_for,
    parse_train_config,
    read_count,
    train,
    write_metrics_csv,
    Adam,
)

__all__ = ["main", "build_parser"]


def _checksum_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_model(path) -> tuple[DDTModel, dict[str, np.ndarray]]:
    """The model in a checkpoint, plus every array the file holds (the
    optimizer state and the step count of a training run among them)."""
    config, arrays = load_checkpoint(path)
    return DDTModel.from_arrays(config, arrays), arrays


# the thread variables a manifest records as they were set
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(slices: int | None, regions_before: int) -> dict:
    """What a run computed with: the CPUs it may use, the software, the
    BLAS and its thread count, the thread variables, the row slices
    (numcore.row_slices, set by the batch size alone) each model call or
    training step was cut into (None when no model ran), and whether
    slices ran in the worker process, i.e. whether numcore.worker_regions
    rose above regions_before, its count when the command started."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dict form
        blas = {}
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "thread_env": {name: os.environ.get(name) for name in _THREAD_VARS},
        "row_slices": slices,
        "slice_worker": worker_regions() > regions_before,
    }


def _write_manifest(out_dir: str, command: str, seed: int, inputs: list,
                    outputs: list[str], settings: dict, environment: dict) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "inputs": {str(p): _checksum_file(p) for p in inputs},
        "outputs": sorted(outputs),
        "settings": settings,
        "environment": environment,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    regions = worker_regions()
    with open_text(args.config) as fh:
        config = parse_train_config(fh.read())
    if args.seed is not None:
        config.seed = args.seed
    if args.steps is not None:
        config.steps = args.steps
    config.validate()

    inputs = [args.config]
    start_step = 0
    optimizer = None

    if args.resume is not None:
        model, arrays = _load_model(args.resume)
        if model.config != preset(config.preset):
            raise UsageError(f"config preset={config.preset} does not match "
                             f"the model config in {args.resume}")
        start_step = read_count(arrays, "train.step")
        optimizer = Adam(dict(model.named_parameters()), lr=config.lr)
        optimizer.load_state(arrays)
        inputs.append(args.resume)
    else:
        model = DDTModel(preset(config.preset), seed=config.seed)

    if start_step >= config.steps:
        raise UsageError(f"checkpoint already at step {start_step}, "
                         f"nothing to do for steps={config.steps}")

    os.makedirs(args.out, exist_ok=True)
    dataset = dataset_for(config, model.config)
    history, optimizer = train(
        model, dataset, steps=config.steps, batch_size=config.batch,
        seed=config.seed, alignment_weight=config.alignment_weight,
        lr=config.lr, optimizer=optimizer, start_step=start_step,
        label_drop=config.label_drop)

    ckpt_path = os.path.join(args.out, "checkpoint.ckpt")
    arrays = dict(model.state_arrays())
    arrays.update(optimizer.state_arrays())
    arrays["train.step"] = np.array([float(config.steps)])
    save_checkpoint(ckpt_path, model.config, arrays)
    metrics_path = os.path.join(args.out, "metrics.csv")
    write_metrics_csv(metrics_path, history, start_step=start_step)
    _write_manifest(args.out, "train", config.seed, inputs,
                    ["checkpoint.ckpt", "metrics.csv"],
                    {"preset": config.preset, "steps": config.steps,
                     "batch": config.batch, "dataset": config.dataset,
                     "alignment_weight": config.alignment_weight,
                     "lr": config.lr, "start_step": start_step},
                    _environment(row_slices(config.batch), regions))
    last = history[-1]
    print(f"trained {config.steps - start_step} steps; "
          f"loss_dec {last.loss_dec:.4f} loss_enc {last.loss_enc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _budget_from_ratio(num_steps: int, ratio: float) -> int:
    if not 0.0 <= ratio < 1.0:
        raise UsageError(f"--share-ratio must lie in [0, 1), got {ratio}")
    # rounded first, so that a binary float just above a whole number
    # (1 - 0.7 = 0.30000000000000004) does not gain an anchor
    return max(1, math.ceil(round(num_steps * (1.0 - ratio), 9)))


def cmd_sample(args) -> int:
    regions = worker_regions()
    a, b = args.cfg_interval
    if not 0.0 <= a < b <= 1.0:
        raise UsageError(f"--cfg-interval needs 0 <= a < b <= 1, got {a} {b}")

    model, _ = _load_model(args.checkpoint)
    inputs = [args.checkpoint]

    # w == 1 is the neutral setting: guidance fully disabled, one branch
    guidance = None
    if args.cfg_w != 1.0:
        guidance = GuidanceSpec(w=args.cfg_w, interval=(a, b))
    branches = 2 if guidance is not None else 1

    plan = None
    if args.plan is not None and args.share_ratio is not None:
        raise UsageError("--plan and --share-ratio are mutually exclusive")
    if args.plan is not None:
        plan, _ = read_plan(args.plan)
        if plan.N != args.steps:
            raise UsageError(f"plan covers N={plan.N} steps but --steps is {args.steps}")
        inputs.append(args.plan)
    elif args.share_ratio is not None:
        plan = plan_uniform(args.steps, _budget_from_ratio(args.steps, args.share_ratio))

    grid = make_timegrid(args.steps, shift=args.shift)
    shape = (args.num, model.config.channels, model.config.image_size,
             model.config.image_size)
    x0 = substream(args.seed, "noise").standard_normal(shape)
    y = substream(args.seed, "labels").integers(0, model.config.num_classes,
                                                size=args.num)

    model.reset_counters()
    samples = sample_with_sharing(model, x0, grid, plan, y,
                                  guidance=guidance, solver=args.solver)
    expected_k = args.steps if plan is None else plan.K

    # closed-form counts must agree with the instrumented model
    if model.nfe_encoder != expected_k * branches:
        raise NumericalError(
            f"encoder NFE {model.nfe_encoder} != {expected_k}*{branches}")
    if model.nfe_decoder != args.steps * branches:
        raise NumericalError(
            f"decoder NFE {model.nfe_decoder} != {args.steps}*{branches}")

    dataset = make_dataset(args.dataset, image_size=model.config.image_size,
                           channels=model.config.channels,
                           num_classes=model.config.num_classes)
    held, _ = dataset.sample(substream(args.seed, "eval"), args.num)
    noise = substream(args.seed, "noise-baseline").standard_normal(held.shape)

    report = {
        "mmd": mmd_rbf(samples, held),
        "mmd_noise_baseline": mmd_rbf(noise, held),
        "spectral_distance": spectral_distance(samples, held),
        "nfe_encoder": model.nfe_encoder,
        "nfe_decoder": model.nfe_decoder,
        "cfg_branches": branches,
        "num_samples": args.num,
        "steps": args.steps,
        "budget": expected_k,
    }
    os.makedirs(args.out, exist_ok=True)
    with atomic_write(os.path.join(args.out, "samples.npy"), binary=True) as fh:
        np.save(fh, samples)
    _write_json(os.path.join(args.out, "eval.json"), report)
    _write_manifest(args.out, "sample", args.seed, inputs,
                    ["samples.npy", "eval.json"],
                    {"steps": args.steps, "shift": args.shift,
                     "solver": args.solver, "cfg_w": args.cfg_w,
                     "cfg_interval": [a, b], "num": args.num,
                     "dataset": args.dataset,
                     "share_ratio": args.share_ratio,
                     "plan": args.plan},
                    _environment(row_slices(args.num), regions))
    print(f"sampled {args.num}; mmd {report['mmd']:.4f} "
          f"(noise baseline {report['mmd_noise_baseline']:.4f}); "
          f"nfe enc/dec {model.nfe_encoder}/{model.nfe_decoder}")
    return 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _probe_checkpoint(args) -> SimilarityMatrix:
    """Step similarity along the checkpoint's conditional, unguided
    trajectory from a seeded probe batch (no CFG: see `plan --help`)."""
    model, _ = _load_model(args.checkpoint)
    cfg = model.config
    shape = (args.probe_size, cfg.channels, cfg.image_size, cfg.image_size)
    x0 = substream(args.seed, "probe").standard_normal(shape)
    y = substream(args.seed, "probe-labels").integers(
        0, cfg.num_classes, size=args.probe_size)
    grid = make_timegrid(args.steps, shift=args.shift)
    return probe_similarity(model, x0, grid, y, solver=args.solver)


def _probe_slices(args) -> int | None:
    """The row slices of a probe's field calls, or None when no probe ran."""
    return None if args.checkpoint is None else row_slices(args.probe_size)


def cmd_plan(args) -> int:
    regions = worker_regions()
    if (args.similarity is None) == (args.checkpoint is None):
        raise UsageError("provide exactly one of --similarity or --checkpoint")

    # N and the budget are known before any probe, so a bad pair exits 2
    # before the probe runs or --out is made
    if args.similarity is not None:
        sim = read_similarity(args.similarity)
        n = sim.N
    else:
        n = args.steps
    if args.budget is not None:
        k = args.budget
    elif args.share_ratio is not None:
        k = _budget_from_ratio(n, args.share_ratio)
    else:
        raise UsageError("provide a budget via --budget or --share-ratio")
    if not 1 <= k <= n:
        raise UsageError(f"--budget {k} out of range [1, {n}]")
    if args.strategy == "bruteforce" and n > BRUTEFORCE_MAX_N:
        raise UsageError(f"--strategy bruteforce needs N <= {BRUTEFORCE_MAX_N} "
                         f"steps, got {n}")
    if args.checkpoint is not None:
        sim = _probe_checkpoint(args)
    inputs = [args.similarity if args.similarity is not None else args.checkpoint]

    if args.strategy == "uniform":
        plan = plan_uniform(n, k)
        plan = SharingPlan(N=n, anchors=plan.anchors, strategy="uniform",
                           utility=plan_utility(sim, plan.anchors))
    elif args.strategy == "dp":
        plan = plan_dp(sim, k)
    else:
        plan = plan_bruteforce(sim, k)

    os.makedirs(args.out, exist_ok=True)
    plan_path = os.path.join(args.out, "plan.txt")
    write_plan(plan_path, plan, checksum=similarity_checksum(sim))
    outputs = ["plan.txt"]
    if args.checkpoint is not None:
        write_similarity(os.path.join(args.out, "similarity.npy"), sim)
        outputs.append("similarity.npy")
    _write_manifest(args.out, "plan", args.seed, inputs, outputs,
                    {"strategy": args.strategy, "budget": k, "steps": n,
                     "share_ratio": args.share_ratio},
                    _environment(_probe_slices(args), regions))
    print(f"plan {args.strategy}: K={plan.K}/{n}, utility {plan.utility:.6f}, "
          f"anchors {','.join(str(v) for v in plan.anchors)}")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _data_profile(dataset, rng: np.random.Generator, trials: int) -> SpectrumProfile:
    if hasattr(dataset, "spectrum_coefficients"):
        return SpectrumProfile(dataset.spectrum_coefficients())
    x, _ = dataset.sample(rng, trials)
    return SpectrumProfile(radial_spectrum(x))


def cmd_diagnose(args) -> int:
    regions = worker_regions()
    t_list = []
    for token in args.t_list.split(","):
        try:
            t = float(token)
        except ValueError:
            raise UsageError(f"--t-list entries must be numbers, got {token!r}") from None
        if not 0.0 <= t <= 1.0:
            raise UsageError(f"--t-list entries must lie in [0, 1], got {t}")
        t_list.append(t)
    if not t_list:
        raise UsageError("--t-list must name at least one time")
    # a bad checkpoint fails here, before the output directory exists
    sim = None if args.checkpoint is None else _probe_checkpoint(args)

    os.makedirs(args.out, exist_ok=True)
    inputs = [] if sim is None else [args.checkpoint]
    outputs = []

    dataset = make_dataset(args.dataset)
    rng = substream(args.seed, "diagnose")
    profile = _data_profile(dataset, rng, args.trials)
    clean, _ = dataset.sample(substream(args.seed, "diagnose-mc"), args.trials)
    for t in t_list:
        at_t = SpectrumProfile(profile.data_coefficients, lam=profile.lam, t=t)
        empirical = empirical_noisy_spectrum(
            clean, t, substream(args.seed, f"diagnose-noise/{t:.6g}"))
        name = f"spectrum_t{t:.2f}.csv"
        write_spectrum_csv(os.path.join(args.out, name), at_t, empirical)
        outputs.append(name)

    if sim is not None:
        # plot-ready heatmap: N rows of N comma-separated values
        with atomic_write(os.path.join(args.out, "similarity.csv")) as fh:
            for row in sim.S:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        write_similarity(os.path.join(args.out, "similarity.npy"), sim)
        outputs.extend(["similarity.csv", "similarity.npy"])

    _write_manifest(args.out, "diagnose", args.seed, inputs, outputs,
                    {"dataset": args.dataset, "t_list": t_list,
                     "trials": args.trials, "steps": args.steps},
                    _environment(_probe_slices(args), regions))
    print(f"wrote {len(outputs)} diagnostic files to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddtlab",
        description="Decoupled diffusion transformer lab: train, sample, "
                    "plan encoder sharing, and run spectral diagnostics "
                    "on desk-scale synthetic data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="flow-matching training run")
    p_train.add_argument("--config", required=True, help="key=value config file")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_train.add_argument("--steps", type=int, default=None,
                         help="override the config step count")
    p_train.add_argument("--resume", default=None,
                         help="checkpoint to continue from")
    p_train.add_argument("--out", default="runs/train")
    p_train.set_defaults(func=cmd_train)

    p_sample = sub.add_parser("sample", help="draw samples from a checkpoint")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--steps", type=int, default=50,
                          help="ODE steps N")
    p_sample.add_argument("--shift", type=float, default=1.0,
                          help="timeshift parameter s >= 1 (1 = uniform grid)")
    p_sample.add_argument("--solver", choices=sorted(SOLVER_ORDERS),
                          default="euler")
    p_sample.add_argument("--cfg-w", type=float, default=1.0,
                          help="guidance strength w >= 0 (1 disables guidance)")
    p_sample.add_argument("--cfg-interval", type=float, nargs=2,
                          default=[0.3, 1.0], metavar=("A", "B"),
                          help="apply guidance only for t in [A, B]")
    p_sample.add_argument("--plan", default=None,
                          help="encoder-sharing plan file")
    p_sample.add_argument("--share-ratio", type=float, default=None,
                          help="build a uniform plan with K = ceil(N*(1-r))")
    p_sample.add_argument("--num", type=int, default=64,
                          help="number of samples (>= 2)")
    p_sample.add_argument("--dataset", choices=DATASETS, default="bandlimited",
                          help="held-out dataset for the eval report")
    p_sample.add_argument("--out", default="runs/sample")
    p_sample.set_defaults(func=cmd_sample)

    p_plan = sub.add_parser(
        "plan", help="compute an encoder-sharing plan",
        description="Compute an encoder-sharing plan from a similarity file "
                    "or by probing a checkpoint. The probe runs the "
                    "conditional, unguided field even when sampling will use "
                    "CFG, so a guided run follows a nearby trajectory, not "
                    "the probed one.")
    p_plan.add_argument("--similarity", default=None,
                        help="similarity matrix as a .npy file (square, "
                             "float64, C order), e.g. the similarity.npy "
                             "that plan --checkpoint writes")
    p_plan.add_argument("--checkpoint", default=None,
                        help="probe this checkpoint instead, and also "
                             "write the matrix as similarity.npy")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--steps", type=int, default=20,
                        help="probe grid size N (with --checkpoint)")
    p_plan.add_argument("--shift", type=float, default=1.0)
    p_plan.add_argument("--solver", choices=sorted(SOLVER_ORDERS),
                        default="euler")
    p_plan.add_argument("--budget", type=int, default=None,
                        help="anchor budget K")
    p_plan.add_argument("--share-ratio", type=float, default=None,
                        help="derive K = ceil(N*(1-r)) instead of --budget")
    p_plan.add_argument("--strategy", choices=list(STRATEGIES),
                        default="dp")
    p_plan.add_argument("--probe-size", type=int, default=8,
                        help="probe batch size (with --checkpoint)")
    p_plan.add_argument("--out", default="runs/plan")
    p_plan.set_defaults(func=cmd_plan)

    p_diag = sub.add_parser("diagnose", help="spectral and similarity dumps")
    p_diag.add_argument("--dataset", choices=DATASETS, default="bandlimited")
    p_diag.add_argument("--checkpoint", default=None,
                        help="also probe step similarity of this model "
                             "(conditional, unguided field) and write it as "
                             "similarity.csv and similarity.npy")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--t-list", default="0.1,0.3,0.5,0.7,0.9",
                        help="comma-separated mixing times")
    p_diag.add_argument("--trials", type=int, default=2000,
                        help="Monte-Carlo sample count")
    p_diag.add_argument("--steps", type=int, default=20,
                        help="probe grid size N (with --checkpoint)")
    p_diag.add_argument("--shift", type=float, default=1.0)
    p_diag.add_argument("--solver", choices=sorted(SOLVER_ORDERS),
                        default="euler")
    p_diag.add_argument("--probe-size", type=int, default=8)
    p_diag.add_argument("--out", default="runs/diagnose")
    p_diag.set_defaults(func=cmd_diagnose)

    return parser


# the least legal value of each numeric flag, by argparse dest; main checks
# every one a command has before the command runs
_MINIMUMS = {"seed": 0, "steps": 1, "shift": 1, "cfg_w": 0,
             "num": 2,  # the MMD needs two samples
             "probe_size": 1, "trials": 1}


def _check_minimums(args) -> None:
    for dest, low in _MINIMUMS.items():
        value = getattr(args, dest, None)
        # None is a flag left unset; `not >=` refuses a NaN float, and an
        # int is always finite
        if value is not None and not (
                value >= low and (isinstance(value, int) or math.isfinite(value))):
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{flag} must be a finite number >= {low}, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_minimums(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
