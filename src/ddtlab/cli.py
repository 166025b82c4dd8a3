"""Command-line interface.

Subcommands: train | sample | plan | diagnose. Every command derives all
randomness from --seed via named substreams, and writes its outputs
atomically (temp-and-rename) through the `_Run` main hands it, which
adds a manifest.json recording inputs and outputs (each with its sha256),
settings (every flag as parsed), derived (what the command worked out
from its flags) and the run environment, so a run can be audited and
replayed. Exit codes: 0 success, 2 usage error (an input too large for
memory among them), 3 data/format error, 4 numerical failure, 130
interrupted (Ctrl-C). A run that fails or is interrupted removes the
outputs it wrote, then each directory it made for --out while empty.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
from .parallel import blas_threads, row_slices, worker_regions
from .rng import substream
from .samplers import GuidanceSpec, SOLVER_ORDERS, make_timegrid
from .sharesched import (
    BRUTEFORCE_MAX_N,
    STRATEGIES,
    SharingPlan,
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
    BLAS and its thread count, the thread variables, the row slices each
    model call or training step was cut into (parallel.row_slices, set by
    the batch size alone; None when no model ran), and whether slices ran in
    the worker process (parallel.worker_regions rose above regions_before)."""
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


def _inode(path) -> int | None:
    return os.stat(path).st_ino if os.path.isfile(path) else None


class _Run:
    """One command's run: main builds it, hands it to the command, then
    calls `finish` (the manifest) or `discard`. A command that runs the
    model sets `row_slices`; train sets `seed` from its config."""

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.row_slices = None  # no model call
        self._regions = worker_regions()
        # input path -> sha256; output path -> its inode before the run
        self._inputs, self._outputs, self._derived = {}, {}, {}
        # the directories --out needs that are not there yet, deepest first
        self._missing = []
        path = os.path.abspath(args.out)
        while not os.path.exists(path):
            self._missing.append(path)
            path = os.path.dirname(path)

    def input(self, path):
        """Record an input, hashed now (train --resume may replace it)."""
        self._inputs[str(path)] = _checksum_file(path)
        return path

    def output(self, name: str) -> str:
        """Register an output and return its path, making --out if need be."""
        os.makedirs(self.args.out, exist_ok=True)
        path = os.path.join(self.args.out, name)
        self._outputs[path] = _inode(path)
        return path

    def derived(self, **values) -> None:
        self._derived.update(values)

    def finish(self) -> None:
        manifest = {
            "command": self.args.command,
            "seed": self.seed,
            "inputs": self._inputs,
            "outputs": {os.path.basename(path): _checksum_file(path)
                        for path in self._outputs},
            "settings": {k: v for k, v in vars(self.args).items() if k != "func"},
            "derived": self._derived,
            "environment": _environment(self.row_slices, self._regions),
        }
        _write_json(os.path.join(self.args.out, "manifest.json"), manifest)

    def discard(self) -> None:
        """Remove each output this run wrote (atomic_write gives it a new
        inode) unless it is an input too, whose old bytes are already gone;
        an earlier manifest.json once an earlier file is replaced; then each
        directory made for --out, deepest first, while that is empty."""
        inputs = {os.path.realpath(p) for p in self._inputs}
        stale = []
        for path, before in self._outputs.items():
            if _inode(path) == before:
                continue
            if os.path.realpath(path) not in inputs:
                stale.append(path)
            if before is not None:  # an earlier run's file: its manifest is stale
                stale.append(os.path.join(self.args.out, "manifest.json"))
        for path in stale:
            with contextlib.suppress(OSError):
                os.remove(path)
        with contextlib.suppress(OSError):  # rmdir refuses a directory with files
            for path in self._missing:
                os.rmdir(path)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args, run: _Run) -> str:
    with open_text(run.input(args.config)) as fh:
        config = parse_train_config(fh.read())
    if args.seed is not None:
        config.seed = args.seed
    if args.steps is not None:
        config.steps = args.steps
    config.validate()

    start_step = 0
    optimizer = None

    if args.resume is not None:
        model, arrays = _load_model(run.input(args.resume))
        if model.config != preset(config.preset):
            raise UsageError(f"config preset={config.preset} does not match "
                             f"the model config in {args.resume}")
        start_step = read_count(arrays, "train.step")
        optimizer = Adam(dict(model.named_parameters()), lr=config.lr)
        optimizer.load_state(arrays)
    else:
        model = DDTModel(preset(config.preset), seed=config.seed)

    if start_step >= config.steps:
        raise UsageError(f"checkpoint already at step {start_step}, "
                         f"nothing to do for steps={config.steps}")

    # registered before step 1, so a bad --out exits 3 before training
    ckpt_path = run.output("checkpoint.ckpt")
    metrics_path = run.output("metrics.csv")
    dataset = dataset_for(config.dataset, model.config)
    history, optimizer = train(
        model, dataset, steps=config.steps, batch_size=config.batch,
        seed=config.seed, alignment_weight=config.alignment_weight,
        lr=config.lr, optimizer=optimizer, start_step=start_step,
        label_drop=config.label_drop)

    arrays = dict(model.state_arrays())
    arrays.update(optimizer.state_arrays())
    arrays["train.step"] = np.array([float(config.steps)])
    save_checkpoint(ckpt_path, model.config, arrays)
    write_metrics_csv(metrics_path, history, start_step=start_step)
    run.seed = config.seed
    run.row_slices = row_slices(config.batch)
    run.derived(config=dataclasses.asdict(config), start_step=start_step)
    last = history[-1]
    return (f"trained {config.steps - start_step} steps; "
            f"loss_dec {last.loss_dec:.4f} loss_enc {last.loss_enc:.4f}")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _budget_from_ratio(num_steps: int, ratio: float) -> int:
    if not 0.0 <= ratio < 1.0:
        raise UsageError(f"--share-ratio must lie in [0, 1), got {ratio}")
    # rounded first, so that a binary float just above a whole number
    # (1 - 0.7 = 0.30000000000000004) does not gain an anchor
    return max(1, math.ceil(round(num_steps * (1.0 - ratio), 9)))


def cmd_sample(args, run: _Run) -> str:
    try:
        guidance = GuidanceSpec(w=args.cfg_w, interval=tuple(args.cfg_interval))
    except ValueError as exc:
        raise UsageError(f"--cfg-interval: {exc}") from None

    model, _ = _load_model(run.input(args.checkpoint))

    # the grid first: a --steps too large for memory fails here, before
    # plan_uniform's loop over the anchors
    grid = make_timegrid(args.steps, shift=args.shift)
    plan = None
    if args.plan is not None:
        plan, _ = read_plan(run.input(args.plan))
        if plan.N != args.steps:
            raise UsageError(f"plan covers N={plan.N} steps but --steps is {args.steps}")
    elif args.share_ratio is not None:
        plan = plan_uniform(args.steps, _budget_from_ratio(args.steps, args.share_ratio))

    shape = (args.num, model.config.channels, model.config.image_size,
             model.config.image_size)
    x0 = substream(args.seed, "noise").standard_normal(shape)
    y = substream(args.seed, "labels").integers(0, model.config.num_classes,
                                                size=args.num)

    samples = sample_with_sharing(model, x0, grid, plan, y, guidance, args.solver)

    dataset = dataset_for(args.dataset, model.config)
    held, _ = dataset.sample(substream(args.seed, "eval"), args.num)
    noise = substream(args.seed, "noise-baseline").standard_normal(held.shape)

    report = {
        "mmd": mmd_rbf(samples, held),
        "mmd_noise_baseline": mmd_rbf(noise, held),
        "spectral_distance": spectral_distance(samples, held),
        "nfe_encoder": model.nfe_encoder,
        "nfe_decoder": model.nfe_decoder,
        "cfg_branches": model.nfe_decoder // args.steps,
        "num_samples": args.num,
        "steps": args.steps,
        "budget": args.steps if plan is None else plan.K,
    }
    with atomic_write(run.output("samples.npy"), binary=True) as fh:
        np.save(fh, samples)
    _write_json(run.output("eval.json"), report)
    run.row_slices = row_slices(args.num)
    return (f"sampled {args.num}; mmd {report['mmd']:.4f} "
            f"(noise baseline {report['mmd_noise_baseline']:.4f}); "
            f"nfe enc/dec {model.nfe_encoder}/{model.nfe_decoder}")


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args, run: _Run) -> str:
    # nothing is probed without --checkpoint: refuse a probe flag off its default
    defaults = vars(_probe_parser().parse_args([]))
    idle = ["--" + d.replace("_", "-") for d, default in defaults.items()
            if args.checkpoint is None and getattr(args, d) != default]
    if idle:
        raise UsageError(f"{', '.join(idle)} would do nothing without --checkpoint")

    # N and the budget are known before any probe, so a bad pair exits 2
    # before the probe runs or --out is made
    if args.similarity is not None:
        sim = read_similarity(run.input(args.similarity))
        n = sim.N
    else:
        n = args.steps
    if (args.budget is None) == (args.share_ratio is None):
        raise UsageError("provide exactly one of --budget or --share-ratio")
    k = args.budget if args.budget is not None else _budget_from_ratio(n, args.share_ratio)
    if not 1 <= k <= n:
        raise UsageError(f"--budget {k} out of range [1, {n}]")
    if args.strategy == "bruteforce" and n > BRUTEFORCE_MAX_N:
        raise UsageError(f"--strategy bruteforce needs N <= {BRUTEFORCE_MAX_N} "
                         f"steps, got {n}")
    if args.checkpoint is not None:
        # a seeded probe batch on the conditional, unguided field (plan --help)
        model, _ = _load_model(run.input(args.checkpoint))
        cfg = model.config
        shape = (args.probe_size, cfg.channels, cfg.image_size, cfg.image_size)
        x0 = substream(args.seed, "probe").standard_normal(shape)
        y = substream(args.seed, "probe-labels").integers(
            0, cfg.num_classes, size=args.probe_size)
        grid = make_timegrid(args.steps, shift=args.shift)
        sim = probe_similarity(model, x0, grid, y, solver=args.solver)
        run.row_slices = row_slices(args.probe_size)

    if args.strategy == "uniform":
        plan = plan_uniform(n, k)
        plan = SharingPlan(N=n, anchors=plan.anchors, strategy="uniform",
                           utility=plan_utility(sim, plan.anchors))
    elif args.strategy == "dp":
        plan = plan_dp(sim, k)
    else:
        plan = plan_bruteforce(sim, k)

    write_plan(run.output("plan.txt"), plan, checksum=similarity_checksum(sim))
    if args.checkpoint is not None:
        write_similarity(run.output("similarity.npy"), sim)
    run.derived(N=n, K=k)
    return (f"plan {args.strategy}: K={plan.K}/{n}, utility {plan.utility:.6f}, "
            f"anchors {','.join(str(v) for v in plan.anchors)}")


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _data_profile(dataset, rng: np.random.Generator, trials: int) -> SpectrumProfile:
    if hasattr(dataset, "spectrum_coefficients"):
        return SpectrumProfile(dataset.spectrum_coefficients())
    x, _ = dataset.sample(rng, trials)
    return SpectrumProfile(radial_spectrum(x))


def cmd_diagnose(args, run: _Run) -> str:
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
    # the file name keeps two decimals, so two entries may name one file
    spectra = {}
    for t in t_list:
        name = f"spectrum_t{t:.2f}.csv"
        if name in spectra:
            raise UsageError(f"--t-list entries {spectra[name]} and {t} both write {name}")
        spectra[name] = t

    dataset = make_dataset(args.dataset)
    rng = substream(args.seed, "diagnose")
    profile = _data_profile(dataset, rng, args.trials)
    clean, _ = dataset.sample(substream(args.seed, "diagnose-mc"), args.trials)
    for name, t in spectra.items():
        at_t = SpectrumProfile(profile.data_coefficients, lam=profile.lam, t=t)
        empirical = empirical_noisy_spectrum(
            clean, t, substream(args.seed, f"diagnose-noise/{t:.6g}"))
        write_spectrum_csv(run.output(name), at_t, empirical)
    run.derived(t_list=t_list)
    return f"wrote {len(spectra)} diagnostic files to {args.out}"


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _probe_parser() -> argparse.ArgumentParser:
    """plan's probe flags."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--seed", type=int, default=0,
                       help="seed of every random draw")
    probe.add_argument("--steps", type=int, default=20,
                       help="probe grid size N (with --checkpoint)")
    probe.add_argument("--shift", type=float, default=1.0,
                       help="timeshift s >= 1 of the probe grid (with --checkpoint)")
    probe.add_argument("--solver", choices=sorted(SOLVER_ORDERS), default="euler",
                       help="ODE solver of the probe (with --checkpoint)")
    probe.add_argument("--probe-size", type=int, default=8,
                       help="probe batch size (with --checkpoint)")
    return probe


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddtlab",
        description="Decoupled diffusion transformer lab: train, sample, "
                    "plan encoder sharing, and run spectral diagnostics "
                    "on desk-scale synthetic data.")
    sub = parser.add_subparsers(dest="command", required=True)
    probe = _probe_parser()

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
    share = p_sample.add_mutually_exclusive_group()
    share.add_argument("--plan", default=None, help="encoder-sharing plan file")
    share.add_argument("--share-ratio", type=float, default=None,
                       help="build a uniform plan with K = ceil(N*(1-r))")
    p_sample.add_argument("--num", type=int, default=64,
                          help="number of samples (>= 2)")
    p_sample.add_argument("--dataset", choices=DATASETS, default="bandlimited",
                          help="held-out dataset for the eval report")
    p_sample.add_argument("--out", default="runs/sample")
    p_sample.set_defaults(func=cmd_sample)

    p_plan = sub.add_parser(
        "plan", parents=[probe], help="compute an encoder-sharing plan",
        description="Compute an encoder-sharing plan from a similarity file "
                    "or by probing a checkpoint. The probe runs the "
                    "conditional, unguided field even when sampling will use "
                    "CFG, so a guided run follows a nearby trajectory, not "
                    "the probed one.")
    source = p_plan.add_mutually_exclusive_group(required=True)
    source.add_argument("--similarity", default=None,
                        help="similarity matrix as a .npy file (square, "
                             "float64, C order), e.g. the similarity.npy "
                             "that plan --checkpoint writes")
    source.add_argument("--checkpoint", default=None,
                        help="probe this checkpoint instead, and also "
                             "write the matrix as similarity.npy")
    p_plan.add_argument("--budget", type=int, default=None,
                        help="anchor budget K")
    p_plan.add_argument("--share-ratio", type=float, default=None,
                        help="derive K = ceil(N*(1-r)) instead of --budget")
    p_plan.add_argument("--strategy", choices=list(STRATEGIES),
                        default="dp")
    p_plan.add_argument("--out", default="runs/plan")
    p_plan.set_defaults(func=cmd_plan)

    p_diag = sub.add_parser("diagnose", help="noisy-spectrum dumps of a dataset")
    p_diag.add_argument("--seed", type=int, default=0,
                        help="seed of every random draw")
    p_diag.add_argument("--dataset", choices=DATASETS, default="bandlimited")
    p_diag.add_argument("--t-list", default="0.1,0.3,0.5,0.7,0.9",
                        help="comma-separated mixing times")
    p_diag.add_argument("--trials", type=int, default=2000,
                        help="Monte-Carlo sample count")
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
    run = _Run(args)
    try:
        _check_minimums(args)
        summary = args.func(args, run)
        run.finish()
        print(summary)
        return 0
    except UsageError as exc:
        message, code = f"usage error: {exc}", 2
    except MemoryError as exc:
        message, code = f"usage error: the input is too large for memory ({exc})", 2
    except (FormatError, OSError) as exc:
        message, code = f"data error: {exc}", 3
    except NumericalError as exc:
        message, code = f"numerical failure: {exc}", 4
    except KeyboardInterrupt:
        message, code = "interrupted", 130
    print(message, file=sys.stderr)
    run.discard()
    return code


if __name__ == "__main__":
    sys.exit(main())
