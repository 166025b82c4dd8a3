"""Linear flow-matching training.

The interpolant is x_t = t*x_data + (1-t)*eps with t=0 the pure-noise end,
so the regression target is the constant-in-t velocity x_data - eps. The
decoder learns that target directly; the encoder additionally regresses
its mid-stack tokens (through a small projection head) onto frozen teacher
features of the clean sample via a cosine alignment loss. One sampled t
per example per step is the Monte-Carlo treatment of the time integral.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .datasets import DATASETS, make_dataset
from .errors import FormatError, NumericalError, UsageError
from .files import atomic_write
from .model import PRESETS, DDTModel
from .numcore import Tensor, parallel_calls, slice_edges
from .rng import step_stream

__all__ = [
    "TrainBatch",
    "LossReport",
    "TrainConfig",
    "interpolate",
    "sample_timestep_lognorm",
    "alignment_loss",
    "loss_terms",
    "flow_matching_loss",
    "Adam",
    "train_step",
    "make_batch",
    "train",
    "parse_train_config",
    "write_metrics_csv",
    "read_count",
    "T_CLAMP",
]

# endpoints excluded: t=0 and t=1 give degenerate conditionals
T_CLAMP = 1e-5


@dataclass
class TrainBatch:
    x_data: np.ndarray
    y: np.ndarray
    eps: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if self.x_data.shape != self.eps.shape:
            raise ValueError("x_data and eps shapes differ")
        b = self.x_data.shape[0]
        if self.y.shape != (b,) or self.t.shape != (b,):
            raise ValueError("y and t must be per-sample vectors")
        if np.any(self.t <= 0.0) or np.any(self.t >= 1.0):
            raise ValueError("t must lie strictly inside (0,1)")


@dataclass
class LossReport:
    loss_dec: float
    loss_enc: float
    total: float
    alignment_weight: float
    skipped: bool = False
    grad_norm: float = math.nan  # L2 norm of the step's gradient
    step_ms: float = math.nan    # wall time of the step, batch assembly included


def interpolate(x_data, eps, t):
    """x_t = t*x_data + (1-t)*eps, v_target = x_data - eps."""
    x = np.asarray(x_data, dtype=np.float64)
    e = np.asarray(eps, dtype=np.float64)
    if x.shape != e.shape:
        raise ValueError("x_data and eps shapes differ")
    tt = np.asarray(t, dtype=np.float64)
    if np.any(tt < 0.0) or np.any(tt > 1.0):
        raise ValueError("t must lie in [0,1]")
    while tt.ndim and tt.ndim < x.ndim:
        tt = tt[..., None]
    return tt * x + (1.0 - tt) * e, x - e


def sample_timestep_lognorm(rng: np.random.Generator, mean: float = 0.0,
                            std: float = 1.0, size=None):
    """t = logistic(u), u ~ Normal(mean, std^2), clamped away from {0,1}."""
    if std <= 0.0:
        raise ValueError("std must be positive")
    u = rng.normal(mean, std, size)
    t = 1.0 / (1.0 + np.exp(-u))
    return np.clip(t, T_CLAMP, 1.0 - T_CLAMP)


def alignment_loss(projected: Tensor, r_star: np.ndarray) -> Tensor:
    """Mean over batch and tokens of 1 - cos(r_*, h_phi(h)); range [0,2].

    A zero-norm projection gives cos 0 (loss 1) rather than an error,
    mirroring the cosine degenerate rule."""
    r = np.asarray(r_star, dtype=np.float64)
    if projected.shape != r.shape:
        raise ValueError(f"projected {projected.shape} vs teacher {r.shape}")
    r_t = Tensor(r)
    dot = (projected * r_t).sum(axis=-1)
    # 1e-24 inside the sqrt keeps zero-norm tokens finite and their cos at 0
    pn = ((projected * projected).sum(axis=-1) + 1e-24).sqrt()
    rn = ((r_t * r_t).sum(axis=-1) + 1e-24).sqrt()
    cos = dot / (pn * rn)
    return (1.0 - cos).mean()


def loss_terms(model: DDTModel, batch: TrainBatch,
               alignment_weight: float) -> tuple[Tensor, Tensor, Tensor]:
    """(loss_dec, loss_enc, total) as graph tensors, one encode per step."""
    x_t, v_target = interpolate(batch.x_data, batch.eps, batch.t)
    z, h_align = model.encode(x_t, batch.t, batch.y)
    v = model.decode(x_t, batch.t, z)
    if not np.all(np.isfinite(v.data)):
        bad = int(np.count_nonzero(~np.isfinite(v.data)))
        raise NumericalError(
            f"decoder produced {bad} non-finite values (t range "
            f"[{batch.t.min():.4g}, {batch.t.max():.4g}]); step aborted")
    diff = v - Tensor(v_target)
    loss_dec = (diff * diff).mean()
    projected = model.project_alignment(h_align)
    r_star = model.teacher_features(batch.x_data)
    loss_enc = alignment_loss(projected, r_star)
    total = loss_dec + float(alignment_weight) * loss_enc
    return loss_dec, loss_enc, total


def flow_matching_loss(model: DDTModel, batch: TrainBatch,
                       alignment_weight: float = 0.5) -> LossReport:
    loss_dec, loss_enc, total = loss_terms(model, batch, alignment_weight)
    return LossReport(loss_dec=loss_dec.item(), loss_enc=loss_enc.item(),
                      total=total.item(), alignment_weight=float(alignment_weight))


class Adam:
    """Adam with decoupled weight decay omitted (the training recipe uses
    weight decay 0), constant learning rate, no warmup, no clipping."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            # in place, in the operation order of the out-of-place update
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
            # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
            # so a resumed run stays bit-exact
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            gg = (1.0 - b2) * g
            gg *= g
            v += gg
            denom = np.sqrt(v / bc2)
            denom += self.eps
            update = m / bc1
            update *= self.lr
            update /= denom
            p.data -= update

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live moment arrays (the next step updates them in place,
        like the parameters), keyed for a checkpoint."""
        out = {f"opt.m.{k}": v for k, v in self.m.items()}
        out.update({f"opt.v.{k}": v for k, v in self.v.items()})
        out["opt.step"] = np.array(float(self.step_count))
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore what state_arrays saved: both moments of every parameter,
        at its shape, and the step count. Anything less is a FormatError,
        since a resumed run could not continue bit for bit."""
        for name, p in self.params.items():
            for moments, key in ((self.m, f"opt.m.{name}"), (self.v, f"opt.v.{name}")):
                moment = arrays.get(key)
                if moment is None or moment.shape != p.data.shape:
                    raise FormatError(f"optimizer state {key!r} is missing or "
                                      f"not of shape {p.data.shape}")
                moments[name] = np.asarray(moment, dtype=np.float64).copy()
        self.step_count = read_count(arrays, "opt.step")


def read_count(arrays: dict[str, np.ndarray], key: str) -> int:
    """The step count a checkpoint holds under key: one finite,
    non-negative, integer-valued entry, or FormatError."""
    if key not in arrays:
        raise FormatError(f"checkpoint has no {key!r}")
    value = np.ravel(arrays[key])
    if value.size != 1 or not (np.isfinite(value[0]) and value[0] >= 0
                               and value[0] == np.floor(value[0])):
        raise FormatError(f"{key!r} must hold one non-negative integer, got {value}")
    return int(value[0])


def _slice_step(model: DDTModel, batch: TrainBatch, alignment_weight: float,
                share: float) -> tuple[tuple[float, float, float],
                                       dict[str, np.ndarray | None], tuple[int, int]]:
    """loss_terms and backward for one slice of a batch on fresh parameter
    leaves, its total scaled by the slice's share of the batch's rows:
    (the scaled loss_dec, loss_enc and total; the leaves' grads by name;
    the slice's (nfe_encoder, nfe_decoder))."""
    view = model.with_new_leaves()
    loss_dec, loss_enc, total = loss_terms(view, batch, alignment_weight)
    (total * share).backward()
    grads = {name: p.grad for name, p in view.named_parameters()}
    return ((share * loss_dec.item(), share * loss_enc.item(), share * total.item()),
            grads, (view.nfe_encoder, view.nfe_decoder))


def _batch_rows(batch: TrainBatch, lo: int, hi: int) -> TrainBatch:
    return TrainBatch(x_data=batch.x_data[lo:hi], y=batch.y[lo:hi],
                      eps=batch.eps[lo:hi], t=batch.t[lo:hi])


def _sum_grads(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    return b if a is None else a if b is None else a + b


def train_step(model: DDTModel, optimizer: Adam, batch: TrainBatch,
               alignment_weight: float = 0.5) -> LossReport:
    """One gradient step; the frozen teacher is untouched by construction.

    The batch runs as numcore.row_slices(rows) contiguous row slices (two
    halves, rows // 2 and then the rest, from numcore.SPLIT_MIN_ROWS up;
    else the whole batch) through numcore.parallel_calls. Each slice
    builds and differentiates its own graph on its own parameter leaves,
    with its total scaled by its share of the rows, and returns the
    leaves' grads, not the graph. The model's grad is
    then the slices' grads added in slice order, and the reported losses
    are the same weighted sums. The NFE counters count the step once. One
    slice has share 1.0, which scales exactly, so a batch under
    SPLIT_MIN_ROWS trains as one plain graph, bit for bit.

    Non-finite gradients skip the update and flag the report. grad_norm
    is the gradient's L2 norm; it may overflow to inf on a finite
    gradient, which is still applied.
    """
    model.zero_grad()
    rows = batch.x_data.shape[0]
    edges = slice_edges(rows)
    results = parallel_calls([
        partial(_slice_step, model, _batch_rows(batch, lo, hi), alignment_weight,
                (hi - lo) / rows)
        for lo, hi in zip(edges, edges[1:])])
    losses, grads, counts = zip(*results)
    for name, p in model.named_parameters():
        p.grad = reduce(_sum_grads, (slice_grads[name] for slice_grads in grads))
    model.add_slice_counts(counts[0])
    losses = [reduce(operator.add, terms) for terms in zip(*losses)]
    report = LossReport(*losses, alignment_weight=float(alignment_weight))
    squares = 0.0
    # np.square, not np.vdot: a large BLAS dot wakes OpenBLAS's threads,
    # which then spin on the core the next step's second half runs on
    with np.errstate(over="ignore"):
        for _, p in model.named_parameters():
            if p.grad is None:
                continue
            square = float(np.square(p.grad).sum())
            squares += square
            # a finite sum means finite entries; one that is not may
            # still come from finite entries whose squares overflow
            if not math.isfinite(square) and not np.all(np.isfinite(p.grad)):
                report.skipped = True
    report.grad_norm = math.sqrt(squares)
    if not report.skipped:
        optimizer.step()
    return report


def make_batch(dataset, model_config, rng: np.random.Generator, batch_size: int,
               label_drop: float = 0.1) -> TrainBatch:
    """Assemble one batch; draw order (data, noise, t, drop mask) is fixed
    so a given stream always yields the same batch."""
    x, y = dataset.sample(rng, batch_size)
    eps = rng.standard_normal(x.shape)
    t = sample_timestep_lognorm(rng, 0.0, 1.0, size=batch_size)
    if label_drop > 0.0:
        drop = rng.random(batch_size) < label_drop
        y = np.where(drop, model_config.null_class, y)
    return TrainBatch(x_data=x, y=y.astype(np.int64), eps=eps, t=t)


def train(model: DDTModel, dataset, steps: int, batch_size: int, seed: int,
          alignment_weight: float = 0.5, lr: float = 1e-4,
          optimizer: Adam | None = None, start_step: int = 0,
          label_drop: float = 0.1,
          progress=None) -> tuple[list[LossReport], Adam]:
    """Run [start_step, steps); per-step RNG substreams make a resumed run
    continue bit-exactly where the first one stopped."""
    if optimizer is None:
        optimizer = Adam(dict(model.named_parameters()), lr=lr)
    history: list[LossReport] = []
    for step in range(start_step, steps):
        start = time.perf_counter()
        rng = step_stream(seed, "data", step)
        batch = make_batch(dataset, model.config, rng, batch_size, label_drop)
        report = train_step(model, optimizer, batch, alignment_weight)
        report.step_ms = (time.perf_counter() - start) * 1e3
        history.append(report)
        if progress is not None:
            progress(step, report)
    return history, optimizer


def write_metrics_csv(path, history: list[LossReport], start_step: int = 0) -> None:
    """step,loss_dec,loss_enc,total,grad_norm,step_ms,skipped; grad_norm is
    the L2 norm of the step's gradient, step_ms its wall time, and skipped
    is 1 for a step whose non-finite gradient left the parameters
    unchanged. Temp-and-rename so readers never see a half-written file."""
    with atomic_write(path) as fh:
        fh.write("step,loss_dec,loss_enc,total,grad_norm,step_ms,skipped\n")
        for i, rep in enumerate(history):
            fh.write(f"{start_step + i},{rep.loss_dec:.10g},"
                     f"{rep.loss_enc:.10g},{rep.total:.10g},{rep.grad_norm:.10g},"
                     f"{rep.step_ms:.3f},{int(rep.skipped)}\n")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    preset: str = "desk"
    seed: int = 0
    steps: int = 500
    batch: int = 32
    alignment_weight: float = 0.5
    dataset: str = "bandlimited"
    lr: float = 1e-4
    label_drop: float = 0.1

    def validate(self) -> "TrainConfig":
        if self.steps < 1 or self.batch < 1:
            raise UsageError("steps and batch must be positive")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        # `not >=` and `not >` refuse NaN; isfinite refuses inf
        if not (self.alignment_weight >= 0 and math.isfinite(self.alignment_weight)):
            raise UsageError(f"alignment_weight must be a finite number >= 0, "
                             f"got {self.alignment_weight}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise UsageError(f"lr must be a finite number > 0, got {self.lr}")
        if not 0.0 <= self.label_drop <= 1.0:
            raise UsageError("label_drop must lie in [0, 1]")
        if self.preset not in PRESETS:
            raise UsageError(f"unknown preset {self.preset!r}; "
                             f"choose from {', '.join(PRESETS)}")
        if self.dataset not in DATASETS:
            raise UsageError(f"unknown dataset {self.dataset!r}; "
                             f"choose from {', '.join(DATASETS)}")
        return self


_CONFIG_PARSERS = {
    "preset": str,
    "seed": int,
    "steps": int,
    "batch": int,
    "alignment_weight": float,
    "dataset": str,
    "lr": float,
    "label_drop": float,
}


def parse_train_config(text: str) -> TrainConfig:
    """key=value lines; '#' starts a comment; an unknown or repeated key
    is an error that names the offending field."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise UsageError(f"config line {lineno}: unknown key {key!r} "
                             f"(known: {', '.join(sorted(_CONFIG_PARSERS))})")
        if key in values:
            raise UsageError(f"config line {lineno}: key {key!r} given again "
                             f"({raw.strip()!r})")
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    return TrainConfig(**values).validate()


def dataset_for(config: TrainConfig, model_config) -> object:
    return make_dataset(config.dataset, image_size=model_config.image_size,
                        channels=model_config.channels,
                        num_classes=model_config.num_classes)
