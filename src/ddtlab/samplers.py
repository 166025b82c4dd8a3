"""ODE samplers for the linear flow.

Time runs from t=0 (pure noise) to t=1 (data). Velocity fields are
callables (x, t) -> v on numpy arrays, so analytic oracle fields and the
trained model share one solver loop; a solve over the model's field is
one request, its row slices each solved whole in one parallel region.

The multistep scheme pre-integrates Lagrange basis polynomials over each
step interval, turning the history of velocity evaluations into constant
coefficients; with one history point it reduces to Euler bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count

import numpy as np

from .errors import NumericalError
from .files import atomic_write
from .numcore import no_grad
from .parallel import parallel_calls, slice_edges

__all__ = [
    "TimeGrid",
    "GuidanceSpec",
    "make_timegrid",
    "euler_sample",
    "lagrange_coefficients",
    "adams_sample",
    "sde_coefficients",
    "velocity_to_score",
    "decompose_velocity",
    "model_velocity_field",
    "TrajectoryRecorder",
    "SOLVER_ORDERS",
]


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.nodes) - 1

    def __post_init__(self):
        n = self.nodes
        if len(n) < 2 or n[0] != 0.0 or n[-1] != 1.0 or np.any(np.diff(n) <= 0.0):
            raise ValueError("grid nodes must rise strictly from 0 to 1")


def make_timegrid(num_steps: int, shift: float = 1.0) -> TimeGrid:
    """t_i = u_i / (u_i + s*(1-u_i)) with u_i = i/N; larger s concentrates
    nodes at the noisy end. s=1 returns the uniform nodes themselves so a
    shifted-but-neutral run is bit-identical to the uniform one."""
    if num_steps < 1:
        raise ValueError("need at least one step")
    if not (shift >= 1.0 and np.isfinite(shift)):
        raise ValueError("shift must be a finite number >= 1")
    u = np.arange(num_steps + 1) / num_steps
    if shift == 1.0:
        return TimeGrid(nodes=u)
    t = u / (u + shift * (1.0 - u))
    return TimeGrid(nodes=t)


@dataclass(frozen=True)
class GuidanceSpec:
    """Classifier-free guidance of weight w, applied for t in interval."""
    w: float
    interval: tuple[float, float] = (0.3, 1.0)

    def __post_init__(self):
        a, b = self.interval
        if not (self.w >= 0.0 and np.isfinite(self.w)):
            raise ValueError(f"guidance weight must be a finite number >= 0, got {self.w}")
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"guidance interval must satisfy 0 <= a < b <= 1, "
                             f"got [{a}, {b}]")

    @property
    def branches(self) -> int:
        """Model branches a step runs: weight 1 is the conditional one alone."""
        return 1 if self.w == 1.0 else 2

    def velocity(self, v_cond, v_uncond, t: float):
        """v_uncond + w*(v_cond - v_uncond) for t in the interval, else v_cond."""
        a, b = self.interval
        if a <= t <= b:
            return v_uncond + self.w * (v_cond - v_uncond)
        return v_cond


def _check_finite(x, step: int, t: float) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite state at step {step} (t={t:.6g})")


class TrajectoryRecorder:
    """Collects (step, t, ||x||, ||v||) rows."""

    def __init__(self):
        self.rows: list[tuple[int, float, float, float]] = []

    def watch(self, velocity_field):
        """velocity_field, wrapped to append one row per call; step counts
        the wrapped field's calls from 0. A row holds the x the field was
        given and the v it returned, before the solver's finite check, so
        a non-finite v leaves its row before the solve raises."""
        steps = count()

        def watched(x, t):
            v = velocity_field(x, t)
            self.rows.append((next(steps), float(t), float(np.linalg.norm(x)),
                              float(np.linalg.norm(v))))
            return v

        return watched

    def write_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("step,t,norm_x,norm_v\n")
            for step, t, nx, nv in self.rows:
                fh.write(f"{step},{t:.10g},{nx:.10g},{nv:.10g}\n")


def lagrange_coefficients(times, interval) -> np.ndarray:
    """Integrals over [interval] of the Lagrange basis polynomials on the
    given nodes, in node order. Closed-form antiderivatives, no quadrature.
    The coefficients always sum to the interval width (bases sum to 1)."""
    ts = np.asarray(times, dtype=np.float64)
    a, b = float(interval[0]), float(interval[1])
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("need at least one history node")
    if np.unique(ts).size != ts.size:
        raise ValueError(f"duplicate history nodes in {ts}")
    coefs = np.empty(ts.size)
    for j in range(ts.size):
        others = np.delete(ts, j)
        poly = np.poly(others) if others.size else np.array([1.0])
        poly = poly / np.prod(ts[j] - others) if others.size else poly
        anti = np.polyint(poly)
        coefs[j] = np.polyval(anti, b) - np.polyval(anti, a)
    return coefs


SOLVER_ORDERS = {"euler": 1, "adams2": 2, "adams3": 3}


def _integrate(velocity_field, x_0: np.ndarray, grid: TimeGrid, order: int) -> np.ndarray:
    """The solve of euler_sample and adams_sample. Over a model field it is
    one request: x_0 and the labels are cut into parallel.row_slices(B)
    slices, each solved whole on a field of its own by the solver loop
    (_solve_slice, never cut again), in one parallel_calls region. Slice 0
    runs on the model itself, so its NFE counters count the request once;
    x and the kept z join the slices' rows in order. Other fields solve
    as they are."""
    if not isinstance(velocity_field, _ModelField):
        return _solve(velocity_field, x_0, grid, order)
    f, edges = velocity_field, slice_edges(len(x_0))
    y = np.broadcast_to(f.y, (len(x_0),))
    results = parallel_calls([
        partial(_solve_slice, _ModelField(f.model, y[lo:hi], f.guidance, f.anchor_times,
                                          f.anchor_z is not None), x_0[lo:hi], grid, order)
        for lo, hi in zip(edges, edges[1:])])
    xs, zs = zip(*results)
    if f.anchor_z is not None:
        f.anchor_z.extend(map(np.concatenate, zip(*zs)))
    return np.concatenate(xs)


def _solve_slice(field: _ModelField, x_0: np.ndarray, grid: TimeGrid, order: int):
    return _solve(field, x_0, grid, order), field.anchor_z


def _solve(velocity_field, x_0: np.ndarray, grid: TimeGrid, order: int) -> np.ndarray:
    """The one solver loop: explicit linear multistep with pre-integrated
    coefficients, one field call per step.

    Warm-up: step 0 runs order 1, step 1 order 2, and so on until the
    requested order's history is available."""
    x = np.asarray(x_0, dtype=np.float64)
    _check_finite(x, 0, grid.nodes[0])
    nodes = grid.nodes
    hist_t: list[float] = []
    hist_v: list[np.ndarray] = []
    for i in range(grid.steps):
        v = np.asarray(velocity_field(x, nodes[i]), dtype=np.float64)
        _check_finite(v, i, nodes[i])
        hist_t.append(float(nodes[i]))
        hist_v.append(v)
        if len(hist_t) > order:
            hist_t.pop(0)
            hist_v.pop(0)
        k = len(hist_t)
        if k == 1:
            # single node: the pre-integrated coefficient is exactly the
            # step width, so this is Euler's update verbatim
            x = x + (nodes[i + 1] - nodes[i]) * v
        else:
            coefs = lagrange_coefficients(hist_t, (nodes[i], nodes[i + 1]))
            update = coefs[0] * hist_v[0]
            for c, vj in zip(coefs[1:], hist_v[1:]):
                update = update + c * vj
            x = x + update
        _check_finite(x, i, nodes[i + 1])
    return x


def euler_sample(velocity_field, x_0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """x_{i+1} = x_i + (t_{i+1} - t_i) * v(x_i, t_i): the multistep loop at
    order 1."""
    return _integrate(velocity_field, x_0, grid, 1)


def adams_sample(velocity_field, x_0: np.ndarray, grid: TimeGrid, order: int) -> np.ndarray:
    """Adams-Bashforth of the given order (1, 2 or 3) with a warm-up of
    lower orders; order 1 is Euler bit for bit."""
    if order not in SOLVER_ORDERS.values():
        raise ValueError("order must be 1, 2, or 3")
    return _integrate(velocity_field, x_0, grid, order)


def sde_coefficients(t: float) -> tuple[float, float]:
    """(f, g^2) at t for the linear schedule alpha(t)=t, sigma(t)=1-t: the
    drift and diffusion of the SDE whose probability-flow ODE the velocity
    parameterizes, f = 1/t and g^2 = -2(1-t)/t. Singular at t=0."""
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (0,1), got {t}")
    return 1.0 / t, -2.0 * (1.0 - t) / t


def decompose_velocity(v, x_t, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(x_hat, eps_hat): the clean-data and noise estimates implied by v."""
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (0,1), got {t}")
    v = np.asarray(v, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    return x_t + (1.0 - t) * v, x_t - t * v


def velocity_to_score(v, x_t, t: float) -> np.ndarray:
    """score = -eps_hat / sigma(t) with eps_hat = x_t - t*v."""
    _, eps_hat = decompose_velocity(v, x_t, t)
    return -eps_hat / (1.0 - float(t))


def model_velocity_field(model, y, guidance: GuidanceSpec | None = None,
                         anchor_times=None):
    """A model as a sampler-compatible field (x, t) -> v on a batch x of
    [B, C, H, W] with labels y (length B, or 1 for all rows).

    With guidance, the conditional and the null-class branch both run and
    are combined; without it, or at weight 1 (one branch), only the
    conditional branch runs, bit for bit. The encoder runs at every call
    when anchor_times is None; otherwise only when t is one of
    anchor_times, and the calls in between reuse the last z of each
    branch, so full sampling is the plan whose every step is an anchor.
    A call runs the model on all of x, under no_grad; a solve over the
    field runs its row slices whole (_integrate)."""
    return _ModelField(model, y, guidance, anchor_times)


class _ModelField:
    """model_velocity_field's field: z holds each branch's z ("c", and "u"
    with guidance) between anchors, and anchor_z, if kept, each anchor's "c"."""

    def __init__(self, model, y, guidance, anchor_times, keep_z=False):
        self.model, self.y = model, np.atleast_1d(np.asarray(y, dtype=np.int64))
        self.guidance = None if guidance is None or guidance.branches == 1 else guidance
        self.anchor_times, self.z = anchor_times, None
        self.anchor_z = [] if keep_z else None

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        model, guidance = self.model, self.guidance
        with no_grad():
            if self.anchor_times is None or float(t) in self.anchor_times:
                y = np.broadcast_to(self.y, (len(x),))
                self.z = {"c": model.encode(x, t, y)[0]}
                if guidance is not None:
                    self.z["u"] = model.encode(x, t, np.full_like(y, model.config.null_class))[0]
                if self.anchor_z is not None:
                    self.anchor_z.append(self.z["c"].data)
            v = model.decode(x, t, self.z["c"]).data
            if guidance is not None:
                v = guidance.velocity(v, model.decode(x, t, self.z["u"]).data, t)
        return v
