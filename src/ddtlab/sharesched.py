"""Encoder-sharing planner and executor.

During sampling the encoder's self-condition feature z changes slowly
between adjacent steps, so most steps can reuse the z computed at an
earlier "anchor" step. A plan is an anchor set Phi (always containing
step 0); every step is served by the most recent anchor at or before it.

The planner chooses Phi to maximize

    U(Phi) = sum_k sum_{l=phi_k}^{phi_{k+1}-1} S[phi_k][l]

over the step-similarity matrix S. This is the minimal-sum-path problem
in negated form and is solved exactly by dynamic programming; a
brute-force enumerator over all anchor subsets doubles as its oracle.
Segment utilities are running sums, W[j][i] = W[j][i-1] + S[j][i]: the
table costs O(N^2), and the DP, one whole-array step per budget level,
O(K*N^2). Every planner reads that one table and folds plan utilities
right-to-left (the DP's accumulation order), so the DP, the brute force,
plan_utility and segment_utility agree bit for bit, not within tolerance.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import FormatError, NumericalError
from .files import atomic_write, open_text, read_fields
from .samplers import (
    GuidanceSpec,
    TimeGrid,
    adams_sample,
    euler_sample,
    model_velocity_field,
    SOLVER_ORDERS,
)

__all__ = [
    "SimilarityMatrix",
    "SharingPlan",
    "STRATEGIES",
    "BRUTEFORCE_MAX_N",
    "probe_similarity",
    "segment_utility",
    "utility_table",
    "plan_utility",
    "plan_uniform",
    "plan_dp",
    "plan_bruteforce",
    "sharing_nfe",
    "sample_with_sharing",
    "write_similarity",
    "read_similarity",
    "similarity_checksum",
    "write_plan",
    "read_plan",
]

_SIM_TOL = 1e-9
# the planners a plan file may name
STRATEGIES = ("uniform", "dp", "bruteforce")
# plan_bruteforce enumerates all 2^(N-1) anchor sets
BRUTEFORCE_MAX_N = 20


@dataclass(frozen=True)
class SimilarityMatrix:
    S: np.ndarray

    @property
    def N(self) -> int:
        return self.S.shape[0]

    def __post_init__(self):
        s = np.asarray(self.S, dtype=np.float64)
        object.__setattr__(self, "S", s)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
            raise ValueError(f"similarity matrix must be square, got {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("similarity entries must be finite")
        if np.abs(s - s.T).max() > _SIM_TOL:
            raise ValueError("similarity matrix must be symmetric")
        if np.abs(np.diag(s) - 1.0).max() > _SIM_TOL:
            raise ValueError("similarity diagonal must be 1")
        if s.min() < -1.0 - _SIM_TOL or s.max() > 1.0 + _SIM_TOL:
            raise ValueError("similarity entries must lie in [-1, 1]")


def _as_matrix(S) -> SimilarityMatrix:
    """S itself if it is a SimilarityMatrix, else S validated as one; the
    planners pass the result on, so a call validates at most once."""
    return S if isinstance(S, SimilarityMatrix) else SimilarityMatrix(S)


@dataclass(frozen=True)
class SharingPlan:
    N: int
    anchors: tuple[int, ...]
    strategy: str = "dp"
    utility: float | None = None

    @property
    def K(self) -> int:
        return len(self.anchors)

    @property
    def sharing_ratio(self) -> float:
        return 1.0 - self.K / self.N

    def __post_init__(self):
        a = tuple(int(x) for x in self.anchors)
        object.__setattr__(self, "anchors", a)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown plan strategy {self.strategy!r}; "
                             f"choose from {list(STRATEGIES)}")
        if self.utility is not None and not math.isfinite(self.utility):
            raise ValueError(f"plan utility must be finite, got {self.utility}")
        if not a or a[0] != 0:
            raise ValueError("anchor set must contain step 0")
        if list(a) != sorted(set(a)):
            raise ValueError("anchors must be sorted and unique")
        if a[-1] >= self.N:
            raise ValueError(f"anchor {a[-1]} out of range for N={self.N}")

    def assignment(self, i: int) -> int:
        """The anchor serving step i: max {phi in anchors : phi <= i}."""
        if not 0 <= i < self.N:
            raise ValueError(f"step {i} out of range for N={self.N}")
        return self.anchors[bisect_right(self.anchors, i) - 1]


# ---------------------------------------------------------------------------
# utilities over segments
# ---------------------------------------------------------------------------


def segment_utility(S, j: int, i: int) -> float:
    """W[j][i] = sum_{l=j}^{i} S[j][l]: how well anchor j serves steps j..i."""
    s = _as_matrix(S).S
    if j > i:
        raise ValueError(f"segment start {j} exceeds end {i}")
    if not (0 <= j and i < s.shape[0]):
        raise ValueError(f"segment [{j},{i}] out of range for N={s.shape[0]}")
    return float(np.cumsum(s[j, j: i + 1])[-1])


def utility_table(S) -> np.ndarray:
    """W[j][i] for all j <= i, 0 elsewhere; every planner reads this one
    table so their utilities are bitwise comparable. The zeros left of
    the diagonal add exactly nothing to each row's running sum."""
    return np.cumsum(np.triu(_as_matrix(S).S), axis=1)


def _fold_utility(w: np.ndarray, anchors: tuple[int, ...], n: int) -> float:
    """Right-to-left fold of segment utilities; identical association to
    the DP recurrence so equal plans produce bitwise equal utilities."""
    ends = list(anchors[1:]) + [n]
    u = 0.0
    for k in range(len(anchors) - 1, -1, -1):
        u = float(w[anchors[k], ends[k] - 1]) + u
    return u


def plan_utility(S, anchors) -> float:
    sim = _as_matrix(S)
    plan = SharingPlan(N=sim.N, anchors=tuple(int(a) for a in anchors))
    return _fold_utility(utility_table(sim), plan.anchors, sim.N)


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------


def plan_uniform(N: int, K: int) -> SharingPlan:
    """Anchors every N/K steps: round(k*N/K) for k < K. For K <= N the
    points lie N/K >= 1 apart, and are integers when N/K is 1, so their
    rounded values are distinct and rising; the last, N - N/K <= N - 1,
    rounds to at most N - 1."""
    if not 1 <= K <= N:
        raise ValueError(f"budget K={K} out of range [1, {N}]")
    anchors = tuple(int(round(k * N / K)) for k in range(K))
    return SharingPlan(N=N, anchors=anchors, strategy="uniform")


def plan_dp(S, K: int) -> SharingPlan:
    """Exact maximizer of the plan utility; ties broken toward the
    lexicographically smallest anchor set (first argmax at each level)."""
    sim = _as_matrix(S)
    n = sim.N
    if not 1 <= K <= n:
        raise ValueError(f"budget K={K} out of range [1, {n}]")
    w = utility_table(sim)
    # reach[i][j-1]: utility of anchor i serving i..j-1; -inf for j <= i
    reach = np.where(np.tri(n, k=-1, dtype=bool), -np.inf, w)
    # best[k-1][i]: max utility covering i..n-1 with k anchors, first at i
    best = np.full((K, n), -np.inf)
    path = np.full((K, n), -1, dtype=np.int64)
    best[0, :] = w[:, n - 1]
    for k in range(2, K + 1):
        # first anchor i < m, successor j in i+1..m
        m = n - k + 1
        vals = reach[:m, :m] + best[k - 2, 1: m + 1]
        pick = np.argmax(vals, axis=1)
        best[k - 1, :m] = vals[np.arange(m), pick]
        path[k - 1, :m] = pick + 1
    anchors = [0]
    i = 0
    for k in range(K, 1, -1):
        i = int(path[k - 1, i])
        anchors.append(i)
    return SharingPlan(N=n, anchors=tuple(anchors), strategy="dp",
                       utility=_fold_utility(w, tuple(anchors), n))


def plan_bruteforce(S, K: int) -> SharingPlan:
    """Exhaustive oracle: every anchor set containing 0, same fold and the
    same tie-break as plan_dp. Guarded to small N."""
    sim = _as_matrix(S)
    n = sim.N
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force limited to N <= {BRUTEFORCE_MAX_N}, got {n}")
    if not 1 <= K <= n:
        raise ValueError(f"budget K={K} out of range [1, {n}]")
    w = utility_table(sim)
    best_anchors: tuple[int, ...] | None = None
    best_utility = -np.inf
    for rest in combinations(range(1, n), K - 1):
        anchors = (0, *rest)
        u = _fold_utility(w, anchors, n)
        if u > best_utility:
            best_utility = u
            best_anchors = anchors
    return SharingPlan(N=n, anchors=best_anchors, strategy="bruteforce",
                       utility=best_utility)


# ---------------------------------------------------------------------------
# probing and shared sampling
# ---------------------------------------------------------------------------


def probe_similarity(model, probe_x0: np.ndarray, grid: TimeGrid, y,
                     solver: str = "euler") -> SimilarityMatrix:
    """Full, unguided sampling on the probe batch (a sample_with_sharing
    request, so its NFE check included), recording z at every step;
    S[i][j] is the probe-averaged cosine between flattened z_i and z_j,
    and a zero-norm z contributes 0."""
    x0 = np.asarray(probe_x0, dtype=np.float64)
    if x0.ndim != 4 or x0.shape[0] < 1:
        raise ValueError("probe batch must be a non-empty [P,C,H,W] array")
    zs: list[np.ndarray] = []
    sample_with_sharing(model, x0, grid, None, y, solver=solver, on_encode=zs.append)
    z = np.stack(zs).reshape(len(zs), x0.shape[0], -1)  # [N, P, D]
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    zn = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0.0)
    s = np.einsum("ipd,jpd->ij", zn, zn) / z.shape[1]
    # a probe-averaged diagonal can sit a few ulps under 1; pin it
    np.fill_diagonal(s, 1.0)
    s = 0.5 * (s + s.T)
    return SimilarityMatrix(np.clip(s, -1.0, 1.0))


def sharing_nfe(steps: int, plan: SharingPlan | None = None,
                guidance: GuidanceSpec | None = None) -> tuple[int, int]:
    """(encoder, decoder) calls of a shared run: the encoder runs once per
    anchor (every step without a plan) and branch, the decoder once per
    step and branch (GuidanceSpec.branches, one without guidance)."""
    branches = 1 if guidance is None else guidance.branches
    return (steps if plan is None else plan.K) * branches, steps * branches


def sample_with_sharing(model, x_0: np.ndarray, grid: TimeGrid,
                        plan: SharingPlan | None, y,
                        guidance: GuidanceSpec | None = None,
                        solver: str = "euler", on_encode=None) -> np.ndarray:
    """One sampling request, and the one solve in ddtlab: the ODE with
    encoder sharing. plan=None makes every step an anchor, which is full
    sampling; guidance of one branch is none. After the solve, on_encode(z)
    gets each anchor's conditional z in step order, the row slices' rows
    joined. The solvers are called by this module's names for them, so a
    caller that rebinds those names sees every solve. NumericalError
    unless the model's NFE counters rose by sharing_nfe during the solve
    (they are read, never reset)."""
    if solver not in SOLVER_ORDERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {sorted(SOLVER_ORDERS)}")
    anchor_times = None
    if plan is not None:
        if plan.N != grid.steps:
            raise ValueError(f"plan covers {plan.N} steps but grid has {grid.steps}")
        anchor_times = {float(grid.nodes[i]) for i in plan.anchors}
    field = model_velocity_field(model, y, guidance, anchor_times)
    field.anchor_z = None if on_encode is None else []  # z is kept only when asked
    encoder, decoder = model.nfe_encoder, model.nfe_decoder
    if solver == "euler":
        x = euler_sample(field, x_0, grid)
    else:
        x = adams_sample(field, x_0, grid, order=SOLVER_ORDERS[solver])
    made = (model.nfe_encoder - encoder, model.nfe_decoder - decoder)
    expected = sharing_nfe(grid.steps, plan, guidance)
    if made != expected:
        raise NumericalError(f"encoder/decoder NFE {made} != closed form {expected}")
    for z in field.anchor_z or ():
        on_encode(z)
    return x


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_PLAN_MAGIC = "ddtlab-plan v1"
# the keys write_plan writes; a file without utility reads it as None
_PLAN_FIELDS = {
    "N": int, "K": int, "sharing_ratio": float, "strategy": str,
    "similarity_checksum": str,
    "utility": lambda value: None if value == "none" else float(value),
    "anchors": lambda value: tuple(int(a) for a in value.split(",")),
}
_PLAN_REQUIRED = [key for key in _PLAN_FIELDS if key != "utility"]
# a .npy file, format version 1.0: magic, a little-endian uint16 header
# length, then the header dict that numpy writes, padded with spaces
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_HEADER = re.compile(rb"\{'descr': '([^']*)', 'fortran_order': (True|False), "
                         rb"'shape': \(([0-9, ]*)\), \} *\n")


def similarity_checksum(S) -> str:
    s = _as_matrix(S).S
    return hashlib.sha256(np.ascontiguousarray(s, dtype="<f8").tobytes()).hexdigest()


def write_similarity(path, S) -> None:
    """A standard .npy file (little-endian float64, C order) at exactly
    `path`, which `np.load` opens; a round trip is bit-exact."""
    s = np.ascontiguousarray(_as_matrix(S).S, dtype="<f8")
    with atomic_write(path, binary=True) as fh:
        np.lib.format.write_array(fh, s, version=(1, 0), allow_pickle=False)


def read_similarity(path) -> SimilarityMatrix:
    """Read a write_similarity file: the .npy magic and header, a square
    2-D `<f8` C-order shape, exactly the bytes that shape needs (checked
    against the file's size before anything is read), then the
    SimilarityMatrix checks. Anything else raises FormatError."""
    with open(path, "rb") as fh:
        lead = fh.read(len(_NPY_MAGIC) + 2)
        if len(lead) != len(_NPY_MAGIC) + 2 or not lead.startswith(_NPY_MAGIC):
            raise FormatError(f"not a .npy similarity file: {path}")
        (header_len,) = struct.unpack("<H", lead[-2:])
        match = _NPY_HEADER.fullmatch(fh.read(header_len))
        if match is None:
            raise FormatError(f"bad .npy header in {path}")
        descr, fortran, dims = match.groups()
        if descr != b"<f8" or fortran != b"False":
            raise FormatError(f"similarity must be '<f8' in C order, got "
                              f"{descr.decode('latin-1')!r} with "
                              f"fortran_order={fortran.decode()}")
        shape = [d.strip() for d in dims.split(b",")]
        if not shape[-1]:
            shape.pop()  # the trailing comma of a 1-tuple, or ()
        if len(shape) != 2 or not all(d.isdigit() and len(d) <= 20 for d in shape):
            raise FormatError(f"similarity must be 2-D, got shape ({dims.decode()})")
        n, m = int(shape[0]), int(shape[1])
        if n != m or n < 1:
            raise FormatError(f"similarity matrix must be square, got ({n}, {m})")
        need = 8 * n * n  # Python ints, so a huge claimed shape cannot wrap
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need != left:
            raise FormatError(f"similarity body of ({n}, {n}) needs {need} bytes, "
                              f"file has {left}")
        body = fh.read(need)
    if len(body) != need:
        raise FormatError(f"similarity file {path} truncated while reading")
    try:
        return SimilarityMatrix(np.frombuffer(body, dtype="<f8").reshape(n, n))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_plan(path, plan: SharingPlan, checksum: str = "none") -> None:
    with atomic_write(path) as fh:
        fh.write(f"{_PLAN_MAGIC}\n")
        fh.write(f"N={plan.N}\n")
        fh.write(f"K={plan.K}\n")
        fh.write(f"sharing_ratio={plan.sharing_ratio:.17g}\n")
        fh.write(f"strategy={plan.strategy}\n")
        fh.write(f"similarity_checksum={checksum}\n")
        utility = "none" if plan.utility is None else f"{plan.utility:.17g}"
        fh.write(f"utility={utility}\n")
        fh.write("anchors=" + ",".join(str(a) for a in plan.anchors) + "\n")


def read_plan(path) -> tuple[SharingPlan, str]:
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    if first is None or lines[first].strip() != _PLAN_MAGIC:
        raise FormatError(f"not a plan file: {path}")
    lines[first] = ""  # blanked, not dropped, so the fields keep their line numbers
    fields = read_fields(lines, _PLAN_FIELDS, _PLAN_REQUIRED, f"plan file {path}")
    try:
        plan = SharingPlan(N=fields["N"], anchors=fields["anchors"],
                           strategy=fields["strategy"], utility=fields.get("utility"))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if plan.K != fields["K"]:
        raise FormatError(f"plan header K={fields['K']} but {plan.K} anchors listed")
    if not abs(plan.sharing_ratio - fields["sharing_ratio"]) <= 1e-9:  # so a NaN ratio fails too
        raise FormatError("plan header sharing_ratio inconsistent with anchors")
    return plan, fields["similarity_checksum"]
