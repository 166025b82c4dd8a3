"""Arithmetic of the benchmark: percentiles, span self times, the check
ledger and the reduction of a traced run to per-layer metrics.

Kept free of numpy and of ddtlab so that it can be tested on synthetic
data alone.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    pct: float      # share of samples at or below `value`, in percent
    beyond: int     # samples strictly beyond the tail sample
    n: int


def tail(values) -> Tail:
    """The highest percentile that still has TAIL_BEYOND samples beyond it.

    With n sorted samples that is the one at index n - 11. With ten samples
    or fewer no percentile qualifies; the maximum is reported instead and
    `beyond` reads 0, so the output shows the rule could not be met.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return Tail(value=xs[i], pct=100.0 * (i + 1) / n, beyond=n - 1 - i, n=n)


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    """Operations attempted and every failed check, by operation.

    An operation with several failed checks counts once in `failed`, so
    the failed ratio has the operations attempted as its base; every
    failure stays listed in `failures`.
    """
    attempted: int = 0
    failures: list = field(default_factory=list)

    def begin(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def check(self, op: int, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.append({"op": op, "check": name, "detail": detail})

    @property
    def failed(self) -> int:
        return len({f["op"] for f in self.failures})

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at the top
    op: int | None       # operation id, None outside any timed operation


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


@dataclass
class LayerTotals:
    ms: float = 0.0        # inclusive, outermost spans of the name only
    self_ms: float = 0.0
    calls: int = 0


def layer_totals(spans: list[Span], in_ops: bool = True) -> dict[str, LayerTotals]:
    """Per span name: inclusive ms, self ms and call count.

    in_ops selects the spans inside timed operations (True) or those
    outside them, such as set-up (False). A span nested in one of the same
    name adds to the calls and self time but not again to the inclusive
    time.
    """
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for i, s in enumerate(spans):
        if (s.op is not None) != in_ops:
            continue
        t = out.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.self_ms += 1000.0 * selfs[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t.ms += 1000.0 * (s.end - s.start)
    return out


def layer_metrics(spans: list[Span], op_seconds: list[float],
                  untraced_op_seconds: list[float], graph_nodes: int,
                  skipped: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, as plain numbers.

    Times and calls are per operation; a share is over the traced
    operations' wall time. A layer that the workload never calls reads 0.
    """
    n_ops = len(op_seconds)
    wall_ms = 1000.0 * sum(op_seconds)
    if n_ops == 0 or wall_ms <= 0.0:
        raise ValueError("a traced run needs at least one timed operation")
    tot = layer_totals(spans)
    setup = layer_totals(spans, in_ops=False)

    def get(name):
        return tot.get(name, LayerTotals())

    def per_op(name, what):
        return getattr(get(name), what) / n_ops

    enc, dec = get("model.encode").calls, get("model.decode").calls
    load = setup.get("model.load_checkpoint", LayerTotals())
    return {
        "numcore.backward.ms": per_op("numcore.backward", "ms"),
        "numcore.backward.share": get("numcore.backward").ms / wall_ms,
        "numcore.graph_nodes": float(graph_nodes),
        "model.encode.ms": per_op("model.encode", "ms"),
        "model.encode.calls": per_op("model.encode", "calls"),
        "model.decode.ms": per_op("model.decode", "ms"),
        "model.decode.calls": per_op("model.decode", "calls"),
        "model.teacher_features.ms": per_op("model.teacher_features", "ms"),
        "model.project_alignment.ms": per_op("model.project_alignment", "ms"),
        "model.load_checkpoint.ms": load.ms / load.calls if load.calls else 0.0,
        "train.make_batch.ms": per_op("train.make_batch", "ms"),
        "train.loss_terms.self_ms": per_op("train.loss_terms", "self_ms"),
        "train.adam.ms": per_op("train.adam", "ms"),
        "train.skipped": float(skipped),
        "samplers.solve.self_ms": per_op("samplers.solve", "self_ms"),
        "samplers.field.self_ms": per_op("samplers.field", "self_ms"),
        "samplers.lagrange_coefficients.ms": per_op("samplers.lagrange_coefficients", "ms"),
        "samplers.lagrange_coefficients.calls": per_op("samplers.lagrange_coefficients", "calls"),
        # every decode serves one step of one guidance branch; an encode
        # call is made only where z is not reused
        "sharesched.encoder_reuse_ratio": (dec - enc) / dec if dec else 0.0,
        "sharesched.probe_similarity.self_ms": per_op("sharesched.probe_similarity", "self_ms"),
        "sharesched.utility_table.ms": per_op("sharesched.utility_table", "ms"),
        "sharesched.plan_dp.self_ms": per_op("sharesched.plan_dp", "self_ms"),
        "sharesched.plan_bruteforce.ms": per_op("sharesched.plan_bruteforce", "ms"),
        "sharesched.io.ms": per_op("sharesched.io", "ms"),
        "metrics.mmd_rbf.ms": per_op("metrics.mmd_rbf", "ms"),
        "metrics.spectral_distance.ms": per_op("metrics.spectral_distance", "ms"),
        "spectral.empirical_noisy_spectrum.ms": per_op("spectral.empirical_noisy_spectrum", "ms"),
        "datasets.sample.ms": per_op("datasets.sample", "ms"),
        "trace.coverage": sum(t.self_ms for t in tot.values()) / wall_ms,
        "trace.overhead": sum(op_seconds) / sum(untraced_op_seconds),
    }
