"""Span recorder for the traced run.

The tracer wraps public ddtlab functions at the names their callers look
them up by, records one span per call in memory and restores the
originals on `uninstall`. Nothing inside ddtlab is changed.
"""

from __future__ import annotations

import functools
import json
import time

from stats import Span


def _targets():
    """(owner, attribute, layer name) for every traced call site.

    Functions are patched on each module that binds them: sharesched
    imports euler_sample and adams_sample by name, so patching only
    ddtlab.samplers would miss the calls from sample_with_sharing and
    probe_similarity. Methods are patched on the class.
    """
    from ddtlab import datasets, metrics, model, numcore, samplers, sharesched, spectral, train
    return [
        (numcore.Tensor, "backward", "numcore.backward"),
        (model.DDTModel, "encode", "model.encode"),
        (model.DDTModel, "decode", "model.decode"),
        (model.DDTModel, "teacher_features", "model.teacher_features"),
        (model.DDTModel, "project_alignment", "model.project_alignment"),
        (model, "load_checkpoint", "model.load_checkpoint"),
        (train, "train_step", "train.train_step"),
        (train, "make_batch", "train.make_batch"),
        (train, "loss_terms", "train.loss_terms"),
        (train.Adam, "step", "train.adam"),
        (datasets.BandlimitedDataset, "sample", "datasets.sample"),
        (samplers, "lagrange_coefficients", "samplers.lagrange_coefficients"),
        (sharesched, "probe_similarity", "sharesched.probe_similarity"),
        (sharesched, "sample_with_sharing", "sharesched.sample_with_sharing"),
        (sharesched, "utility_table", "sharesched.utility_table"),
        (sharesched, "plan_dp", "sharesched.plan_dp"),
        (sharesched, "plan_bruteforce", "sharesched.plan_bruteforce"),
        (sharesched, "plan_uniform", "sharesched.plan_uniform"),
        (sharesched, "plan_utility", "sharesched.plan_utility"),
        (sharesched, "write_plan", "sharesched.io"),
        (sharesched, "read_plan", "sharesched.io"),
        (sharesched, "write_similarity", "sharesched.io"),
        (sharesched, "read_similarity", "sharesched.io"),
        (metrics, "mmd_rbf", "metrics.mmd_rbf"),
        (metrics, "spectral_distance", "metrics.spectral_distance"),
        (spectral, "empirical_noisy_spectrum", "spectral.empirical_noisy_spectrum"),
    ], [
        (samplers, "euler_sample"),
        (samplers, "adams_sample"),
        (sharesched, "euler_sample"),
        (sharesched, "adams_sample"),
    ]


class Tracer:
    """Spans in memory; `op` is the id of the operation being timed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def _wrap_solver(self, fn):
        """A solver span whose velocity-field calls are spans of their own,
        so solver self time excludes the model."""
        def solve(velocity_field, *args, **kwargs):
            return fn(self.wrap(velocity_field, "samplers.field"), *args, **kwargs)
        return self.wrap(functools.wraps(fn)(solve), "samplers.solve")

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        functions, solvers = _targets()
        for owner, attr, name in functions:
            self._patch(owner, attr, self.wrap(vars(owner)[attr], name))
        for owner, attr in solvers:
            self._patch(owner, attr, self._wrap_solver(vars(owner)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        """One JSON object per line and span; parent is a line index."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")
