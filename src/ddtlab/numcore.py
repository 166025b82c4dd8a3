"""Minimal dense float64 tensor with reverse-mode automatic differentiation.

The autodiff graph is implicit: each non-leaf Tensor keeps references to
its parents and a closure that routes the incoming gradient to them.
``backward`` walks the graph once in reverse topological order, so every
node is visited exactly once and cycles are impossible by construction
(tensors only ever point at tensors that already existed). The walk
consumes the graph: each interior node drops its gradient, parents and
closure as it is routed, so activations and interior gradients are freed
during the sweep rather than at the end of the step, and only leaves keep
``grad``. A graph is differentiated once; a second ``backward`` through a
consumed node raises ValueError.

The transformer's hot paths are single nodes with hand-written backward
passes rather than compositions of elementwise nodes:

  linear(x, w, b)         x @ w + b with the batch axes flattened, so the
                          forward, input-gradient and weight-gradient
                          products are each one 2-D GEMM
  rms_norm(x)             x / sqrt(mean(x^2) + eps) over the last axis
  modulate(x, sh, sc)     sh + (1 + sc) * x, the AdaLN modulation
  gated_residual(h, g, y) h + g * y, the AdaLN-Zero gated residual
  self_attention(qkv, nh, cos, sin)
                          fused q|k|v projection -> merged heads: RoPE on
                          q and k, scaled scores, softmax, p @ v
  swiglu(a, b)            silu(a) * b
  silu(x)                 x * sigmoid(x)
  Tensor.chunk            equal slices whose gradients land in one shared
                          parent buffer

Each keeps the operation order of the composition it replaces, so a
forward pass under no_grad is bit-identical to the composed one.

Independent calls run side by side through ``parallel_calls``, with BLAS
held at one thread meanwhile. Most of a block's time is single-threaded
elementwise numpy work, so this puts the cores BLAS was allowed to every
part of the work, not just the GEMMs. Inference uses it through
``row_parallel``, which runs a no_grad forward whose rows are independent
as contiguous row slices, one per OpenBLAS thread (``row_slices``);
training runs the two halves of a batch through it (train.train_step).

Also home to the orthonormal type-II DCT basis used across the package
(spectral.dct2 applies it along both image axes as two matrix products,
O(n^3) per image, plenty at desk scale).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "blas_threads",
    "row_slices",
    "parallel_calls",
    "row_parallel",
    "linear",
    "rms_norm",
    "modulate",
    "gated_residual",
    "self_attention",
    "swiglu",
    "silu",
    "dct_matrix",
]

# Per context, not per process: a thread that enters no_grad turns graph
# building off for itself alone, and a worker run under a copy of the
# caller's context (parallel_calls) inherits the caller's mode.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "ddtlab_grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph construction (inference mode)
    in the current context."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED.get()
        _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.set(self._prev)
        return False


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


# ---------------------------------------------------------------------------
# parallel regions: row-parallel inference and split training steps
# ---------------------------------------------------------------------------

# Fewest rows a slice may hold. Encode plus decode of the desk preset
# under no_grad, 2 CPUs (Intel Xeon), OpenBLAS 0.3.31, median of 20:
# 32 rows took 22-24 ms in two slices of 16 against 39-40 ms unsplit,
# 64 rows 37 ms against 61-67 ms. Two slices of 8 rows were faster too
# (14 against 19-20 ms at 16 rows), but a slice's GEMMs then near the
# size below which OpenBLAS switches to a small-matrix kernel that
# rounds differently (M*N*K <= 1e6 on x86-64): desk slices of 4 rows
# already change the last bits. 16 rows keep the token GEMMs of the desk
# stacks above that size (DDTModel.decode runs the narrow output
# projection on the whole batch), so the split stays bit-identical.
MIN_SLICE_ROWS = 16

# (getter, setter) symbol pairs that OpenBLAS builds export
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def _blas_controls():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None
    when no library with both symbols is mapped into this process."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs a call on now, or None when its
    thread count cannot be read and set."""
    controls = _blas_controls()
    return None if controls is None else int(controls[0]())


def row_slices(rows: int) -> int:
    """How many slices `row_parallel` splits `rows` rows into now: one
    per BLAS thread, each at least MIN_SLICE_ROWS rows."""
    threads = blas_threads()
    if threads is None:
        return 1
    return max(1, min(threads, rows // MIN_SLICE_ROWS))


_ROW_LOCK = threading.Lock()
_row_pool: tuple[int, ThreadPoolExecutor] | None = None  # (workers, pool)


def _pool(workers: int) -> ThreadPoolExecutor:
    """The parallel_calls workers' pool, made on first use and grown on
    demand."""
    global _row_pool
    if _row_pool is None or _row_pool[0] < workers:
        if _row_pool is not None:
            _row_pool[1].shutdown(wait=False)
        _row_pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="ddtlab-rows"))
    return _row_pool[1]


def _forget_pool_in_child() -> None:
    # a forked child inherits the pool object but none of its threads
    global _row_pool, _ROW_LOCK
    _row_pool, _ROW_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _rows(a, lo: int, hi: int):
    return Tensor(a.data[lo:hi]) if isinstance(a, Tensor) else a[lo:hi]


def _concat(parts: list):
    if isinstance(parts[0], tuple):
        return tuple(_concat(column) for column in zip(*parts))
    return Tensor(np.concatenate([p.data for p in parts]))


def parallel_calls(calls: Sequence[Callable[[], object]]) -> list:
    """[call() for call in calls], run side by side when BLAS has threads
    to spare, for calls that do not touch each other's data.

    With more than one BLAS thread, the calling thread runs the first
    call and a thread pool the others, each under a copy of the caller's
    context (so the grad mode and np.errstate hold there too). Meanwhile
    BLAS runs on one thread, so the process never runs more compute
    threads than BLAS was allowed; the count is restored afterwards, also
    when a call raises. One region runs at a time. With one BLAS thread,
    or none whose count can be read and set, the calls run one after
    another on the caller's thread. Either way each call does the same
    operations, so the results do not depend on which way they ran.
    """
    controls = _blas_controls()
    if len(calls) < 2 or controls is None or controls[0]() < 2:
        return [call() for call in calls]
    with _ROW_LOCK:
        before = controls[0]()
        controls[1](1)
        futures = []
        try:
            pool = _pool(len(calls) - 1)
            futures = [pool.submit(contextvars.copy_context().run, call)
                       for call in calls[1:]]
            results = [calls[0]()]
            results += [f.result() for f in futures]
        finally:
            wait(futures)
            controls[1](before)
    return results


def row_parallel(fn: Callable, *args):
    """fn(*args) for a fn whose output rows depend only on the same rows
    of its inputs: every arg is a Tensor or array with the rows on axis
    0, and fn returns a Tensor or a tuple of Tensors.

    Under no_grad, with `row_slices` > 1, the rows are cut into that many
    contiguous slices that run through `parallel_calls`, and the slices'
    results are joined in order. Each row goes through the same
    operations as in one call, so the result is bit-identical. With
    gradients enabled, or too few rows or BLAS threads to split, fn runs
    once on the caller's thread.
    """
    rows = args[0].shape[0]
    slices = 1 if _GRAD_ENABLED.get() else row_slices(rows)
    if slices == 1:
        return fn(*args)
    bounds = [rows * i // slices for i in range(slices + 1)]
    parts = [[_rows(a, lo, hi) for a in args] for lo, hi in zip(bounds, bounds[1:])]
    return _concat(parallel_calls([partial(fn, *part) for part in parts]))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked by autodiff.

    Data is immutable by convention after construction; the documented
    exception is the in-place parameter update the optimizer performs
    between steps.

    Gradient rule: backward hands gradient arrays around without copying.
    A ``grad`` may be the very array another node holds as its gradient,
    or a read-only broadcast view, so nothing may write into a ``grad``
    in place. Accumulation replaces it with a fresh sum instead.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @classmethod
    def _node(cls, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls(data)
        if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def detach(self) -> "Tensor":
        """Constant view of this tensor: same data, no graph participation."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        # never `+=`: the held array may be shared (see the class docstring)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    # -- autodiff ---------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss that consumes the graph.

        Fills ``grad`` on every requires_grad leaf reachable from this
        one. Iterative topological order (no recursion limits), each node
        visited exactly once. Each interior node is released as it is
        reached: its ``grad``, parents and closure are cleared before the
        closure runs, so its saved activations and incoming gradient are
        freed once they have been routed, and its ``grad`` reads None
        afterwards. A released node's closure raises ValueError, so a
        second backward() through it, or through a new graph built on
        it, fails instead of adding stale gradients again.
        """
        if self.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        order = topological_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            route = node._backward
            if route is None:
                continue  # a leaf keeps its grad
            g = node.grad
            node.grad = None
            node._parents = ()
            node._backward = _released
            if g is not None:
                route(g)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._node(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._node(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.shape))

        return Tensor._node(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._node(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.shape))

        return Tensor._node(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float):
        p = float(exponent)
        out_data = self.data ** p

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * p * self.data ** (p - 1.0))

        return Tensor._node(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                if other.ndim == 1:
                    ga = np.outer(g, other.data) if self.ndim == 2 else g[..., None] * other.data
                else:
                    ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                if self.ndim == 1:
                    gb = np.outer(self.data, g)
                elif other.ndim == 2:
                    # one 2-D GEMM over the flattened batch, not B of them
                    gb = self.data.reshape(-1, self.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape))

        return Tensor._node(out_data, (self, other), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape))
            else:
                gk = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(gk, self.shape))

        return Tensor._node(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.size if axis is None else np.prod(
            [self.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- shape manipulation ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old_shape))

        return Tensor._node(out_data, (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out_data = np.transpose(self.data, axes)

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.transpose(g, inverse))

        return Tensor._node(out_data, (self,), backward)

    def chunk(self, n: int, axis: int = -1) -> list["Tensor"]:
        """n equal slices along an axis.

        The slices hang off one hidden node that owns a single parent-sized
        gradient buffer: each slice writes its gradient into its own window
        of that buffer, and the hidden node, which backward reaches after
        every slice, hands the whole buffer to this tensor once.
        """
        ax = axis if axis >= 0 else self.ndim + axis
        width = self.shape[ax]
        if width % n != 0:
            raise ValueError(f"cannot split axis of size {width} into {n} chunks")
        step = width // n
        windows = [_window(self.ndim, ax, i * step, step) for i in range(n)]
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return [Tensor(self.data[index]) for index in windows]

        def hub_backward(g):
            self._accumulate(g)

        hub = Tensor._node(self.data, (self,), hub_backward)

        def piece(index):
            def backward(g):
                # the buffer is created here and only slices write to it
                if hub.grad is None:
                    hub.grad = np.zeros(hub.shape)
                hub.grad[index] = g

            return Tensor._node(self.data[index], (hub,), backward)

        return [piece(index) for index in windows]

    def take_rows(self, indices: np.ndarray):
        """Row gather (embedding lookup); backward scatter-adds."""
        idx = np.asarray(indices)
        out_data = self.data[idx]

        def backward(g):
            if self.requires_grad:
                full = np.zeros(self.shape)
                np.add.at(full, idx, g)
                self._accumulate(full)

        return Tensor._node(out_data, (self,), backward)

    # -- pointwise nonlinearities ------------------------------------------------------

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / out_data)

        return Tensor._node(out_data, (self,), backward)


def _released(g: np.ndarray) -> None:
    raise ValueError("backward() already consumed this tensor's graph; "
                     "run the forward pass again to get a new one")


def _window(ndim: int, axis: int, start: int, length: int) -> tuple:
    index = [slice(None)] * ndim
    index[axis] = slice(start, start + length)
    return tuple(index)


def topological_order(root: Tensor) -> list[Tensor]:
    """Nodes of the graph below `root`, parents before children."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# ---------------------------------------------------------------------------
# DCT basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix; rows are the basis vectors u_i."""
    if n < 1:
        raise ValueError("DCT size must be >= 1")
    k = np.arange(n)[:, None]
    r = np.arange(n)[None, :]
    mat = np.cos(np.pi / n * k * (r + 0.5))
    mat *= np.sqrt(2.0 / n)
    mat[0] *= np.sqrt(0.5)
    return mat


# ---------------------------------------------------------------------------
# fused nodes (one graph node each, hand-written backward)
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape [..., d_in] and w of shape [d_in, d_out].

    The batch axes are flattened, so the forward product and both
    gradient products are single 2-D GEMMs."""
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    return Tensor._node(out.reshape(*x.shape[:-1], w.shape[-1]), (x, w, b), backward)


# added under the square root of every normalization
NORM_EPS = 1e-6


def rms_norm(x: Tensor) -> Tensor:
    """x / sqrt(mean(x^2) + eps) over the last axis, without affine terms."""
    n = x.shape[-1]
    root = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) * (1.0 / n) + NORM_EPS)
    out = x.data / root

    def backward(g):
        if x.requires_grad:
            gy = (g * out).sum(axis=-1, keepdims=True) * (1.0 / n)
            x._accumulate((g - out * gy) / root)

    return Tensor._node(out, (x,), backward)


def modulate(x: Tensor, shift: Tensor, scale: Tensor) -> Tensor:
    """shift + (1 + scale) * x; shift and scale broadcast against x."""
    factor = 1.0 + scale.data
    out = factor * x.data
    out += shift.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(_unbroadcast(g * factor, x.shape))
        if shift.requires_grad:
            shift._accumulate(_unbroadcast(g, shift.shape))
        if scale.requires_grad:
            scale._accumulate(_unbroadcast(g * x.data, scale.shape))

    return Tensor._node(out, (x, shift, scale), backward)


def gated_residual(h: Tensor, gate: Tensor, y: Tensor) -> Tensor:
    """h + gate * y; gate broadcasts against y. A zero gate and a finite
    y return h exactly."""
    out = gate.data * y.data
    out += h.data

    def backward(g):
        if h.requires_grad:
            h._accumulate(_unbroadcast(g, h.shape))
        if gate.requires_grad:
            gate._accumulate(_unbroadcast(g * y.data, gate.shape))
        if y.requires_grad:
            y._accumulate(_unbroadcast(g * gate.data, y.shape))

    return Tensor._node(out, (h, gate, y), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one buffer."""
    sig = np.negative(x)
    np.exp(sig, out=sig)
    sig += 1.0
    return np.divide(1.0, sig, out=sig)


def _silu_slope(x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """d silu / dx = sig * (1 + x * (1 - sig)), in one buffer."""
    slope = 1.0 - sig
    slope *= x
    slope += 1.0
    slope *= sig
    return slope


def silu(x: Tensor) -> Tensor:
    sig = _sigmoid(x.data)
    out = x.data * sig

    def backward(g):
        if x.requires_grad:
            gx = _silu_slope(x.data, sig)
            gx *= g
            x._accumulate(gx)

    return Tensor._node(out, (x,), backward)


def swiglu(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * b. The backward pass recomputes silu(a) from the held
    sigmoid rather than holding a second activation-sized array."""
    sig = _sigmoid(a.data)
    out = a.data * sig
    out *= b.data

    def backward(g):
        if a.requires_grad:
            ga = _silu_slope(a.data, sig)
            ga *= g * b.data
            a._accumulate(ga)
        if b.requires_grad:
            gb = a.data * sig
            gb *= g
            b._accumulate(gb)

    return Tensor._node(out, (a, b), backward)


def _rotation_tables(cos: np.ndarray, sin: np.ndarray, heads: int):
    """Full-width rotation tables [c, c] and [-s, s] of shape
    [n, 2, heads, dh] from the [n, dh/2] half tables, tiled over q|k and
    the heads so that one elementwise pass over the [b, n, 2, heads, dh]
    q|k block has an inner loop across all of a token's heads."""
    n, half = cos.shape
    c = np.empty((n, 2, heads, 2, half))
    c[...] = cos[:, None, None, None, :]
    s = np.empty_like(c)
    s[..., 0, :] = -sin[:, None, None, :]
    s[..., 1, :] = sin[:, None, None, :]
    return c.reshape(n, 2, heads, 2 * half), s.reshape(n, 2, heads, 2 * half)


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out=None) -> np.ndarray:
    """x * cos + swap_halves(x) * sin over the last axis. With the tables
    [c, c] and [-s, s] this rotates each pair (x1, x2) to
    (x1*c - x2*s, x2*c + x1*s); with [c, c] and [s, -s] it applies the
    inverse rotation. Negation is exact and a + (-b) == a - b, so the
    result is bitwise the half-by-half rotation."""
    half = x.shape[-1] // 2
    swapped = np.empty(x.shape)
    np.copyto(swapped.reshape(*x.shape[:-1], 2, half),
              x.reshape(*x.shape[:-1], 2, half)[..., ::-1, :])
    swapped *= sin
    out = np.multiply(x, cos, out=out)
    out += swapped
    return out


def _softmax_inplace(x: np.ndarray) -> None:
    """Max-shifted softmax over the last axis, in place; the shift is
    exact because softmax is shift invariant."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)


def self_attention(qkv: Tensor, heads: int, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Multi-head softmax self-attention from the fused projection
    [b, n, 3d], laid out (q | k | v) x heads x dh along the last axis, to
    the merged heads [b, n, d].

    q and k first get the rotary embedding given by cos and sin, the
    [n, dh/2] tables of the token angles. Backward: dv = p^T g,
    ds = p * (dp - sum(dp * p)) * scale with dp = g v^T, dq = ds k,
    dk = ds^T q, then the inverse rotation of dq and dk.
    """
    b, n, width = qkv.shape
    dh = width // (3 * heads)
    scale = 1.0 / math.sqrt(dh)
    x = qkv.data.reshape(b, n, 3, heads, dh)
    cos, sin = _rotation_tables(cos, sin, heads)
    qk = _rope(x[:, :, :2], cos, sin)
    # [b, heads, n, dh] views
    q = qk[:, :, 0].transpose(0, 2, 1, 3)
    k = qk[:, :, 1].transpose(0, 2, 1, 3)
    v = x[:, :, 2].transpose(0, 2, 1, 3)
    p = q @ k.transpose(0, 1, 3, 2)
    p *= scale
    _softmax_inplace(p)
    out = (p @ v).transpose(0, 2, 1, 3).reshape(b, n, heads * dh)

    def backward(g):
        if not qkv.requires_grad:
            return
        go = g.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
        grad = np.empty(x.shape)
        grad[:, :, 2] = (p.transpose(0, 1, 3, 2) @ go).transpose(0, 2, 1, 3)
        ds = go @ v.transpose(0, 1, 3, 2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        gqk = np.empty(qk.shape)
        gqk[:, :, 0] = (ds @ k).transpose(0, 2, 1, 3)
        gqk[:, :, 1] = (ds.transpose(0, 1, 3, 2) @ q).transpose(0, 2, 1, 3)
        _rope(gqk, cos, -sin, out=grad[:, :, :2])
        qkv._accumulate(grad.reshape(qkv.shape))

    return Tensor._node(out, (qkv,), backward)

