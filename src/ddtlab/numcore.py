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

Independent calls run side by side through ``parallel_calls``: the first
in the caller, the others in one worker process started on first use,
with BLAS held at one thread in both meanwhile. Most of a block's time
is elementwise numpy work that holds the GIL between array passes, so a
second process, not a thread, is what puts the second core to work on
every part of it, not just the GEMMs. The calls are pure and
module-level: a call in the worker sees copies of its arguments (arrays
cross through a shared memory arena) and returns its results the same
way. Its two callers cut a batch into ``row_slices(rows)`` contiguous
slices, a count set by the batch size alone, and run each slice on its
own model copy: a sampling field call (samplers.model_velocity_field)
and a training step (train.train_step). The model itself knows nothing
about processes.

Also home to the orthonormal type-II DCT basis used across the package
(spectral.dct2 applies it along both image axes as two matrix products,
O(n^3) per image, plenty at desk scale).
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import json
import math
import mmap
import os
import pickle
import signal
import subprocess
import sys
import threading
import traceback
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "blas_threads",
    "row_slices",
    "slice_edges",
    "parallel_calls",
    "worker_regions",
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
# building off for itself alone. A ContextVar cannot cross a process, so
# parallel_calls sends the caller's mode to its worker with each region.
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
# parallel regions: row slices of sampling field calls and training steps
# ---------------------------------------------------------------------------

# A batch of at least this many rows runs as two row slices (row_slices).
# Desk training steps, 2 CPUs (Intel Xeon), OpenBLAS 0.3.31, median of 48,
# one graph against two halves: 8 rows 14.3 against 16.7 ms, 16 rows 21.8
# against 21.4 ms, 24 rows 32.1 against 25.1 ms, 32 rows 42.9 against
# 30.7 ms. With OPENBLAS_NUM_THREADS=1, where the halves run one after
# the other (median of 27): 8 rows 13.6 against 15.7 ms, 16 rows 23.3
# against 24.2 ms, 24 rows 35.6 against 32.2 ms. From 24 rows the halves
# are faster on either thread count; at 16 they gain nothing. Encode plus
# decode under no_grad, median of 20: 32 rows took 22-24 ms in two slices
# against 39-40 ms unsplit, 64 rows 37 ms against 61-67 ms. Those figures
# are for a pool thread. With the worker process, on the same machine type
# in a slower session (medians of 24; one slice with 2 BLAS threads against
# two slices with 1 each): training 8 rows 30.7 against 35.6 ms, 16 rows
# 54.0 against 47.2 ms, 24 rows 83.8 against 56.9 ms, 32 rows 117.5 against
# 73.6 ms; encode plus decode 8 rows 8.6 against 15.2 ms, 32 rows 27.5
# against 31.5 ms, 64 rows 59.4 against 41.3 ms. Each region sends the
# worker the weights (3.8 MB for desk, about 3 ms there), which is why a
# 32-row field call gains nothing in that session.
SPLIT_MIN_ROWS = 24


def row_slices(rows: int) -> int:
    """How many contiguous row slices a batch of `rows` rows runs as: two
    from SPLIT_MIN_ROWS up, else one. The batch size alone decides, so
    results do not depend on the CPUs or the BLAS threads."""
    return 2 if rows >= SPLIT_MIN_ROWS else 1


def slice_edges(rows: int) -> list[int]:
    """The row bounds of the row_slices(rows) slices: rows // 2 rows and
    then the rest for two slices."""
    n = row_slices(rows)
    return [rows * i // n for i in range(n + 1)]


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


_ROW_LOCK = threading.Lock()

# Arrays cross to the worker and back through one shared arena; each
# buffer starts on a cache line, and the arena grows in whole MiB.
_ALIGN = 64
_ARENA_STEP = 1 << 20


def _send(pipe, message) -> None:
    pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _receive(pipe):
    """The next message on pipe, or None once the other end is closed."""
    try:
        return pickle.load(pipe)
    except EOFError:
        return None


class _Arena:
    """Shared memory (one memfd both processes map) that the arrays of a
    region cross through: pickle protocol 5 puts each contiguous array
    out of band at an aligned offset, the request's and then, once the
    worker has copied the request out, the reply's. Both sides reuse it
    region after region, so its pages fault in once; it grows to the
    largest message so far and never shrinks."""

    def __init__(self, fd: int):
        self.fd, self.size, self._bytes = fd, 0, None

    def _map(self, size: int) -> None:
        self._bytes = np.frombuffer(mmap.mmap(self.fd, size), dtype=np.uint8)
        self.size = size

    def put(self, obj) -> tuple[bytes, list[int], int]:
        """Pickle obj with its arrays' bytes in the arena: (the pickle
        stream, the buffer sizes, the arena size)."""
        buffers: list[pickle.PickleBuffer] = []
        stream = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [b.raw() for b in buffers]
        sizes = [raw.nbytes for raw in raws]
        offsets = _offsets(sizes)
        if offsets[-1] > self.size:
            size = -(-offsets[-1] // _ARENA_STEP) * _ARENA_STEP
            os.ftruncate(self.fd, size)
            self._map(size)
        for raw, lo, n in zip(raws, offsets, sizes):
            if n:
                self._bytes[lo:lo + n] = np.frombuffer(raw, dtype=np.uint8)
        return stream, sizes, self.size

    def take(self, stream: bytes, sizes: list[int], size: int):
        """The object put() sent, its arrays views of one private copy of
        the arena's bytes. Besides giving the calls arrays of their own,
        freeing a block this size each region raises glibc's dynamic mmap
        and trim thresholds in a fresh worker, as a long-running caller's
        already are, so the worker's heap is not handed back to the OS
        between regions: in a 64-row field call its slice took 7.4k minor
        faults a call on views of the arena, and none on the block."""
        if size != self.size:
            self._map(size)
        offsets = _offsets(sizes)
        block = self._bytes[:offsets[-1]].copy() if offsets[-1] else np.empty(0, np.uint8)
        return pickle.loads(stream, buffers=[block[lo:lo + n] for lo, n in zip(offsets, sizes)])

    def close(self) -> None:
        self._bytes = None
        os.close(self.fd)


def _offsets(sizes: list[int]) -> list[int]:
    """The aligned start of each buffer, then the end of the last."""
    offsets = [0]
    for n in sizes:
        offsets.append(-(-(offsets[-1] + n) // _ALIGN) * _ALIGN)
    return offsets


def _crossing(exc: BaseException) -> BaseException:
    """exc as it can cross a process: itself with the worker's traceback
    as a note when it pickles, else a RuntimeError naming its type."""
    exc.add_note("raised in the row-slice worker process:\n"
                 + "".join(traceback.format_exception(exc)))
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# The worker's program: the caller's import path, then the serve loop on
# the descriptors it inherits.
_WORKER_MAIN = ("import json, sys; sys.path[:] = json.loads(sys.argv[1]); "
                f"from {__name__} import _serve; _serve(*map(int, sys.argv[2:]))")


def _serve(requests_fd: int, replies_fd: int, arena_fd: int) -> None:
    """The worker's loop: run each request's calls and send back their
    results or the first error, until the request pipe is closed."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    controls = _blas_controls()
    if controls is not None:
        controls[1](1)
    requests, replies = os.fdopen(requests_fd, "rb"), os.fdopen(replies_fd, "wb")
    arena = _Arena(arena_fd)
    while (request := _receive(requests)) is not None:
        message, grad, errors = request
        try:
            calls = arena.take(*message)
            token = _GRAD_ENABLED.set(grad)
            try:
                with np.errstate(**errors):
                    reply = arena.put(("ok", [call() for call in calls]))
            finally:
                _GRAD_ENABLED.reset(token)
        except BaseException as exc:  # re-raised in the caller, whatever it is
            reply = arena.put(("error", _crossing(exc)))
        _send(replies, reply)


class _Worker:
    """The one worker process, a fresh interpreter that the caller starts
    and feeds: it runs the calls after the first of each region and ends
    when the caller closes the request pipe, or exits or dies."""

    def __init__(self):
        arena_fd = os.memfd_create("ddtlab-rows", os.MFD_CLOEXEC)
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            # A bare fork would share the caller's pages copy-on-write, and
            # the caller's next writes would copy them (about 0.1 s in a
            # desk training process); exec leaves none shared. The worker
            # holds only its ends of the pipes (close_fds), so it reads end
            # of input once the caller is gone, and none of the caller's
            # standard streams. In its own session, a terminal's Ctrl-C
            # reaches the caller alone.
            self.process = subprocess.Popen(
                [sys.executable, "-c", _WORKER_MAIN, json.dumps(sys.path),
                 str(requests_r), str(replies_w), str(arena_fd)],
                pass_fds=(requests_r, replies_w, arena_fd), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                start_new_session=True)
        except BaseException:
            for fd in (requests_w, replies_r, arena_fd):
                os.close(fd)
            raise
        finally:
            os.close(requests_r)
            os.close(replies_w)
        self.requests, self.replies = os.fdopen(requests_w, "wb"), os.fdopen(replies_r, "rb")
        self.arena = _Arena(arena_fd)
        self.pending = False  # a request whose reply is not yet read

    def submit(self, calls) -> None:
        request = self.arena.put(list(calls))
        self.pending = True
        try:
            _send(self.requests, (request, is_grad_enabled(), np.geterr()))
        except BrokenPipeError:
            raise self._died() from None

    def collect(self) -> tuple[str, object]:
        """("ok", results) or ("error", the exception a call raised)."""
        reply = _receive(self.replies)
        if reply is None:
            raise self._died()
        result = self.arena.take(*reply)
        self.pending = False
        return result

    def _died(self) -> RuntimeError:
        global _worker
        _worker = None
        code = self.stop(grace=1.0)
        return RuntimeError(f"the row-slice worker process {self.process.pid} died "
                            f"(exit code {code}) during a parallel region")

    def close(self) -> None:
        """Close this process's ends of the pipes and its arena."""
        for pipe in (self.requests, self.replies):
            with contextlib.suppress(OSError):  # a request a dead worker left unread
                pipe.close()
        self.arena.close()

    def stop(self, grace: float) -> int:
        """Close the pipes, which ends the worker's loop; wait up to grace
        seconds for it to exit, then kill it. Its exit code."""
        self.close()
        try:
            return self.process.wait(grace)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait()


_worker: _Worker | None = None
_worker_regions = 0  # parallel regions whose later calls ran in the worker


def worker_regions() -> int:
    """How many parallel_calls regions of this process ran calls in the
    worker process so far."""
    return _worker_regions


def _stop_worker(grace: float = 2.0) -> None:
    global _worker
    if _worker is not None:
        worker, _worker = _worker, None
        worker.stop(grace)


def _forget_worker_in_child() -> None:
    # A forked child must not hold the worker's pipes, or the worker would
    # see no end of input when the parent exits; the child starts its own.
    global _worker, _ROW_LOCK
    if _worker is not None:
        _worker.close()
    _worker, _ROW_LOCK = None, threading.Lock()


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker_in_child)


def parallel_calls(calls: Sequence[Callable[[], object]]) -> list:
    """[call() for call in calls], run side by side when BLAS has threads
    to spare, for pure calls of module-level functions.

    With more than one BLAS thread, the caller runs calls[0] and one
    worker process runs the others, one after another. The worker, a
    fresh interpreter on the caller's import path, is started on the
    first such region and lives as long as the caller. A call that runs
    there sees copies of its arguments, and only its return value comes
    back; a Tensor that carries a graph crosses neither way. Its function
    must be importable by name, so not one defined in __main__. The
    caller's grad mode and np.errstate hold in the worker too. The worker
    imports the code afresh, so a function patched in the caller (a
    test's monkeypatch, a tracer) is patched only there. Meanwhile
    BLAS runs on one thread in both processes, so they never run more
    compute threads than BLAS was allowed; the count is restored
    afterwards, also when a call raises. One region runs at a time, and a
    call's exception is re-raised in the caller with its type and message.

    With one BLAS thread, or none whose count can be read and set, the
    calls run in the caller, one after another, on the same functions.
    Either way each call does the same operations, so the results do not
    depend on which way they ran.
    """
    global _worker, _worker_regions
    controls = _blas_controls()
    if len(calls) < 2 or controls is None or controls[0]() < 2:
        return [call() for call in calls]
    with _ROW_LOCK:
        before = controls[0]()
        controls[1](1)
        try:
            if _worker is not None and _worker.pending:
                _stop_worker(grace=0.0)  # a cut-short region left a reply unread
            if _worker is None:
                _worker = _Worker()
            _worker.submit(calls[1:])
            _worker_regions += 1
            try:
                first = calls[0]()
            finally:
                status, rest = _worker.collect()
        finally:
            controls[1](before)
    if status == "error":
        raise rest
    return [first, *rest]


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

    def __reduce__(self):
        # how a Tensor crosses a copy or a pickle (parallel_calls' worker);
        # its closures cannot, so a Tensor that carries a graph never does
        if self._parents or self._backward is not None:
            raise TypeError("a Tensor that carries an autodiff graph cannot be "
                            "copied or pickled")
        return Tensor, (self.data, self.requires_grad), (None, {"grad": self.grad})

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

