"""Parallel regions: the row slices of sampling requests and training
steps.

Independent calls run side by side through ``parallel_calls``: the first
in the caller, the others in one worker process started on first use,
with BLAS held at one thread in both meanwhile. Most of a block's time
is elementwise numpy work that holds the GIL between array passes, so a
second process, not a thread, is what puts the second core to work on
every part of it, not just the GEMMs. The calls are pure and
module-level. The first runs on the caller's own objects and every other
on copies of its arguments: in the worker, copies that crossed through a
shared memory arena (its results come back the same way); in the
caller, fresh objects over the caller's arrays. Its two callers cut a
batch into ``row_slices(rows)`` contiguous slices, a count set by the
batch size alone, and pass each slice the model itself: a sampling
request (samplers._integrate) and a training step (train.train_step).
The model knows nothing about slices or processes.
"""

from __future__ import annotations

import atexit
import contextlib
import json
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

from .numcore import _GRAD_ENABLED, is_grad_enabled

__all__ = [
    "blas_threads",
    "row_slices",
    "slice_edges",
    "parallel_calls",
    "worker_regions",
]

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
        faults a call on views of the arena, and none on the block. A fresh
        worker's first sampling request runs whole before the first free."""
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

    def submit(self, calls) -> None:
        request = self.arena.put(list(calls))
        try:
            _send(self.requests, (request, is_grad_enabled(), np.geterr()))
        except BrokenPipeError:
            raise self._died() from None

    def collect(self) -> tuple[str, object]:
        """("ok", results) or ("error", the exception a call raised)."""
        reply = _receive(self.replies)
        if reply is None:
            raise self._died()
        return self.arena.take(*reply)

    def _died(self) -> RuntimeError:
        _stop_worker(grace=1.0)  # self is the module's one worker
        return RuntimeError(f"the row-slice worker process {self.process.pid} died "
                            f"(exit code {self.process.returncode}) during a parallel region")

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


def _copied(call: Callable[[], object]) -> Callable[[], object]:
    """call over fresh objects that share the caller's arrays: a pickle
    round trip (protocol 5) whose contiguous arrays stay out of band."""
    buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(call, protocol=5, buffer_callback=buffers.append)
    return pickle.loads(stream, buffers=buffers)


def parallel_calls(calls: Sequence[Callable[[], object]]) -> list:
    """[call() for call in calls], run side by side when BLAS has threads
    to spare, for pure calls of module-level functions.

    calls[0] runs on the caller's own objects, every later call on
    copies of its arguments made before calls[0] runs: what a later call
    does to them (an NFE count, a leaf's grad) stays there, and only its
    return value comes back. A Tensor that carries a graph cannot be
    copied, so passing one to a later call raises TypeError (in the
    worker, so does returning one). A later call's function must be
    importable by name, so not one defined in __main__.

    With more than one BLAS thread, one worker process runs the later
    calls, one after another, on full copies while the caller runs
    calls[0]. The worker, a fresh interpreter on the caller's import
    path, is started on the first such region and lives as long as the
    caller. The caller's grad mode and np.errstate hold in the worker
    too. The worker imports the code afresh, so a function patched in
    the caller (a test's monkeypatch, a tracer) is patched only there.
    Meanwhile BLAS runs on one thread in both processes, so they never
    run more compute threads than BLAS was allowed; the count is restored
    afterwards, also when a call raises. One region runs at a time, and a
    call's exception is re-raised in the caller with its type and message;
    when calls[0] raises or an interrupt lands, the worker is killed, not
    waited for.

    With one BLAS thread, or none whose count can be read and set, the
    calls run in the caller, one after another, and a copy is fresh
    objects over the caller's own arrays, which pure calls cannot tell
    from a full copy (a call that wrote into an argument's array would
    write into the caller's). Either way each call does the same
    operations, so the results do not depend on which way they ran.
    """
    global _worker, _worker_regions
    controls = _blas_controls()
    if len(calls) < 2 or controls is None or controls[0]() < 2:
        copies = [_copied(call) for call in calls[1:]]
        return [call() for call in [*calls[:1], *copies]]
    with _ROW_LOCK:
        before = controls[0]()
        controls[1](1)
        try:
            if _worker is None:
                _worker = _Worker()
            _worker.submit(calls[1:])
            _worker_regions += 1
            first = calls[0]()
            status, rest = _worker.collect()
        except BaseException:  # never wait out calls whose reply no one reads
            _stop_worker(grace=0.0)
            raise
        finally:
            controls[1](before)
    if status == "error":
        raise rest
    return [first, *rest]
