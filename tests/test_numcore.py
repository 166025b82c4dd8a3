"""Autodiff and numeric-primitive tests.

Gradients are checked against Richardson-extrapolated central finite
differences; the DCT basis and the 2-D transform built on it are checked
against scipy.fft (test-only dependency) and against their own algebraic
properties (orthonormality, energy preservation). Each test draws from its own seeded generator, so
adding or removing a test changes no other test's inputs.
"""

import ctypes
import math
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from ddtlab import numcore, parallel
from ddtlab.numcore import (
    Tensor,
    gated_residual,
    linear,
    modulate,
    no_grad,
    rms_norm,
    self_attention,
    silu,
    swiglu,
)
from ddtlab.samplers import make_timegrid
from ddtlab.sharesched import probe_similarity
from ddtlab.spectral import dct2, dct_matrix


def fd_grad(fn, arrays, index, step=1e-3):
    """Gradient of scalar fn wrt arrays[index] by Richardson-extrapolated
    central differences. A central difference D(h) errs by c h^2 + O(h^4),
    so (4 D(h/2) - D(h)) / 3 errs by O(h^4) alone: near 1e-12 at h = 1e-3,
    where the round-off, about 1e-16 |f| / h, is near 1e-12 too. A plain
    central difference fine enough for a 1e-6 check (h = 1e-6) carries
    round-off near 1e-10 |f|."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.ravel()
    src = base[index].ravel()

    def central(i, h):
        orig = src[i]
        src[i] = orig + h
        hi = fn(*base)
        src[i] = orig - h
        lo = fn(*base)
        src[i] = orig
        return (hi - lo) / (2.0 * h)

    for i in range(flat.size):
        flat[i] = (4.0 * central(i, step / 2.0) - central(i, step)) / 3.0
    return grad


def check_grads(build, arrays, tol=1e-6):
    """build(*tensors) -> scalar Tensor; compare autodiff to FD on each input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()

    def scalar_fn(*arrs):
        with no_grad():
            return build(*[Tensor(a) for a in arrs]).item()

    for k, t in enumerate(tensors):
        assert t.grad is not None, f"input {k} got no gradient"
        numeric = fd_grad(scalar_fn, arrays, k)
        denom = np.maximum(np.abs(numeric), np.abs(t.grad))
        denom = np.maximum(denom, 1e-4)
        rel = np.abs(t.grad - numeric) / denom
        assert rel.max() < tol, f"input {k}: max rel err {rel.max():.3e}"


def square(t):
    """t * t: the square of a Tensor, as a product node."""
    return t * t


def composed_rope(x, cos, sin):
    """Rotary embedding computed half by half."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    out = np.empty_like(x)
    out[..., :half] = x1 * cos - x2 * sin
    out[..., half:] = x1 * sin + x2 * cos
    return out


def composed_attention(qkv, heads, cos=None, sin=None):
    """The composition self_attention replaces, step by step: split the
    heads with a reshape and a transpose, take q, k and v as head thirds,
    rotate q and k, scale the scores, max-shifted softmax, p @ v, merge
    the heads. The reference for the fused node's forward."""
    b, n, width = qkv.shape
    dh = width // (3 * heads)
    split = qkv.reshape(b, n, 3 * heads, dh).transpose(0, 2, 1, 3)
    q, k, v = split[:, :heads], split[:, heads:2 * heads], split[:, 2 * heads:]
    if cos is not None:
        q, k = composed_rope(q, cos, sin), composed_rope(k, cos, sin)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return (attn @ v).transpose(0, 2, 1, 3).reshape(b, n, heads * dh)


def rope_angles(rng, n, half):
    angles = rng.uniform(0.0, 2.0 * np.pi, (n, half))
    return np.cos(angles), np.sin(angles)


def angle_zero(n, half):
    """Angle-0 rotation tables, which test_rope pins as exactly the
    identity: attention through them is attention without RoPE."""
    return np.ones((n, half)), np.zeros((n, half))


class TestAutodiff:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        check_grads(lambda x, y: ((x + y) * (x - 0.5)).sum(), [a, b])

    def test_div_pow(self):
        rng = np.random.default_rng(102)
        a = rng.standard_normal((5,)) + 3.0
        b = rng.standard_normal((5,)) + 3.0
        check_grads(lambda x, y: square(x / y).sum(), [a, b])

    def test_matmul_2d(self):
        rng = np.random.default_rng(103)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        check_grads(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_batched(self):
        rng = np.random.default_rng(104)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        check_grads(lambda x, y: square(x @ y).sum(), [a, b])

    def test_matmul_refuses_a_vector(self):
        x, v = Tensor(np.ones((3, 4)), requires_grad=True), Tensor(np.ones(4))
        for a, b in ((x, v), (v, x.transpose(1, 0))):
            with pytest.raises(ValueError, match="rank >= 2"):
                a @ b

    def test_reductions(self):
        rng = np.random.default_rng(106)
        a = rng.standard_normal((4, 5))
        check_grads(lambda x: x.mean(), [a])
        check_grads(lambda x: x.sum(axis=1).mean(), [a])

    def test_reshape_transpose(self):
        rng = np.random.default_rng(107)
        a = rng.standard_normal((2, 3, 4))
        check_grads(lambda x: square(x.reshape(6, 4)).sum(), [a])
        check_grads(lambda x: square(x.transpose(2, 0, 1)).sum(), [a])

    def test_chunk(self):
        rng = np.random.default_rng(108)
        a = rng.standard_normal((2, 6))
        def build(x):
            p, q, r = x.chunk(3, axis=-1)
            return (p * q + r).sum()
        check_grads(build, [a])

    def test_take_rows_duplicate_indices(self):
        rng = np.random.default_rng(109)
        table = rng.standard_normal((7, 4))
        idx = np.array([0, 3, 3, 6, 0])
        check_grads(lambda t: square(t.take_rows(idx)).sum(), [table])

    def test_nonlinearities(self):
        rng = np.random.default_rng(110)
        a = rng.standard_normal((4, 4))
        check_grads(lambda x: (x * x + 1.0).sqrt().sum(), [a])
        check_grads(lambda x: silu(x).sum(), [a])

    def test_softmax_grads_and_rows_sum_to_one(self):
        # one head with dh = n and v_j = e_j: each output row is the
        # attention row itself
        rng = np.random.default_rng(11)
        qkv = rng.standard_normal((3, 6, 18))
        qkv[..., 12:] = np.eye(6)
        p = self_attention(Tensor(qkv), 1, *angle_zero(6, 3)).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(p > 0.0)
        a = rng.standard_normal((2, 3, 6))
        tables = angle_zero(3, 1)
        check_grads(lambda x: (self_attention(x, 1, *tables)
                               * self_attention(x, 1, *tables)).sum(), [a])

    def test_softmax_shift_invariance_large_logits(self):
        # scores q.k / sqrt(4) of about 1000: exp would overflow unshifted
        logits = np.array([1000.0, 1000.5, 999.0])
        qkv = np.zeros((1, 3, 12))
        qkv[0, :, 0] = 2.0
        qkv[0, :, 4] = logits
        qkv[0, :, 8:11] = np.eye(3)
        p = self_attention(Tensor(qkv), 1, *angle_zero(3, 2)).data[0, :, :3]
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        ref = np.exp(logits - logits.max())
        np.testing.assert_allclose(p, np.tile(ref / ref.sum(), (3, 1)), rtol=1e-9)

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0001
        y.sum().backward()
        assert x.grad is not None
        np.testing.assert_allclose(x.grad, 1.0001 ** 3000, rtol=1e-9)

    def test_reused_node_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_backward_consumes_the_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        h = x * x
        loss = (h * 3.0).sum()
        loss.backward()
        assert np.array_equal(x.grad, [12.0])
        assert h.grad is None and loss.grad is None
        # stale interior gradients would be added in again (48, not 24)
        with pytest.raises(ValueError, match="already consumed"):
            loss.backward()
        with pytest.raises(ValueError, match="already consumed"):
            (h * 2.0).sum().backward()
        # a new forward pass from the leaves differentiates normally
        x.grad = None
        ((x * x) * 3.0).sum().backward()
        assert np.array_equal(x.grad, [12.0])

    def test_backward_rejects_nonscalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        assert y._backward is None


# Calls for parallel_calls: module-level, so they can cross to the worker.

def _blas_threads_inside(k):
    return parallel.blas_threads()


def _fail_if_bad(k, bad):
    if k == bad:
        raise LookupError(f"slice {k} failed")
    return k


class TwoArgumentError(Exception):
    """An exception that does not survive a pickle round trip: unpickling
    calls __init__ with self.args, which holds one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _raise_two_argument_error(k):
    raise TwoArgumentError("slice", k)


def _exp(x):
    return np.exp(x)


def _double(x):
    return x * 2.0


def _mode_and_double(x):
    return numcore.is_grad_enabled(), x * 2.0


def _mode_and_scaled_sum(a, k):
    return numcore.is_grad_enabled(), float((a * k).sum())


def _bump(ns):
    ns.count += 1
    return ns


def _fill_and_sum(a):
    a[:] = 7.0
    return float(a.sum())


def _sleep_then(k, seconds):
    time.sleep(seconds)
    return k


def _exit_process(k):
    os._exit(3)


_PR_SET_CHILD_SUBREAPER = 36  # prctl option, linux/prctl.h


def _exits_within(pid: int, seconds: float) -> bool:
    """Whether process pid ends within seconds: it is gone or a zombie,
    and reaped here if it is this process's child (an orphan that came
    to this process)."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            ended = "\nState:\tZ" in Path(f"/proc/{pid}/status").read_text()
        except OSError:
            return True
        if ended:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # another process's child
                pass
            return True
        time.sleep(0.05)
    return False


def _needs_worker():
    threads = parallel.blas_threads()
    if threads is None or threads < 2:
        pytest.skip("row slices run in a worker only with two or more BLAS threads")


class TestRowParallel:
    """parallel.parallel_calls, the one region that the row slices of a
    field call or a training step run in: calls[0] in the caller, the
    others in one worker process when BLAS has two or more threads."""

    def test_blas_threads_restored_also_when_a_slice_raises(self):
        before = parallel.blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS thread control in this process")
        inside = parallel.parallel_calls([partial(_blas_threads_inside, k) for k in (0, 1)])
        assert inside == ([1, 1] if before > 1 else [before, before])
        assert parallel.blas_threads() == before
        for bad in (0, 1):  # the caller's call, then the worker's
            with pytest.raises(LookupError) as raised:
                parallel.parallel_calls([partial(_fail_if_bad, k, bad) for k in (0, 1)])
            assert str(raised.value) == f"slice {bad} failed"
            assert parallel.blas_threads() == before
        assert parallel.parallel_calls([partial(_fail_if_bad, k, 2) for k in (0, 1)]) == [0, 1]

    def test_a_worker_error_carries_the_workers_traceback(self):
        _needs_worker()
        with pytest.raises(LookupError, match="slice 1 failed") as raised:
            parallel.parallel_calls([partial(_fail_if_bad, k, 1) for k in (0, 1)])
        assert any(note.startswith("raised in the row-slice worker process")
                   for note in getattr(raised.value, "__notes__", []))

    def test_a_worker_error_that_does_not_pickle_comes_back_as_a_runtime_error(self):
        _needs_worker()
        with pytest.raises(RuntimeError) as raised:
            parallel.parallel_calls([partial(_double, 1.0), partial(_raise_two_argument_error, 1)])
        assert str(raised.value) == "TwoArgumentError: slice at 1"

    def test_workers_run_under_the_callers_errstate(self):
        for overflowing in (0, 1):  # the caller's call, then the worker's
            big = np.zeros((2, 2))
            big[overflowing] = 1e4
            calls = [partial(_exp, big[0]), partial(_exp, big[1])]
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                parallel.parallel_calls(calls)
            with np.errstate(over="ignore"):
                out = parallel.parallel_calls(calls)
            assert np.all(out[overflowing] == np.inf)

    def test_concurrent_callers_serialise(self):
        # more callers than cores, switching often: every result must be
        # whole and the BLAS thread count restored once all are done. The
        # first region runs before the threads start, so the threads all
        # share one worker that is already up.
        before = parallel.blas_threads()
        wrong = []

        def caller(k):
            for _ in range(40):
                a = np.arange(8.0) + k
                halves = parallel.parallel_calls([partial(_double, a[:4]),
                                                  partial(_double, a[4:])])
                if not np.array_equal(np.concatenate(halves), a * 2.0):
                    wrong.append(k)

        caller(-1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for th in callers:
                th.start()
            for th in callers:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in callers)
        assert wrong == []
        assert parallel.blas_threads() == before

    def test_slice_workers_build_no_graph(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with no_grad():
            results = parallel.parallel_calls([partial(_mode_and_double, x)] * 2)
        assert [mode for mode, _ in results] == [False, False]
        assert not any(out.requires_grad for _, out in results)
        assert all(np.array_equal(out.data, np.full((4, 3), 2.0)) for _, out in results)

    def test_parallel_calls_keep_order_and_the_callers_grad_mode(self):
        a = np.arange(3.0)
        calls = [partial(_mode_and_scaled_sum, a, k) for k in (1, 2, 3)]
        assert parallel.parallel_calls(calls) == [(True, 3.0), (True, 6.0), (True, 9.0)]
        with no_grad():
            assert parallel.parallel_calls(calls[:2]) == [(False, 3.0), (False, 6.0)]

    def test_a_tensor_with_a_graph_never_crosses(self):
        _needs_worker()
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with pytest.raises(TypeError, match="autodiff graph"):  # a result
            parallel.parallel_calls([partial(_double, x)] * 2)
        with pytest.raises(TypeError, match="autodiff graph"):  # an argument
            parallel.parallel_calls([partial(_double, x)] * 2 + [partial(_double, x * 1.0)])
        assert parallel.parallel_calls([partial(_double, 1.0)] * 2) == [2.0, 2.0]

    def test_later_calls_run_on_copies_inline_and_in_the_worker(self):
        # with one BLAS thread the calls run inline; with the default
        # threads, when there are two or more, the later ones in the worker
        controls = parallel._blas_controls()
        before = parallel.blas_threads()
        for threads in [1] + ([before] if before is not None and before > 1 else []):
            if controls is not None:
                controls[1](threads)
            try:
                ns, regions = SimpleNamespace(count=0), parallel.worker_regions()
                first, later = parallel.parallel_calls([partial(_bump, ns)] * 2)
                assert parallel.worker_regions() == regions + (threads > 1)
                assert first is ns and ns.count == 1  # calls[0] on the caller's own
                assert later is not ns and later.count == 1
                x = Tensor(np.ones(3), requires_grad=True)
                with pytest.raises(TypeError, match="autodiff graph"):
                    parallel.parallel_calls([partial(_double, 1.0), partial(_double, x * 1.0)])
            finally:
                if controls is not None:
                    controls[1](before)
        assert parallel.blas_threads() == before

    def test_a_worker_call_sees_a_copy_of_its_arguments(self):
        _needs_worker()
        a, b = np.zeros(4), np.zeros(4)
        assert parallel.parallel_calls([partial(_fill_and_sum, a),
                                        partial(_fill_and_sum, b)]) == [28.0, 28.0]
        assert np.all(a == 7.0)  # calls[0] ran in the caller, on a itself
        assert np.all(b == 0.0)

    def test_an_interrupted_region_leaves_no_stale_reply(self):
        # the interrupt lands while the caller waits for the worker's reply,
        # which is then never read; the next region must get its own
        _needs_worker()
        parallel.parallel_calls([partial(_double, 0.0)] * 2)  # the worker is up

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(KeyboardInterrupt):
                parallel.parallel_calls([partial(_sleep_then, "first", 0.0),
                                         partial(_sleep_then, "stale", 1.0)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert parallel.parallel_calls([partial(_sleep_then, k, 0.0)
                                        for k in ("a", "b")]) == ["a", "b"]

    def test_a_dying_worker_is_an_error_and_the_next_region_starts_anew(self):
        _needs_worker()
        with pytest.raises(RuntimeError, match="worker process .* died"):
            parallel.parallel_calls([partial(_double, 1.0), partial(_exit_process, 1)])
        assert parallel.parallel_calls([partial(_double, k) for k in (1.0, 2.0)]) == [2.0, 4.0]

    def test_a_forked_child_starts_its_own_worker(self):
        _needs_worker()
        parallel.parallel_calls([partial(_double, 0.0)] * 2)  # the worker is up
        pid = os.fork()
        if pid == 0:  # the child: never return into the test runner
            status = 1
            try:
                if parallel.parallel_calls([partial(_double, k) for k in (1.0, 2.0)]) == [2.0, 4.0]:
                    status = 0
                parallel._stop_worker()
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        assert parallel.parallel_calls([partial(_double, k) for k in (3.0, 4.0)]) == [6.0, 8.0]

    @pytest.mark.parametrize("end", ["exit", "kill"])
    def test_no_worker_outlives_its_parent(self, end):
        """A process runs one 64-row field call, prints its worker's pid
        and exits, or is killed. Either way the worker has exited within
        seconds, and reading the process's stdout and stderr to their end
        returns, so the worker held neither. This test process is a child
        subreaper meanwhile, so an orphaned worker comes to it and is
        reaped here, not left a zombie under an init that may not reap."""
        _needs_worker()
        code = (
            "import os, sys, time, numpy as np\n"
            "from ddtlab.model import DDTModel, preset\n"
            "from ddtlab.samplers import model_velocity_field\n"
            "model = DDTModel(preset('desk'), seed=0)\n"
            "c = model.config\n"
            "x = np.zeros((64, c.channels, c.image_size, c.image_size))\n"
            "model_velocity_field(model, 1)(x, 0.5)\n"
            "print(open(f'/proc/self/task/{os.getpid()}/children').read(), flush=True)\n"
            "if sys.argv[1] == 'kill':\n"
            "    time.sleep(120)\n")
        env = dict(os.environ)
        src = str(Path(parallel.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        prctl = ctypes.CDLL(None).prctl
        subreaper = prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
        try:
            proc = subprocess.Popen([sys.executable, "-c", code, end], env=env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            try:
                children = proc.stdout.readline().split()
                if end == "kill":
                    proc.kill()
                proc.communicate(timeout=60)
            finally:
                proc.kill()
                proc.wait()
            assert len(children) == 1, children
            assert _exits_within(int(children[0]), 10.0), f"worker alive after {end}"
        finally:
            if subreaper:
                prctl(_PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)

    def test_model_call_restores_blas_threads(self):
        from ddtlab.model import DDTModel, preset
        from ddtlab.samplers import model_velocity_field
        before = parallel.blas_threads()
        model = DDTModel(preset("desk"), seed=0)
        x = np.random.default_rng(3).standard_normal((64, 1, 8, 8))
        model_velocity_field(model, 1)(x, 0.5)
        assert parallel.blas_threads() == before


class TestGradMode:
    def test_no_grad_in_one_thread_leaves_another_building_graphs(self):
        entered, done = threading.Event(), threading.Event()
        modes = []

        def inference():
            with no_grad():
                modes.append(numcore.is_grad_enabled())
                entered.set()
                done.wait(timeout=60)

        other = threading.Thread(target=inference)
        other.start()
        try:
            assert entered.wait(timeout=60)
            rng = np.random.default_rng(126)
            x = Tensor(rng.standard_normal((4, 3)))
            w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
            b = Tensor(np.zeros(2), requires_grad=True)
            loss = linear(x, w, b).sum()
            assert numcore.is_grad_enabled()
            assert loss.requires_grad
            loss.backward()
        finally:
            done.set()
            other.join(timeout=60)
        assert modes == [False]
        np.testing.assert_allclose(w.grad, np.repeat(x.data.sum(axis=0)[:, None], 2, axis=1),
                                   rtol=1e-12)
        assert np.array_equal(b.grad, np.full(2, 4.0))


class TestFusedOps:
    """Each single-node op against finite differences of its own forward."""

    def test_linear_2d(self):
        rng = np.random.default_rng(111)
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        check_grads(lambda x, w, b: square(linear(x, w, b)).sum(), [x, w, b])

    def test_linear_3d(self):
        rng = np.random.default_rng(112)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        check_grads(lambda x, w, b: square(linear(x, w, b)).sum(), [x, w, b])
        np.testing.assert_allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data,
                                   x @ w + b, rtol=1e-13, atol=1e-13)

    def test_rms_norm(self):
        rng = np.random.default_rng(113)
        x = rng.standard_normal((2, 3, 6))
        k = rng.standard_normal((2, 3, 6))
        check_grads(lambda x: (rms_norm(x) * Tensor(k)).sum(), [x])

    def test_silu(self):
        rng = np.random.default_rng(114)
        x = rng.standard_normal((3, 5)) * 3.0
        k = rng.standard_normal((3, 5))
        check_grads(lambda x: (silu(x) * Tensor(k)).sum(), [x])

    def test_softmax(self):
        rng = np.random.default_rng(115)
        # self_attention through angle-0 tables, two heads
        x = rng.standard_normal((2, 4, 12))
        k = rng.standard_normal((2, 4, 4))
        check_grads(lambda x: (self_attention(x, 2, *angle_zero(4, 1)) * Tensor(k)).sum(), [x])

    def test_rope(self):
        rng = np.random.default_rng(125)
        # self_attention with rotation, three heads of dh = 6
        x = rng.standard_normal((2, 4, 54))
        k = rng.standard_normal((2, 4, 18))
        cos, sin = rope_angles(rng, 4, 3)
        check_grads(lambda x: (self_attention(x, 3, cos, sin) * Tensor(k)).sum(), [x])
        # angle 0 everywhere is exactly the identity rotation
        out = self_attention(Tensor(x), 3, *angle_zero(4, 3)).data
        assert np.array_equal(out, composed_attention(x, 3))

    @pytest.mark.parametrize("rotate", [False, True])
    def test_self_attention_matches_composed_forward(self, rotate):
        # desk sizes: 16 tokens, 4 heads of dh = 16; without rotation the
        # fused node gets angle-0 tables and the reference no RoPE at all
        rng = np.random.default_rng(5)
        qkv = rng.standard_normal((8, 16, 192))
        tables = rope_angles(rng, 16, 8) if rotate else ()
        out = self_attention(Tensor(qkv), 4, *(tables or angle_zero(16, 8))).data
        assert np.array_equal(out, composed_attention(qkv, 4, *tables))

    @pytest.mark.parametrize("per_token", [False, True])
    def test_modulate(self, per_token):
        rng = np.random.default_rng(117)
        x = rng.standard_normal((2, 3, 4))
        mod = rng.standard_normal((2, 3 if per_token else 1, 8))
        k = rng.standard_normal((2, 3, 4))
        check_grads(lambda x, m: (modulate(x, *m.chunk(2)) * Tensor(k)).sum(), [x, mod])
        shift, scale = mod[..., :4], mod[..., 4:]
        out = modulate(Tensor(x), Tensor(shift), Tensor(scale)).data
        assert np.array_equal(out, shift + (1.0 + scale) * x)

    @pytest.mark.parametrize("per_token", [False, True])
    def test_gated_residual(self, per_token):
        rng = np.random.default_rng(118)
        h = rng.standard_normal((2, 3, 4))
        gate = rng.standard_normal((2, 3 if per_token else 1, 4))
        y = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 3, 4))
        check_grads(lambda h, g, y: (gated_residual(h, g, y) * Tensor(k)).sum(), [h, gate, y])
        out = gated_residual(Tensor(h), Tensor(gate), Tensor(y)).data
        assert np.array_equal(out, h + gate * y)
        closed = gated_residual(Tensor(h), Tensor(np.zeros_like(gate)), Tensor(y)).data
        assert np.array_equal(closed, h)

    def test_swiglu(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 5)) * 2.0
        b = rng.standard_normal((3, 5))
        k = rng.standard_normal((3, 5))
        check_grads(lambda a, b: (swiglu(a, b) * Tensor(k)).sum(), [a, b])
        assert np.array_equal(swiglu(Tensor(a), Tensor(b)).data, silu(Tensor(a)).data * b)

    def test_chunk(self):
        rng = np.random.default_rng(120)
        x = rng.standard_normal((2, 6, 3))

        def build(x):
            p, q, r = x.chunk(3, axis=1)  # r is unused: its window stays 0
            return (p * q).sum() + (x * x).sum()
        check_grads(build, [x])

    def test_accumulation_does_not_write_into_shared_gradients(self):
        rng = np.random.default_rng(121)
        # a and b first receive the same array from the add node; a's
        # second contribution must not leak into b's gradient
        k = rng.standard_normal(4)
        m = rng.standard_normal(4)
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        loss = ((a + b) * Tensor(k)).sum() + (a * Tensor(m)).sum()
        loss.backward()
        assert np.array_equal(b.grad, k)
        np.testing.assert_allclose(a.grad, k + m, rtol=1e-15)


class TestDCT:
    def test_matrix_is_orthonormal(self):
        for n in (1, 2, 5, 16, 33):
            m = dct_matrix(n)
            np.testing.assert_allclose(m @ m.T, np.eye(n), atol=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(122)
        for n in (4, 16, 57):
            v = rng.standard_normal(n)
            np.testing.assert_allclose(
                dct_matrix(n) @ v, scipy.fft.dct(v, type=2, norm="ortho"), atol=1e-12)
        x = rng.standard_normal((3, 16, 5))
        np.testing.assert_allclose(
            dct2(x), scipy.fft.dctn(x, type=2, norm="ortho", axes=(-2, -1)), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal((2, 40, 7))
        np.testing.assert_allclose(dct_matrix(40).T @ dct2(x) @ dct_matrix(7), x, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_energy_preserved(self, n, seed):
        v = np.random.default_rng(abs(seed) % 2**32).standard_normal((n, 3))
        c = dct2(v)
        assert abs(np.sum(c * c) - np.sum(v * v)) <= 1e-10 * max(1.0, np.sum(v * v))

    def test_mean_squared_coefficient_of_white_noise(self):
        # For x ~ N(0, I), E[(u_i^T x)^2] = 1 for every orthonormal row u_i.
        n, trials = 16, 10_000
        rng = np.random.default_rng(7)
        x = rng.standard_normal((trials, n))
        coef = x @ dct_matrix(n).T
        mean_sq = (coef ** 2).mean(axis=0)
        assert np.all(np.abs(mean_sq - 1.0) < 0.05)

    def test_cached_basis_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            dct_matrix(8)[0, 0] += 1.0
        np.testing.assert_allclose(dct_matrix(8)[0, 0], math.sqrt(1.0 / 8.0), rtol=1e-15)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            dct_matrix(0)
        with pytest.raises(ValueError):
            dct2(np.ones((3, 0)))


class ScriptedEncoder:
    """Model stand-in for probe_similarity: the encoder returns the next
    of the given per-step features z[i] ([P, D], one row per probe) and the
    decoder returns zero velocity. A probe batch runs as one row slice,
    on the stand-in itself, whose NFE counters the probe's check reads."""

    def __init__(self, z):
        self.z = iter(z)
        self.nfe_encoder = self.nfe_decoder = 0

    def encode(self, x, t, y):
        self.nfe_encoder += 1
        return Tensor(next(self.z)), None

    def decode(self, x, t, z):
        self.nfe_decoder += 1
        return Tensor(np.zeros_like(x))


def probe_cosines(z):
    """probe_similarity's S for per-step features z of shape [N, P, D]."""
    z = np.asarray(z, dtype=np.float64)
    x0 = np.zeros((z.shape[1], 1, 1, 1))
    return probe_similarity(ScriptedEncoder(z), x0, make_timegrid(z.shape[0]),
                            y=np.zeros(z.shape[1], dtype=np.int64)).S


class TestCosineSimilarity:
    """The cosine normalisation of probe_similarity, on chosen features."""

    def test_aligned_and_opposed(self):
        rng = np.random.default_rng(124)
        v = rng.standard_normal((1, 8))
        s = probe_cosines([v, 2.5 * v, -v])
        assert s[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert s[0, 2] == pytest.approx(-1.0, abs=1e-12)
        assert s[1, 2] == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        s = probe_cosines([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert s[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_norm_row_gives_zero(self):
        # probe 1's feature vanishes at step 1: its cosine counts as 0 in
        # the probe average, and the diagonal stays 1
        z = np.ones((2, 2, 4))
        z[1, 1] = 0.0
        s = probe_cosines(z)
        assert s[0, 1] == 0.5
        assert np.array_equal(np.diag(s), [1.0, 1.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="P,C,H,W"):
            probe_similarity(ScriptedEncoder([]), np.ones((3, 4)), make_timegrid(2), y=[0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(), st.floats(min_value=0.1, max_value=50.0))
    def test_symmetry_and_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(abs(seed) % 2**32)
        a = rng.standard_normal((1, 6)) + 0.1
        b = rng.standard_normal((1, 6)) + 0.1
        s = probe_cosines([a, b])
        cos = float(a[0] @ b[0]) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(s[0, 1] - cos) <= 1e-12
        assert s[0, 1] == s[1, 0]
        assert abs(s[0, 1] - probe_cosines([scale * a, b])[0, 1]) <= 1e-9
        assert -1.0 <= s[0, 1] <= 1.0
