"""Flow-matching training contracts: interpolant endpoints, lognorm
timestep statistics (against a normal-CDF oracle), alignment loss range,
loss decomposition, determinism, frozen teacher, NaN handling."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import ddtlab.train as train_mod
from ddtlab.datasets import BandlimitedDataset, GaussianDataset, PointMassDataset, make_dataset
from ddtlab.errors import NumericalError, UsageError
from ddtlab.model import DDTModel, ModelConfig, preset
from ddtlab import numcore
from ddtlab.numcore import Tensor, dct_matrix, topological_order
from ddtlab.rng import step_stream, substream
from ddtlab.train import (
    Adam,
    LossReport,
    TrainBatch,
    alignment_loss,
    flow_matching_loss,
    interpolate,
    loss_terms,
    make_batch,
    parse_train_config,
    sample_timestep_lognorm,
    train,
    train_step,
    write_metrics_csv,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(encoder_layers=2, decoder_layers=1, hidden_dim=8, heads=2,
                patch_size=2, image_size=4, channels=1, num_classes=3,
                alignment_layer=1, teacher_dim=6)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_batch(rng, cfg, n=4) -> TrainBatch:
    ds = make_dataset("bandlimited", cfg.image_size, cfg.channels, cfg.num_classes)
    return make_batch(ds, cfg, rng, n)


class TestInterpolate:
    def test_endpoints(self):
        x = np.random.default_rng(0).standard_normal((2, 1, 4, 4))
        e = np.random.default_rng(1).standard_normal((2, 1, 4, 4))
        x0, v0 = interpolate(x, e, 0.0)
        assert np.array_equal(x0, e)
        x1, _ = interpolate(x, e, 1.0)
        assert np.array_equal(x1, x)
        assert np.array_equal(v0, x - e)

    def test_direct_substitution(self):
        x_t, v = interpolate(np.array(2.0), np.array(0.0), 0.5)
        assert x_t == 1.0 and v == 2.0

    def test_per_sample_t_broadcast(self):
        x = np.ones((3, 1, 2, 2))
        e = np.zeros((3, 1, 2, 2))
        t = np.array([0.0, 0.5, 1.0])
        x_t, _ = interpolate(x, e, t)
        np.testing.assert_array_equal(x_t[:, 0, 0, 0], [0.0, 0.5, 1.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            interpolate(np.ones(3), np.ones(4), 0.5)
        with pytest.raises(ValueError):
            interpolate(np.ones(3), np.ones(3), 1.5)


class TestLognormTimestep:
    def test_logistic_of_zero(self):
        rng = np.random.default_rng(0)
        t = sample_timestep_lognorm(rng, mean=0.0, std=1e-300)
        assert t == 0.5

    def test_mean_and_band_fraction(self):
        rng = np.random.default_rng(123)
        t = sample_timestep_lognorm(rng, 0.0, 1.0, size=100_000)
        assert abs(t.mean() - 0.5) < 0.01
        frac = np.mean((t > 0.25) & (t < 0.75))
        assert abs(frac - 0.7234) < 0.01
        # oracle: P(0.25 < logistic(u) < 0.75) = Phi(ln 3) - Phi(-ln 3)
        exact = scipy.stats.norm.cdf(math.log(3.0)) - scipy.stats.norm.cdf(-math.log(3.0))
        assert abs(frac - exact) < 0.005

    def test_clamped_to_open_interval(self):
        rng = np.random.default_rng(7)
        t = sample_timestep_lognorm(rng, 0.0, 50.0, size=10_000)
        assert t.min() >= train_mod.T_CLAMP
        assert t.max() <= 1.0 - train_mod.T_CLAMP

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            sample_timestep_lognorm(np.random.default_rng(0), 0.0, 0.0)


class TestAlignmentLoss:
    def test_perfect_and_anti_alignment(self):
        r = np.random.default_rng(3).standard_normal((2, 4, 6))
        assert alignment_loss(Tensor(r), r).item() == pytest.approx(0.0, abs=1e-9)
        assert alignment_loss(Tensor(-r), r).item() == pytest.approx(2.0, abs=1e-9)

    def test_orthogonal(self):
        a = np.zeros((1, 1, 2))
        b = np.zeros((1, 1, 2))
        a[0, 0] = [1.0, 0.0]
        b[0, 0] = [0.0, 1.0]
        assert alignment_loss(Tensor(a), b).item() == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_projection_gives_one(self):
        r = np.ones((1, 2, 3))
        val = alignment_loss(Tensor(np.zeros((1, 2, 3))), r).item()
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            alignment_loss(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2, 4)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers())
    def test_range_and_gradient(self, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        p = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        r = rng.standard_normal((2, 3, 4))
        loss = alignment_loss(p, r)
        assert -1e-12 <= loss.item() <= 2.0 + 1e-12
        loss.backward()
        assert p.grad is not None and np.all(np.isfinite(p.grad))


class TestFlowMatchingLoss:
    def test_fresh_model_gives_noise_floor(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=4)
        batch = tiny_batch(np.random.default_rng(0), cfg)
        report = flow_matching_loss(model, batch)
        expected = np.mean((batch.x_data - batch.eps) ** 2)
        assert report.loss_dec == pytest.approx(expected, rel=1e-12)

    def test_data_equals_noise_gives_zero(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=4)
        x = np.random.default_rng(1).standard_normal((3, 1, 4, 4))
        batch = TrainBatch(x_data=x, y=np.zeros(3, dtype=np.int64), eps=x.copy(),
                           t=np.full(3, 0.4))
        report = flow_matching_loss(model, batch)
        assert report.loss_dec == 0.0

    def test_decomposition_identity_exact(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=4)
        batch = tiny_batch(np.random.default_rng(2), cfg)
        for w in (0.0, 0.5, 1.7):
            rep = flow_matching_loss(model, batch, alignment_weight=w)
            assert rep.total == rep.loss_dec + w * rep.loss_enc
            assert rep.loss_dec >= 0.0
            assert 0.0 <= rep.loss_enc <= 2.0

    def test_nonfinite_forward_aborts(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=4)
        model.params["final.proj.b"].data[:] = np.inf
        batch = tiny_batch(np.random.default_rng(3), cfg)
        with pytest.raises(NumericalError):
            flow_matching_loss(model, batch)


class TestTrainStep:
    def test_indirect_encoder_supervision_at_zero_weight(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=6)
        # nudge gates so the decoder depends on z
        nudge = np.random.default_rng(1)
        for _, p in model.named_parameters():
            p.data += 0.05 * nudge.standard_normal(p.shape)
        batch = tiny_batch(np.random.default_rng(4), cfg)
        model.zero_grad()
        _, _, total = loss_terms(model, batch, alignment_weight=0.0)
        total.backward()
        enc_grads = [np.abs(p.grad).max() for n, p in model.named_parameters()
                     if n.startswith("enc.") and p.grad is not None]
        assert max(enc_grads) > 0.0
        for n, p in model.named_parameters():
            if n.startswith("halign."):
                assert p.grad is None or np.all(p.grad == 0.0), n

    def test_projection_head_gets_gradient_with_weight(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=6)
        batch = tiny_batch(np.random.default_rng(4), cfg)
        model.zero_grad()
        _, _, total = loss_terms(model, batch, alignment_weight=0.5)
        total.backward()
        g = model.params["halign.w2"].grad
        assert g is not None and np.abs(g).max() > 0.0

    def test_desk_loss_graph_node_budget(self):
        # the fused attention, AdaLN and SwiGLU nodes keep one desk
        # training step's graph within 300 nodes (464 when composed)
        cfg = preset("desk")
        model = DDTModel(cfg, seed=0)
        batch = make_batch(make_dataset("bandlimited"), cfg, np.random.default_rng(2), 32)
        _, _, total = loss_terms(model, batch, alignment_weight=0.5)
        assert len(topological_order(total)) <= 300

    def test_backward_frees_interior_grads_and_matches_retaining_walk(self):
        # the reference walk is the graph-retaining sweep backward replaced
        def retaining_backward(root):
            order = topological_order(root)
            root.grad = np.ones_like(root.data)
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)

        cfg = preset("desk")
        batch = make_batch(make_dataset("bandlimited"), cfg, np.random.default_rng(5), 32)
        ref = DDTModel(cfg, seed=4)
        retaining_backward(loss_terms(ref, batch, alignment_weight=0.5)[2])
        model = DDTModel(cfg, seed=4)
        _, _, total = loss_terms(model, batch, alignment_weight=0.5)
        interior = [t for t in topological_order(total) if t._backward is not None]
        total.backward()
        assert all(t.grad is None for t in interior)
        for name, p in model.named_parameters():
            want = ref.params[name].grad
            assert (p.grad is None) == (want is None), name
            assert want is None or np.array_equal(p.grad, want), name

    def test_step_peak_memory_stays_near_the_forward_graph(self):
        # a graph-retaining sweep peaked at 1.88x the forward graph: every
        # interior gradient and closure lived until the step ended
        cfg = preset("desk")
        model = DDTModel(cfg, seed=4)
        opt = Adam(dict(model.named_parameters()))
        batch = make_batch(make_dataset("bandlimited"), cfg, np.random.default_rng(6), 32)
        train_step(model, opt, batch)  # warm-up: lazy tables are built once
        model.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            graph = loss_terms(model, batch, alignment_weight=0.5)
            forward = tracemalloc.get_traced_memory()[0] - base
            del graph
            model.zero_grad()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train_step(model, opt, batch)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * forward, (peak, forward)

    def test_ten_steps_deterministic(self):
        def run():
            cfg = tiny_config()
            model = DDTModel(cfg, seed=8)
            ds = make_dataset("bandlimited", cfg.image_size, cfg.channels,
                              cfg.num_classes)
            train(model, ds, steps=10, batch_size=4, seed=31)
            return {n: p.data.copy() for n, p in model.named_parameters()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_teacher_untouched_by_training(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=8)
        before = {k: v.copy() for k, v in model.teacher.items()}
        ds = make_dataset("bandlimited", cfg.image_size, cfg.channels, cfg.num_classes)
        train(model, ds, steps=20, batch_size=4, seed=5)
        for k in before:
            assert np.array_equal(model.teacher[k], before[k]), k

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_gradient_skips_update(self, monkeypatch):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=8)
        opt = Adam(dict(model.named_parameters()))
        before = {n: p.data.copy() for n, p in model.named_parameters()}

        def poisoned(model_, batch_, w_):
            p = model_.params["enc.embed.w"]
            total = ((p * 1e200) * 1e200).sum() * 0.0 + (p * 1e200).sum() * 1e200
            return Tensor(0.0), Tensor(0.0), total

        monkeypatch.setattr(train_mod, "loss_terms", poisoned)
        batch = tiny_batch(np.random.default_rng(4), cfg)
        report = train_step(model, opt, batch)
        assert report.skipped
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n]), n
        assert opt.step_count == 0

    def test_resume_matches_straight_run(self):
        cfg = tiny_config()
        ds = make_dataset("bandlimited", cfg.image_size, cfg.channels, cfg.num_classes)

        straight = DDTModel(cfg, seed=14)
        train(straight, ds, steps=12, batch_size=4, seed=77)

        resumed = DDTModel(cfg, seed=14)
        _, opt = train(resumed, ds, steps=6, batch_size=4, seed=77)
        train(resumed, ds, steps=12, batch_size=4, seed=77,
              optimizer=opt, start_step=6)
        for n, p in straight.named_parameters():
            assert np.array_equal(p.data, resumed.params[n].data), n


def one_graph_step(model, optimizer, batch, alignment_weight=0.5):
    """The training step before batches were split: one graph for the
    whole batch, then Adam unless a gradient is non-finite."""
    model.zero_grad()
    loss_dec, loss_enc, total = loss_terms(model, batch, alignment_weight)
    total.backward()
    if all(p.grad is None or np.all(np.isfinite(p.grad))
           for _, p in model.named_parameters()):
        optimizer.step()
    return loss_dec.item(), loss_enc.item(), total.item()


def nudged_desk(seed: int) -> DDTModel:
    """A desk model with its zero-initialised gates opened, so every
    parameter gets a gradient."""
    model = DDTModel(preset("desk"), seed=seed)
    rng = np.random.default_rng(seed)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.shape)
    return model


class TestSplitStep:
    @pytest.mark.parametrize("rows", [24, 33])
    def test_halves_match_one_graph(self, rows):
        batch = make_batch(make_dataset("bandlimited"), preset("desk"),
                           np.random.default_rng(21), rows)
        ref = nudged_desk(3)
        ref_losses = one_graph_step(ref, Adam(dict(ref.named_parameters())), batch)
        model = nudged_desk(3)
        report = train_step(model, Adam(dict(model.named_parameters())), batch)
        assert numcore.row_slices(rows) == 2
        assert (model.nfe_encoder, model.nfe_decoder) == (1, 1)
        got = (report.loss_dec, report.loss_enc, report.total)
        for value, want in zip(got, ref_losses):
            assert abs(value - want) <= 1e-12 * abs(want), (value, want)
        squares = 0.0
        for name, p in model.named_parameters():
            want = ref.params[name].grad
            squares += float(np.sum(want * want))
            assert np.linalg.norm(p.grad - want) <= 1e-12 * np.linalg.norm(want), name
        assert abs(report.grad_norm - math.sqrt(squares)) <= 1e-12 * math.sqrt(squares)
        assert not report.skipped

    @pytest.mark.parametrize("rows", [4, 23])
    def test_small_batch_step_is_bit_identical_to_one_graph(self, rows):
        cfg = preset("desk")
        ds = make_dataset("bandlimited")
        ref, model = nudged_desk(5), nudged_desk(5)
        ref_opt = Adam(dict(ref.named_parameters()))
        opt = Adam(dict(model.named_parameters()))
        assert numcore.row_slices(rows) == 1
        for step in range(3):
            batch = make_batch(ds, cfg, step_stream(9, "data", step), rows)
            want = one_graph_step(ref, ref_opt, batch)
            report = train_step(model, opt, batch)
            assert (report.loss_dec, report.loss_enc, report.total) == want
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, ref.params[name].data), name
            assert np.array_equal(p.grad, ref.params[name].grad), name

    def test_a_raising_half_restores_blas_threads(self):
        # a label past the null class fails the encoder's check in one half
        before = numcore.blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS thread control in this process")
        cfg = tiny_config()
        model = DDTModel(cfg, seed=8)
        opt = Adam(dict(model.named_parameters()))
        for bad_row in (0, 16):  # the caller's half, then the worker's
            batch = tiny_batch(np.random.default_rng(4), cfg, n=32)
            batch.y[bad_row] = cfg.num_classes + 1
            with pytest.raises(ValueError, match="class index out of range"):
                train_step(model, opt, batch)
            assert numcore.blas_threads() == before
        assert opt.step_count == 0

    def test_concurrent_trainers_match_a_lone_one(self):
        # more trainers than cores, each splitting its steps, switching
        # often: every model must end as a lone run does, and the BLAS
        # thread count must be restored once all are done
        cfg = tiny_config()
        ds = make_dataset("bandlimited", cfg.image_size, cfg.channels, cfg.num_classes)
        before = numcore.blas_threads()

        def run(out):
            model = DDTModel(cfg, seed=3)
            train(model, ds, steps=4, batch_size=32, seed=7)
            out.append({n: p.data.copy() for n, p in model.named_parameters()})

        lone = []
        run(lone)
        results = [[] for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            trainers = [threading.Thread(target=run, args=(out,)) for out in results]
            for th in trainers:
                th.start()
            for th in trainers:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in trainers)
        for out in results:
            assert len(out) == 1
            for name, want in lone[0].items():
                assert np.array_equal(out[0][name], want), name
        assert numcore.blas_threads() == before

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_grad_norm_does_not_skip_a_finite_step(self, monkeypatch):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=8)
        opt = Adam(dict(model.named_parameters()))

        def huge(model_, batch_, w_):
            # every entry of the gradient is 1e200: finite, its square is not
            p = model_.params["enc.embed.w"]
            return Tensor(0.0), Tensor(0.0), (p * 1e100).sum() * 1e100

        monkeypatch.setattr(train_mod, "loss_terms", huge)
        report = train_step(model, opt, tiny_batch(np.random.default_rng(4), cfg))
        assert np.all(model.params["enc.embed.w"].grad == 1e200)
        assert report.grad_norm == math.inf
        assert not report.skipped
        assert opt.step_count == 1


class TestBatchAssembly:
    def test_label_dropout_rate(self):
        cfg = tiny_config()
        ds = make_dataset("bandlimited", cfg.image_size, cfg.channels, cfg.num_classes)
        rng = np.random.default_rng(0)
        total, dropped = 0, 0
        for _ in range(200):
            b = make_batch(ds, cfg, rng, 32, label_drop=0.1)
            total += b.y.size
            dropped += int(np.sum(b.y == cfg.null_class))
        assert abs(dropped / total - 0.1) < 0.01

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            TrainBatch(x_data=np.zeros((2, 1, 4, 4)), y=np.zeros(2, dtype=int),
                       eps=np.zeros((2, 1, 4, 4)), t=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            TrainBatch(x_data=np.zeros((2, 1, 4, 4)), y=np.zeros(3, dtype=int),
                       eps=np.zeros((2, 1, 4, 4)), t=np.array([0.5, 0.5]))

    def test_same_stream_same_batch(self):
        cfg = tiny_config()
        ds = make_dataset("bandlimited", cfg.image_size, cfg.channels, cfg.num_classes)
        b1 = make_batch(ds, cfg, step_stream(9, "data", 3), 8)
        b2 = make_batch(ds, cfg, step_stream(9, "data", 3), 8)
        assert np.array_equal(b1.x_data, b2.x_data)
        assert np.array_equal(b1.eps, b2.eps)
        assert np.array_equal(b1.t, b2.t)
        assert np.array_equal(b1.y, b2.y)


def loop_bandlimited_sample(ds: BandlimitedDataset, rng: np.random.Generator,
                            n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference sampler, one image at a time: each image's two DCT
    coefficients go into a zero coefficient image, which one three-operand
    einsum takes back to pixels. The oracle for BandlimitedDataset.sample."""
    s = ds.image_size
    basis = dct_matrix(s)
    y = rng.integers(0, ds.num_classes, size=n)
    coeffs = np.zeros((n, s, s))
    scale = ds.amplitude * (1.0 + ds.jitter * rng.standard_normal((n, 2)))
    sign = rng.choice([-1.0, 1.0], size=n)
    for i in range(n):
        (a1, b1), (a2, b2) = ds.class_modes[y[i]]
        coeffs[i, a1, b1] = scale[i, 0] * sign[i]
        coeffs[i, a2, b2] = scale[i, 1] * sign[i]
    imgs = np.einsum("ij,njk,kl->nil", basis.T, coeffs, basis)
    return np.repeat(imgs[:, None, :, :], ds.channels, axis=1), y


class TestDatasets:
    @pytest.mark.parametrize("size", [4, 8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("classes", [1, 4, 7])
    def test_bandlimited_sample_matches_reference_loop_exactly(self, size, channels,
                                                               classes):
        ds = BandlimitedDataset(size, channels, classes)
        for seed in range(3):
            for n in (0, 1, 777):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                x, y = ds.sample(rng, n)
                x_ref, y_ref = loop_bandlimited_sample(ds, ref_rng, n)
                assert x.shape == x_ref.shape == (n, channels, size, size)
                assert x.dtype == x_ref.dtype and y.dtype == y_ref.dtype
                assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
                # make_batch draws eps and t from the same generator next
                assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))

    def test_bandlimited_shapes_and_classes(self):
        ds = BandlimitedDataset(8, 1, 4)
        x, y = ds.sample(np.random.default_rng(0), 64)
        assert x.shape == (64, 1, 8, 8)
        assert set(np.unique(y)) <= set(range(4))

    def test_bandlimited_is_bandlimited(self):
        ds = BandlimitedDataset(8, 1, 4)
        x, _ = ds.sample(np.random.default_rng(1), 32)
        m = dct_matrix(8)
        coef = np.einsum("ij,njk,lk->nil", m, x[:, 0], m)
        radius = np.floor(np.sqrt(np.arange(8)[:, None] ** 2
                                  + np.arange(8)[None, :] ** 2)).astype(int)
        assert np.abs(coef[:, radius > 3]).max() < 1e-10

    def test_spectrum_coefficients_match_monte_carlo(self):
        ds = BandlimitedDataset(8, 1, 4)
        x, _ = ds.sample(np.random.default_rng(2), 40_000)
        m = dct_matrix(8)
        coef = np.einsum("ij,njk,lk->nil", m, x[:, 0], m)
        energy = (coef ** 2).mean(axis=0)
        radius = np.floor(np.sqrt(np.arange(8)[:, None] ** 2
                                  + np.arange(8)[None, :] ** 2)).astype(int)
        mc = np.array([energy[radius == r].mean() for r in range(radius.max() + 1)])
        expected = ds.spectrum_coefficients()
        np.testing.assert_allclose(mc, expected, rtol=0.05, atol=0.05)

    def test_gaussian_and_pointmass(self):
        g = GaussianDataset(8, 1, data_std=2.0)
        x, y = g.sample(np.random.default_rng(3), 10_000)
        assert abs(x.std() - 2.0) < 0.05
        assert np.all(y == 0)
        p = PointMassDataset(4, 1, value=1.5)
        x, _ = p.sample(np.random.default_rng(4), 5)
        assert np.all(x == 1.5)

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            make_dataset("imagenet")


class TestConfigAndMetrics:
    def test_parse_round_trip(self):
        text = """
        # run configuration
        preset = desk
        seed = 3
        steps = 50
        batch = 16
        alignment_weight = 0.25
        dataset = bandlimited
        """
        cfg = parse_train_config(text)
        assert cfg == train_mod.TrainConfig("desk", 3, 50, 16, 0.25, "bandlimited")

    def test_defaults(self):
        cfg = parse_train_config("")
        assert cfg.preset == "desk" and cfg.steps == 500

    def test_unknown_key_names_field(self):
        with pytest.raises(UsageError, match="learning_rate"):
            parse_train_config("learning_rate=0.1")

    def test_bad_value_and_missing_equals(self):
        with pytest.raises(UsageError):
            parse_train_config("steps=abc")
        with pytest.raises(UsageError):
            parse_train_config("just some words")
        with pytest.raises(UsageError):
            parse_train_config("steps=0")

    @pytest.mark.parametrize("line", ["preset=huge", "dataset=nope"])
    def test_unknown_preset_or_dataset_is_usage_error(self, line):
        with pytest.raises(UsageError, match=line.split("=")[0]):
            parse_train_config(line)

    def test_metrics_csv(self, tmp_path):
        hist = [LossReport(1.5, 0.5, 1.75, 0.5), LossReport(1.2, 0.4, 1.4, 0.5)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss_dec,loss_enc,total,grad_norm,step_ms,skipped"
        assert lines[1].startswith("0,1.5,")
        assert len(lines) == 3
        assert not (tmp_path / "metrics.csv.tmp").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_metrics_csv_shows_skipped_steps(self, tmp_path, monkeypatch):
        # step 1's gradient is non-finite; its row must say so
        cfg = tiny_config()
        model = DDTModel(cfg, seed=8)
        ds = make_dataset("bandlimited", cfg.image_size, cfg.channels, cfg.num_classes)
        honest = train_mod.loss_terms
        calls = []

        def poisoned_once(model_, batch_, w_):
            calls.append(None)
            loss_dec, loss_enc, total = honest(model_, batch_, w_)
            if len(calls) == 2:
                total = total + (model_.params["enc.embed.w"] * 1e200).sum() * 1e200
            return loss_dec, loss_enc, total

        monkeypatch.setattr(train_mod, "loss_terms", poisoned_once)
        hist, _ = train(model, ds, steps=3, batch_size=4, seed=5)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, hist)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert [r[-1] for r in rows] == ["0", "1", "0"]


class TestAdam:
    def test_single_step_matches_reference(self):
        g = np.array([0.5, -0.5])
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = g.copy()
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        # first step: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_state_round_trip(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([1.0, 2.0, 3.0])
        opt.step()
        arrays = opt.state_arrays()
        p2 = Tensor(np.ones(3), requires_grad=True)
        opt2 = Adam({"p": p2}, lr=0.01)
        opt2.load_state(arrays)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])
