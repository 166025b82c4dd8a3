"""Sampler contracts, checked against closed-form ODE solutions.

Analytic oracles:
  point mass at x*   : v(x,t) = (x*-x)/(1-t); trajectories are straight
                       lines, so Euler integrates them exactly.
  Gaussian N(0,s^2)  : v(x,t) = [(t s^2 - (1-t)) / (t^2 s^2 + (1-t)^2)] x,
                       solved by x(t) = x(0) * sqrt(t^2 s^2 + (1-t)^2);
                       used to measure empirical convergence order.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddtlab import parallel, samplers, sharesched
from ddtlab.errors import NumericalError
from ddtlab.model import DDTModel, ModelConfig
from ddtlab.samplers import (
    GuidanceSpec,
    TimeGrid,
    TrajectoryRecorder,
    adams_sample,
    decompose_velocity,
    euler_sample,
    lagrange_coefficients,
    make_timegrid,
    model_velocity_field,
    sde_coefficients,
    velocity_to_score,
)
from ddtlab.train import interpolate


def gaussian_field(data_std: float):
    s2 = data_std * data_std

    def field(x, t):
        denom = t * t * s2 + (1.0 - t) ** 2
        return ((t * s2 - (1.0 - t)) / denom) * x

    return field


def gaussian_solution(x0, t, data_std):
    s2 = data_std * data_std
    return x0 * np.sqrt(t * t * s2 + (1.0 - t) ** 2)


def pointmass_field(x_star):
    return lambda x, t: (x_star - x) / (1.0 - t)


class TestTimeGrid:
    def test_shift_one_is_uniform_bitexact(self):
        for n in (1, 7, 50):
            grid = make_timegrid(n, shift=1.0)
            assert np.array_equal(grid.nodes, np.arange(n + 1) / n)

    def test_shift_two_midpoint(self):
        grid = make_timegrid(2, shift=2.0)
        assert grid.nodes[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=1.0, max_value=50.0))
    def test_endpoints_and_monotonicity(self, n, s):
        grid = make_timegrid(n, s)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
        assert np.all(np.diff(grid.nodes) > 0.0)
        assert grid.steps == n

    def test_shift_concentrates_near_noise(self):
        uniform = make_timegrid(10, 1.0)
        shifted = make_timegrid(10, 3.0)
        # interior nodes move toward t=0 when s > 1
        assert np.all(shifted.nodes[1:-1] < uniform.nodes[1:-1])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_timegrid(0, 1.0)
        with pytest.raises(ValueError):
            make_timegrid(10, 0.5)
        # refused up front, without a RuntimeWarning from the shift formula
        for shift in (float("nan"), float("inf")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="shift must be a finite number >= 1"):
                    make_timegrid(3, shift)
        with pytest.raises(ValueError):
            TimeGrid(nodes=np.array([0.0, 0.5, 0.4, 1.0]))


class TestEuler:
    def test_constant_field_exact_dyadic(self):
        # dyadic step widths and a few-bit constant: no rounding anywhere
        grid = make_timegrid(8, 1.0)
        x1 = euler_sample(lambda x, t: np.full_like(x, 0.75), np.zeros(3), grid)
        assert np.array_equal(x1, np.full(3, 0.75))

    def test_constant_field_any_grid(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        grid = make_timegrid(7, 3.0)
        x1 = euler_sample(lambda x, t: c, x0, grid)
        np.testing.assert_allclose(x1, x0 + c, rtol=1e-12, atol=1e-14)

    def test_pointmass_field_exact(self):
        x_star = np.array([2.0, -1.0, 0.5])
        x0 = np.array([0.1, 0.2, 0.3])
        for shift in (1.0, 2.0):
            grid = make_timegrid(13, shift)
            x1 = euler_sample(pointmass_field(x_star), x0, grid)
            np.testing.assert_allclose(x1, x_star, rtol=1e-12, atol=1e-12)

    def test_pointmass_trajectory_matches_line(self):
        x_star = np.array([1.0])
        x0 = np.array([-0.5])
        grid = make_timegrid(10, 1.0)
        rec = TrajectoryRecorder()
        euler_sample(rec.watch(pointmass_field(x_star)), x0, grid)
        for step, t, nx, _ in rec.rows:
            expected = x_star + (x0 - x_star) * (1.0 - t)
            assert abs(nx - abs(expected[0])) < 1e-10

    def test_first_order_convergence(self):
        x0 = np.array([1.0, -2.0, 0.7])
        field = gaussian_field(1.5)
        exact = gaussian_solution(x0, 1.0, 1.5)
        errs = []
        for n in (20, 40, 80):
            x1 = euler_sample(field, x0, make_timegrid(n, 1.0))
            errs.append(np.linalg.norm(x1 - exact))
        for e_n, e_2n in zip(errs, errs[1:]):
            assert e_n / e_2n == pytest.approx(2.0, abs=0.3)

    def test_nan_abort_names_step(self):
        def field(x, t):
            return np.full_like(x, np.nan) if t > 0.25 else np.zeros_like(x)

        with pytest.raises(NumericalError, match="step 3"):
            euler_sample(field, np.zeros(2), make_timegrid(10, 1.0))


class TestLagrangeCoefficients:
    def test_order_one_is_step_width(self):
        coefs = lagrange_coefficients([0.4], (0.4, 0.55))
        assert coefs.shape == (1,)
        assert coefs[0] == pytest.approx(0.15, abs=1e-15)

    def test_order_two_uniform_classical(self):
        h = 0.1
        coefs = lagrange_coefficients([0.0, h], (h, 2 * h))
        np.testing.assert_allclose(coefs, [-h / 2.0, 3.0 * h / 2.0], rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(), st.integers(min_value=1, max_value=3))
    def test_sum_equals_width(self, seed, k):
        rng = np.random.default_rng(abs(seed) % 2**32)
        ts = np.sort(rng.uniform(0.0, 0.9, size=k))
        while np.unique(ts).size != k:
            ts = np.sort(rng.uniform(0.0, 0.9, size=k))
        a = float(ts[-1])
        b = a + float(rng.uniform(0.01, 0.1))
        coefs = lagrange_coefficients(ts, (a, b))
        assert coefs.sum() == pytest.approx(b - a, rel=1e-10, abs=1e-14)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            lagrange_coefficients([0.1, 0.1], (0.1, 0.2))


class TestAdams:
    def test_order_one_is_euler_bitexact(self):
        x0 = np.random.default_rng(1).standard_normal(5)
        field = gaussian_field(1.5)
        grid = make_timegrid(17, 2.5)
        assert np.array_equal(adams_sample(field, x0, grid, order=1),
                              euler_sample(field, x0, grid))

    def test_degree_one_field_exact_after_warmup(self):
        # v = t: AB2 integrates linear polynomials exactly
        grid = make_timegrid(10, 1.0)
        nodes = grid.nodes
        xs = [np.zeros(1)]

        def field(x, t):
            return np.full_like(x, t)

        rec = TrajectoryRecorder()
        adams_sample(rec.watch(field), xs[0], grid, order=2)
        # reconstruct increments by replaying
        x = np.zeros(1)
        hist = []
        for i in range(grid.steps):
            v = np.full_like(x, nodes[i])
            hist.append((nodes[i], v))
            hist = hist[-2:]
            if len(hist) == 1:
                new = x + (nodes[i + 1] - nodes[i]) * v
            else:
                ts = [h[0] for h in hist]
                cs = lagrange_coefficients(ts, (nodes[i], nodes[i + 1]))
                new = x + cs[0] * hist[0][1] + cs[1] * hist[1][1]
            if i >= 1:
                exact_inc = (nodes[i + 1] ** 2 - nodes[i] ** 2) / 2.0
                assert new[0] - x[0] == pytest.approx(exact_inc, abs=1e-14)
            x = new

    def test_second_order_convergence(self):
        x0 = np.array([1.0, -2.0, 0.7])
        field = gaussian_field(1.5)
        exact = gaussian_solution(x0, 1.0, 1.5)
        errs = []
        for n in (20, 40, 80):
            x1 = adams_sample(field, x0, make_timegrid(n, 1.0), order=2)
            errs.append(np.linalg.norm(x1 - exact))
        for e_n, e_2n in zip(errs, errs[1:]):
            assert e_n / e_2n == pytest.approx(4.0, abs=0.8)

    def test_third_order_steady_state_integrates_quadratics(self):
        # once three history points exist, AB3 steps are exact on v = t^2
        grid = make_timegrid(10, 1.0)
        nodes = grid.nodes
        for i in range(2, grid.steps):
            ts = nodes[i - 2: i + 1]
            cs = lagrange_coefficients(ts, (nodes[i], nodes[i + 1]))
            approx = float(np.dot(cs, ts ** 2))
            exact = (nodes[i + 1] ** 3 - nodes[i] ** 3) / 3.0
            assert approx == pytest.approx(exact, abs=1e-13)

    def test_third_order_converges(self):
        # the order-1/order-2 warm-up steps carry O(h^2) error, so the
        # global rate stays near 2; the solver must still converge cleanly
        x0 = np.array([1.0, -2.0, 0.7])
        field = gaussian_field(1.5)
        exact = gaussian_solution(x0, 1.0, 1.5)
        errs = [np.linalg.norm(adams_sample(field, x0, make_timegrid(n, 1.0), order=3)
                               - exact) for n in (20, 40, 80)]
        assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            adams_sample(gaussian_field(1.0), np.zeros(2), make_timegrid(5, 1.0), order=4)


class TestGuidance:
    def test_branches(self):
        # unit weight runs the conditional branch alone; its samples are
        # pinned bit for bit by criterion 11 and test_sharing_nfe_counts
        assert GuidanceSpec(w=1.0, interval=(0.3, 1.0)).branches == 1
        for w in (0.0, 1.5, 3.0):
            assert GuidanceSpec(w=w).branches == 2

    def test_outside_interval_is_conditional(self):
        spec = GuidanceSpec(w=2.0, interval=(0.3, 1.0))
        v_c, v_u = np.array([1.0]), np.array([5.0])
        assert np.array_equal(spec.velocity(v_c, v_u, 0.1), v_c)

    def test_inside_interval_extrapolates(self):
        spec = GuidanceSpec(w=2.0, interval=(0.3, 1.0))
        out = spec.velocity(np.array([1.0]), np.array([0.0]), 0.5)
        assert out[0] == 2.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GuidanceSpec(w=-0.5)
        with pytest.raises(ValueError):
            GuidanceSpec(w=2.0, interval=(0.8, 0.3))
        with pytest.raises(ValueError):
            GuidanceSpec(w=2.0, interval=(-0.1, 0.5))
        for w in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                GuidanceSpec(w=w)


class TestScheduleAndScore:
    def test_sde_coefficients_midpoint(self):
        f, g2 = sde_coefficients(0.5)
        assert f == 2.0 and g2 == -2.0

    def test_g2_vanishes_at_data_end(self):
        _, g2 = sde_coefficients(1.0 - 1e-9)
        assert abs(g2) < 3e-9

    def test_rejects_endpoints(self):
        for t in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                sde_coefficients(t)
        with pytest.raises(ValueError):
            velocity_to_score(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            decompose_velocity(np.zeros(2), np.zeros(2), 1.0)

    def test_score_cancellation(self):
        score = velocity_to_score(np.array(2.0), np.array(1.0), 0.5)
        assert score == 0.0

    def test_algebraic_inverse(self):
        rng = np.random.default_rng(5)
        x_data = rng.standard_normal((2, 3))
        eps = rng.standard_normal((2, 3))
        # dyadic t keeps every product exact for these small values
        t = 0.5
        x_t, v = interpolate(x_data, eps, t)
        x_hat, eps_hat = decompose_velocity(v, x_t, t)
        np.testing.assert_allclose(eps_hat, eps, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(x_hat, x_data, rtol=1e-12, atol=1e-14)

    def test_probability_flow_identity(self):
        rng = np.random.default_rng(9)
        for t in np.arange(0.1, 0.95, 0.1):
            x_data = rng.standard_normal(8)
            eps = rng.standard_normal(8)
            x_t, v = interpolate(x_data, eps, t)
            f, g2 = sde_coefficients(t)
            score = velocity_to_score(v, x_t, t)
            lhs = f * x_t - 0.5 * g2 * score
            np.testing.assert_allclose(lhs, v, atol=1e-10)


class TestModelField:
    def _model(self):
        cfg = ModelConfig(encoder_layers=2, decoder_layers=1, hidden_dim=8, heads=2,
                          patch_size=2, image_size=4, channels=1, num_classes=3,
                          alignment_layer=1, teacher_dim=6)
        model = DDTModel(cfg, seed=2)
        nudge = np.random.default_rng(3)
        for _, p in model.named_parameters():
            p.data += 0.05 * nudge.standard_normal(p.shape)
        return model

    def test_unguided_nfe(self):
        model = self._model()
        field = model_velocity_field(model, y=[1, 2])
        x0 = np.random.default_rng(4).standard_normal((2, 1, 4, 4))
        out = euler_sample(field, x0, make_timegrid(6, 1.0))
        assert out.shape == x0.shape and np.all(np.isfinite(out))
        assert (model.nfe_encoder, model.nfe_decoder) == (6, 6)

    def test_guided_nfe_doubles(self):
        model = self._model()
        spec = GuidanceSpec(w=2.0, interval=(0.3, 1.0))
        field = model_velocity_field(model, y=[0, 1], guidance=spec)
        x0 = np.random.default_rng(4).standard_normal((2, 1, 4, 4))
        euler_sample(field, x0, make_timegrid(5, 1.0))
        assert (model.nfe_encoder, model.nfe_decoder) == (10, 10)

    def test_shift_one_neutrality_through_model(self):
        model = self._model()
        x0 = np.random.default_rng(6).standard_normal((1, 1, 4, 4))
        field = model_velocity_field(model, y=[1])
        a = euler_sample(field, x0, make_timegrid(4, 1.0))
        b = euler_sample(field, x0, TimeGrid(nodes=np.arange(5) / 4))
        assert np.array_equal(a, b)


class TestSlicedField:
    """A solve over a model field is one sampling request: its batch is
    cut into parallel.row_slices(B) row slices (two from 24 rows), and
    each slice runs the whole solve on a field of its own, all slices in
    one parallel region."""

    _model = TestModelField._model

    @pytest.mark.parametrize("guided", [False, True])
    @pytest.mark.parametrize("labels", ["per-row", "one"])
    def test_request_equals_its_halves_solved_alone(self, guided, labels):
        model = self._model()
        rows = 33
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((rows, 1, 4, 4))
        y = rng.integers(0, 3, rows) if labels == "per-row" else np.array([2])
        y_rows = np.broadcast_to(y, (rows,))
        spec = GuidanceSpec(w=1.5) if guided else None
        grid = make_timegrid(6, 1.0)
        assert parallel.row_slices(rows) == 2
        for plan in (None, sharesched.plan_uniform(6, 3)):
            zs = []
            x = sharesched.sample_with_sharing(model, x0, grid, plan, y, spec,
                                               on_encode=zs.append)
            halves = []
            for lo, hi in ((0, rows // 2), (rows // 2, rows)):
                assert parallel.row_slices(hi - lo) == 1
                half_z = []
                half_x = sharesched.sample_with_sharing(model, x0[lo:hi], grid, plan,
                                                        y_rows[lo:hi], spec,
                                                        on_encode=half_z.append)
                halves.append((half_x, half_z))
            assert np.array_equal(x, np.concatenate([h[0] for h in halves]))
            assert len(zs) == (grid.steps if plan is None else plan.K)
            for k, z in enumerate(zs):
                assert np.array_equal(z, np.concatenate([h[1][k] for h in halves]))

    @pytest.mark.parametrize("guided", [False, True])
    def test_reused_field_matches_fresh_fields(self, guided):
        model = self._model()
        grid = make_timegrid(6, 1.0)
        anchors = {float(grid.nodes[i]) for i in (0, 3, 4)}
        spec = GuidanceSpec(w=1.5) if guided else None
        rng = np.random.default_rng(9)
        x_big, x_small = rng.standard_normal((32, 1, 4, 4)), rng.standard_normal((8, 1, 4, 4))
        reused = model_velocity_field(model, [1], spec, anchor_times=anchors)
        for x0 in (x_big, x_small):
            reused.anchor_z = []
            fresh = model_velocity_field(model, [1], spec, anchor_times=anchors)
            fresh.anchor_z = []
            assert np.array_equal(euler_sample(reused, x0, grid),
                                  euler_sample(fresh, x0, grid))
            assert len(reused.anchor_z) == len(fresh.anchor_z) == 3
            for got, want in zip(reused.anchor_z, fresh.anchor_z):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("guided", [False, True])
    def test_one_parallel_region_per_request(self, guided, monkeypatch):
        regions = []
        honest = samplers.parallel_calls

        def counted(calls):
            regions.append(len(calls))
            return honest(calls)

        monkeypatch.setattr(samplers, "parallel_calls", counted)
        model = self._model()
        spec = GuidanceSpec(w=1.5) if guided else None
        x0 = np.random.default_rng(10).standard_normal((32, 1, 4, 4))
        grid = make_timegrid(5, 1.0)
        requests = [
            lambda: euler_sample(model_velocity_field(model, [0], spec), x0, grid),
            lambda: adams_sample(model_velocity_field(model, [0], spec), x0, grid, order=2),
            lambda: sharesched.sample_with_sharing(model, x0, grid, None, [0], spec),
            lambda: sharesched.sample_with_sharing(model, x0, grid, sharesched.plan_uniform(5, 2),
                                                   [0], spec, solver="adams3"),
        ]
        for request in requests:
            regions.clear()
            request()
            assert regions == [2]
        threads = parallel.blas_threads()
        if threads is not None and threads > 1:  # the later slice runs in the worker
            x0 = np.random.default_rng(11).standard_normal((64, 1, 4, 4))
            before = parallel.worker_regions()
            for k in (1, 2):
                euler_sample(model_velocity_field(model, [0], spec), x0, grid)
                assert parallel.worker_regions() == before + k

    def test_a_slice_is_never_cut_again(self):
        # row_slices(24) is 2, so a slice cut again would make 12-row calls
        model = self._model()
        assert parallel.row_slices(24) == 2
        rows_seen = []
        for name in ("encode", "decode"):
            def seen(x, *args, honest=getattr(model, name)):
                rows_seen.append(len(x))
                return honest(x, *args)

            setattr(model, name, seen)  # on this model alone: copies leave it
        x0 = np.random.default_rng(12).standard_normal((48, 1, 4, 4))
        sharesched.sample_with_sharing(model, x0, make_timegrid(3, 1.0), None, [1],
                                       GuidanceSpec(w=1.5))
        assert rows_seen == [24] * 12  # 3 steps of 2 encodes and 2 decodes


class TestRecorder:
    @pytest.mark.parametrize("solver", ["euler", "adams2"])
    @pytest.mark.parametrize("shift", [1.0, 2.0], ids=["uniform", "shifted"])
    def test_watch_rows_follow_the_grid(self, shift, solver):
        grid = make_timegrid(6, shift)
        x0 = np.random.default_rng(14).normal(size=(2, 1, 4, 4))
        field = gaussian_field(0.7)

        def solve(f):
            return euler_sample(f, x0, grid) if solver == "euler" else adams_sample(f, x0, grid, 2)

        rec = TrajectoryRecorder()
        x = solve(rec.watch(field))
        assert [row[0] for row in rec.rows] == list(range(grid.steps))
        assert [row[1] for row in rec.rows] == grid.nodes[:-1].tolist()
        assert rec.rows[0][2] == np.linalg.norm(x0)
        assert np.array_equal(x, solve(field))

    def test_csv_rows(self, tmp_path):
        rec = TrajectoryRecorder()
        grid = make_timegrid(4, 1.0)
        euler_sample(rec.watch(lambda x, t: -x), np.ones(3), grid)
        csv_path = tmp_path / "traj.csv"
        rec.write_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,t,norm_x,norm_v"
        assert len(lines) == 5

    def test_watch_keeps_a_non_finite_row_before_the_solve_raises(self):
        def field(x, t):
            return np.full_like(x, np.nan) if t > 0.25 else np.zeros_like(x)

        rec = TrajectoryRecorder()
        with pytest.raises(NumericalError, match="step 3"):
            euler_sample(rec.watch(field), np.zeros(2), make_timegrid(10, 1.0))
        assert [row[0] for row in rec.rows] == [0, 1, 2, 3]
        assert np.isnan(rec.rows[-1][3])
