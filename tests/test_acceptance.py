"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with its measured numbers. Tolerances and runtime
budgets are pinned here and nowhere else."""

import time

import numpy as np
import pytest

from ddtlab.datasets import BandlimitedDataset, GaussianDataset, PointMassDataset, make_dataset
from ddtlab.metrics import mmd_rbf
from ddtlab.model import DDTModel, adaln_modulate, patchify, preset, rms_norm
from ddtlab.numcore import Tensor
from ddtlab.rng import substream
from ddtlab.samplers import (
    GuidanceSpec,
    adams_sample,
    euler_sample,
    make_timegrid,
    model_velocity_field,
    sde_coefficients,
    velocity_to_score,
)
from ddtlab.sharesched import (
    SharingPlan,
    plan_bruteforce,
    plan_dp,
    plan_uniform,
    plan_utility,
    probe_similarity,
    sample_with_sharing,
)
from ddtlab.spectral import SpectrumProfile, empirical_noisy_spectrum, lemma_bound, radial_spectrum, retained_frequency
from ddtlab.train import TrainBatch, interpolate, loss_terms, train


def report(num: int, label: str, passed: bool, details: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {label}: {verdict} ({details})")
    assert passed, f"criterion {num} {label}: {details}"


def random_cosine_matrix(rng: np.random.Generator, n: int, d: int,
                         quantize: bool) -> np.ndarray:
    a = rng.normal(size=(n, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    s = np.clip(a @ a.T, -1.0, 1.0)
    if quantize:
        # snap to sixteenths: segment sums stay exact in float64, so tied
        # plans tie exactly and the tie-break itself gets exercised
        s = np.round(s * 16.0) / 16.0
    np.fill_diagonal(s, 1.0)
    return s


def nudged_desk_model(seed: int = 0, scale: float = 0.05) -> DDTModel:
    model = DDTModel(preset("desk"), seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for name, p in model.named_parameters():
        if "mod." in name or name.endswith("final.proj.w"):
            p.data = p.data + scale * rng.normal(size=p.data.shape)
    return model


# ---------------------------------------------------------------------------
# 1 + 2: planner optimality and dominance
# ---------------------------------------------------------------------------

def test_criterion_01_dp_optimality():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    matrices = 0
    for trial in range(1000):
        n = int(rng.integers(2, 13))
        s = random_cosine_matrix(rng, n, d=int(rng.integers(2, 9)),
                                 quantize=trial % 3 == 0)
        for k in range(1, n + 1):
            dp = plan_dp(s, K=k)
            bf = plan_bruteforce(s, K=k)
            assert dp.utility == bf.utility, (
                f"matrix {trial} N={n} K={k}: {dp.utility} != {bf.utility}")
            assert dp.anchors == bf.anchors, (
                f"matrix {trial} N={n} K={k}: {dp.anchors} != {bf.anchors}")
        matrices += 1
    elapsed = time.time() - t0
    report(1, "DP optimality", matrices == 1000 and elapsed < 60.0,
           f"{matrices} matrices, every K, exact utility and anchor match, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_02_dp_dominates_uniform():
    rng = np.random.default_rng(2024)  # same instance stream as criterion 1
    checked = 0
    worst = np.inf
    for trial in range(1000):
        n = int(rng.integers(2, 13))
        s = random_cosine_matrix(rng, n, d=int(rng.integers(2, 9)),
                                 quantize=trial % 3 == 0)
        for k in range(1, n + 1):
            dp = plan_dp(s, K=k)
            uni = plan_utility(s, plan_uniform(n, k).anchors)
            assert dp.utility >= uni, f"matrix {trial} N={n} K={k}"
            worst = min(worst, dp.utility - uni)
            checked += 1
    report(2, "DP dominates uniform", True,
           f"{checked} (matrix, K) instances, min margin {worst:.3g} >= 0")


# ---------------------------------------------------------------------------
# 3 + 4: solvers and the flow/diffusion correspondence
# ---------------------------------------------------------------------------

def gaussian_field(data_std: float):
    def field(x, t):
        s2 = data_std ** 2
        num = t * s2 - (1.0 - t)
        den = t * t * s2 + (1.0 - t) ** 2
        return (num / den) * x
    return field


def gaussian_solution(x0, t, data_std):
    s2 = data_std ** 2
    return x0 * np.sqrt(t * t * s2 + (1.0 - t) ** 2)


def test_criterion_03_solver_orders():
    t0 = time.time()
    data_std = 2.0
    field = gaussian_field(data_std)
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 8))
    exact = gaussian_solution(x0, 1.0, data_std)

    step_counts = (25, 50, 100, 200)
    errors = {"euler": [], "adams2": []}
    for n in step_counts:
        grid = make_timegrid(n)
        errors["euler"].append(
            np.abs(euler_sample(field, x0, grid) - exact).max())
        errors["adams2"].append(
            np.abs(adams_sample(field, x0, grid, order=2) - exact).max())

    orders = {}
    for name, errs in errors.items():
        ratios = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        orders[name] = float(np.mean(ratios))

    point = PointMassDataset(image_size=8, channels=1, value=1.0)
    x_star = point.x_star

    def point_field(x, t):
        return (x_star - x) / (1.0 - t) if t < 1.0 else x_star - x

    xp = rng.normal(size=(2, 1, 8, 8))
    # the last Euler update lands exactly on x_star, so t=1 is never divided by
    out = euler_sample(point_field, xp, make_timegrid(25))
    point_err = np.abs(out - x_star).max()
    elapsed = time.time() - t0

    ok = (abs(orders["euler"] - 1.0) <= 0.3
          and abs(orders["adams2"] - 2.0) <= 0.8
          and point_err < 1e-10
          and elapsed < 30.0)
    report(3, "solver convergence orders", ok,
           f"euler {orders['euler']:.2f} (1.0±0.3), "
           f"adams2 {orders['adams2']:.2f} (2.0±0.8), "
           f"point-mass err {point_err:.1e} < 1e-10, {elapsed:.1f}s < 30s")


def test_criterion_04_probability_flow_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        x_data = rng.normal(scale=2.0, size=(3,))
        eps = rng.normal(size=(3,))
        t = float(rng.uniform(0.01, 0.99))
        x_t, v = interpolate(x_data, eps, np.array(t))
        f, g2 = sde_coefficients(t)
        score = velocity_to_score(v, x_t, t)
        lhs = f * x_t - 0.5 * g2 * score
        worst = max(worst, float(np.abs(lhs - v).max()))
    report(4, "probability-flow identity", worst < 1e-10,
           f"max |f*x - g2/2*score - v| = {worst:.2e} < 1e-10 over 1000 triples")


# ---------------------------------------------------------------------------
# 5 + 6: gradients and initialization
# ---------------------------------------------------------------------------

def test_criterion_05_gradients_match_finite_differences():
    dataset = BandlimitedDataset(image_size=8, channels=1, num_classes=4)
    worst = 0.0
    checked = 0
    for seed in range(5):
        model = nudged_desk_model(seed=seed)
        rng = np.random.default_rng(seed + 500)
        x, y = dataset.sample(rng, 3)
        eps = rng.normal(size=x.shape)
        t = rng.uniform(0.15, 0.85, size=3)
        batch = TrainBatch(x_data=x, eps=eps, t=t, y=y)

        model.zero_grad()
        _, _, total = loss_terms(model, batch, alignment_weight=0.5)
        total.backward()

        def loss_at() -> float:
            return loss_terms(model, batch, alignment_weight=0.5)[2].item()

        for name, p in model.named_parameters():
            idx = tuple(rng.integers(0, s) for s in p.data.shape)
            orig = p.data[idx]
            h = 1e-5 * max(1.0, abs(orig))
            p.data[idx] = orig + h
            up = loss_at()
            p.data[idx] = orig - h
            down = loss_at()
            p.data[idx] = orig
            fd = (up - down) / (2.0 * h)
            ad = 0.0 if p.grad is None else float(p.grad[idx])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-4)
            worst = max(worst, rel)
            checked += 1
    report(5, "gradient correctness", worst < 1e-4,
           f"max rel err {worst:.2e} < 1e-4 over {checked} coordinates, 5 seeds")


def test_criterion_06_zero_init_identity():
    model = DDTModel(preset("desk"), seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 1, 8, 8))
    t = np.array([0.3, 0.7])
    y = np.array([1, 2])
    v = model.forward(x, t, y).data
    velocity_zero = bool(np.all(v == 0.0))

    # one AdaLN block in isolation: zero-init gates leave h untouched
    h = Tensor(rng.normal(size=(2, 4, 8)))
    cond = Tensor(rng.normal(size=(2, 8)))
    w = Tensor(np.zeros((8, 24)))
    b = Tensor(np.zeros(24))
    out = adaln_modulate(h, cond, w, b, branch=lambda q: q * 3.0 + 1.0)
    block_identity = bool(np.all(out.data == h.data))

    # whole encoder stack at init: z is exactly the normed patch embedding
    z, _ = model.encode(x, t, y)
    tokens = patchify(x, model.config.patch_size)
    embedded = tokens @ model.params["enc.embed.w"].data + model.params["enc.embed.b"].data
    stack_identity = bool(np.all(z.data == rms_norm(Tensor(embedded)).data))

    report(6, "zero-init identity", velocity_zero and block_identity and stack_identity,
           f"fresh velocity all-zero: {velocity_zero}, AdaLN block exact identity: "
           f"{block_identity}, encoder stack exact identity: {stack_identity}")


# ---------------------------------------------------------------------------
# 7: spectra
# ---------------------------------------------------------------------------

def test_criterion_07_spectral_lemma():
    ts = np.round(np.arange(0.1, 0.95, 0.1), 2)

    ds = BandlimitedDataset(image_size=8)
    rng = np.random.default_rng(21)
    clean, _ = ds.sample(rng, 4000)
    profile = SpectrumProfile(ds.spectrum_coefficients())
    worst_rel = 0.0
    for t in ts:
        analytic = SpectrumProfile(profile.data_coefficients, t=t).coefficients
        measured = empirical_noisy_spectrum(clean, t, rng)
        rel = np.abs(measured - analytic) / analytic  # noise floor keeps it > 0
        worst_rel = max(worst_rel, float(rel.max()))
    spectra_ok = worst_rel < 0.05

    unit = GaussianDataset(image_size=8, channels=1, data_std=1.0)
    white, _ = unit.sample(rng, 4000)
    c_hat = radial_spectrum(white)
    retained_ok = True
    margins = []
    for t in ts:
        measured = retained_frequency(SpectrumProfile(c_hat, t=t))
        bound = lemma_bound(t, SpectrumProfile(c_hat, t=t).k_freq)
        margins.append(measured - bound)
        if measured < bound - 1.0:
            retained_ok = False
    report(7, "spectral lemma", spectra_ok and retained_ok,
           f"max per-bin rel err {worst_rel:.3f} < 0.05 over t in {{0.1..0.9}}; "
           f"retained-frequency margin min {min(margins):.2f} >= -1 bin")


# ---------------------------------------------------------------------------
# 8: encoder sharing
# ---------------------------------------------------------------------------

def test_criterion_08_sharing_consistency():
    model = nudged_desk_model(seed=5)
    grid = make_timegrid(8)
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(2, 1, 8, 8))
    y = np.array([0, 3])

    full = euler_sample(model_velocity_field(model, y), x0, grid)
    full_budget = sample_with_sharing(
        model, x0, grid, SharingPlan(N=8, anchors=tuple(range(8))), y)
    k_equals_n_ok = np.array_equal(full, full_budget)

    const = DDTModel(preset("desk"), seed=7)
    w = const.params["enc.embed.w"]
    w.data = np.zeros_like(w.data)
    b = const.params["enc.embed.b"]
    b.data = np.full_like(b.data, 0.5)
    rng2 = np.random.default_rng(8)
    for name, p in const.named_parameters():
        if name.startswith("dec.") and "mod." in name:
            p.data = p.data + 0.05 * rng2.normal(size=p.data.shape)
    fp = const.params["final.proj.w"]
    fp.data = fp.data + 0.05 * rng2.normal(size=fp.data.shape)

    const_full = euler_sample(model_velocity_field(const, y), x0, grid)
    const_ok = not np.array_equal(const_full, x0)
    for k in (1, 2, 4, 8):
        shared = sample_with_sharing(const, x0, grid, plan_uniform(8, k), y)
        const_ok = const_ok and np.array_equal(const_full, shared)

    model.reset_counters()
    sample_with_sharing(model, x0, grid, plan_uniform(8, 4), y)
    nfe_ok = model.nfe_encoder == 4 and model.nfe_decoder == 8

    report(8, "sharing consistency", k_equals_n_ok and const_ok and nfe_ok,
           f"K=N bit-exact: {k_equals_n_ok}, constant-encoder bit-exact for "
           f"K in {{1,2,4,8}}: {const_ok}, ratio-0.5 NFE enc/dec = "
           f"{model.nfe_encoder}/{model.nfe_decoder} (want 4/8)")


# ---------------------------------------------------------------------------
# 9 + 10: desk-scale training run (shared fixture)
# ---------------------------------------------------------------------------

TRAIN_STEPS = 2000
TRAIN_BATCH = 32
TRAIN_LR = 1e-3


@pytest.fixture(scope="module")
def trained_desk():
    model = DDTModel(preset("desk"), seed=0)
    dataset = make_dataset("bandlimited", image_size=8, channels=1, num_classes=4)
    t0 = time.time()
    history, _ = train(model, dataset, steps=TRAIN_STEPS, batch_size=TRAIN_BATCH,
                       seed=0, lr=TRAIN_LR)
    wall = time.time() - t0
    return model, dataset, history, wall


def test_criterion_09_training_progress(trained_desk):
    model, dataset, history, wall = trained_desk
    first = float(np.mean([r.loss_dec for r in history[:100]]))
    last = float(np.mean([r.loss_dec for r in history[-100:]]))
    drop = 1.0 - last / first

    num = 64
    x0 = substream(0, "noise").standard_normal((num, 1, 8, 8))
    y = substream(0, "labels").integers(0, 4, size=num)
    guide = GuidanceSpec(w=1.5, interval=(0.3, 1.0))
    gen = euler_sample(model_velocity_field(model, y, guidance=guide),
                       x0, make_timegrid(50))
    held, _ = dataset.sample(substream(0, "eval"), num)
    noise = substream(0, "noise-baseline").standard_normal(held.shape)
    mmd_gen = mmd_rbf(gen, held)
    mmd_noise = mmd_rbf(noise, held)

    ok = drop >= 0.30 and mmd_gen < 0.5 * mmd_noise and wall < 600.0
    report(9, "training progress", ok,
           f"loss_dec {first:.3f} -> {last:.3f} (drop {drop:.0%} >= 30%), "
           f"MMD gen {mmd_gen:.3f} < 0.5 * noise {mmd_noise:.3f}, "
           f"train {wall:.0f}s < 600s")


def test_criterion_10_similarity_structure(trained_desk):
    model, _, _, _ = trained_desk
    n = 20
    grid = make_timegrid(n)
    x0 = substream(1, "probe").standard_normal((8, 1, 8, 8))
    y = substream(1, "probe-labels").integers(0, 4, size=8)
    sim = probe_similarity(model, x0, grid, y).S

    adjacent = np.mean([sim[i, i + 1] for i in range(n - 1)])
    far_pairs = [sim[i, j] for i in range(n) for j in range(n)
                 if abs(i - j) >= n // 2]
    far = float(np.mean(far_pairs))
    report(10, "similarity structure", adjacent > far,
           f"mean adjacent {adjacent:.4f} > mean far-pair {far:.4f} "
           f"({len(far_pairs)} pairs with |i-j| >= {n // 2})")


# ---------------------------------------------------------------------------
# 11: neutral settings
# ---------------------------------------------------------------------------

def test_criterion_11_neutral_guidance_and_shift():
    model = nudged_desk_model(seed=9)
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(2, 1, 8, 8))
    y = np.array([1, 2])
    grid_plain = make_timegrid(12)
    grid_shift1 = make_timegrid(12, shift=1.0)
    grid_ok = np.array_equal(grid_plain.nodes, grid_shift1.nodes)

    base = euler_sample(model_velocity_field(model, y), x0, grid_plain)
    w1 = euler_sample(
        model_velocity_field(model, y, guidance=GuidanceSpec(w=1.0, interval=(0.3, 1.0))),
        x0, grid_plain)
    shift1 = euler_sample(model_velocity_field(model, y), x0, grid_shift1)

    w_ok = np.array_equal(base, w1)
    s_ok = np.array_equal(base, shift1)
    report(11, "guidance and timeshift neutrality", grid_ok and w_ok and s_ok,
           f"shift=1 grid bit-equal: {grid_ok}, w=1 samples bit-equal: {w_ok}, "
           f"shift=1 samples bit-equal: {s_ok}")
