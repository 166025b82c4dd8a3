"""Planner tests: the DP is verified against a brute-force oracle with
exact float equality (same utility fold, same tie-break), and the sharing
executor is verified bit-exact against full sampling in the two cases
where sharing provably changes nothing."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddtlab.errors import FormatError, NumericalError
from ddtlab.model import DDTModel, ModelConfig
from ddtlab.samplers import (
    GuidanceSpec,
    adams_sample,
    euler_sample,
    make_timegrid,
    model_velocity_field,
)
from ddtlab.sharesched import (
    SharingPlan,
    SimilarityMatrix,
    plan_bruteforce,
    plan_dp,
    plan_uniform,
    plan_utility,
    probe_similarity,
    read_plan,
    read_similarity,
    sample_with_sharing,
    segment_utility,
    sharing_nfe,
    similarity_checksum,
    utility_table,
    write_plan,
    write_similarity,
)

WORKED = np.array([
    [1.0, 0.9, 0.2, 0.1],
    [0.9, 1.0, 0.8, 0.3],
    [0.2, 0.8, 1.0, 0.9],
    [0.1, 0.3, 0.9, 1.0],
])


def random_cosine_matrix(rng: np.random.Generator, n: int, d: int = 6) -> np.ndarray:
    """Genuine cosine-similarity matrix: unit diagonal, symmetric, in [-1,1]."""
    a = rng.normal(size=(n, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    s = np.clip(a @ a.T, -1.0, 1.0)
    np.fill_diagonal(s, 1.0)
    return s


def tiny_config() -> ModelConfig:
    return ModelConfig(encoder_layers=2, decoder_layers=1, hidden_dim=8,
                       heads=2, patch_size=2, image_size=4, channels=1,
                       num_classes=3, alignment_layer=1, teacher_dim=6)


def nudged_model(seed: int = 0) -> DDTModel:
    """Fresh model with the zero-init gates opened so z and v both move."""
    model = DDTModel(tiny_config(), seed=seed)
    rng = np.random.default_rng(seed + 77)
    for name, p in model.named_parameters():
        if "mod." in name or name.endswith("final.proj.w"):
            p.data = p.data + 0.05 * rng.normal(size=p.data.shape)
    return model


# ---------------------------------------------------------------------------
# plan and matrix validation
# ---------------------------------------------------------------------------

def test_similarity_matrix_validation():
    SimilarityMatrix(WORKED)
    with pytest.raises(ValueError, match="square"):
        SimilarityMatrix(np.ones((2, 3)))
    bad = WORKED.copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError, match="symmetric"):
        SimilarityMatrix(bad)
    bad = WORKED.copy()
    bad[2, 2] = 0.99
    with pytest.raises(ValueError, match="diagonal"):
        SimilarityMatrix(bad)
    bad = WORKED.copy()
    bad[0, 3] = bad[3, 0] = 1.5
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        SimilarityMatrix(bad)
    bad = WORKED.copy()
    bad[0, 3] = bad[3, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SimilarityMatrix(bad)


def test_plan_validation_and_assignment():
    plan = SharingPlan(N=6, anchors=(0, 2, 5))
    assert plan.K == 3
    assert plan.sharing_ratio == 0.5
    assert [plan.assignment(i) for i in range(6)] == [0, 0, 2, 2, 2, 5]
    with pytest.raises(ValueError, match="step 0"):
        SharingPlan(N=6, anchors=(1, 3))
    with pytest.raises(ValueError, match="sorted"):
        SharingPlan(N=6, anchors=(0, 3, 2))
    with pytest.raises(ValueError, match="out of range"):
        SharingPlan(N=6, anchors=(0, 6))
    with pytest.raises(ValueError, match="out of range"):
        plan.assignment(6)


def test_segment_utility_matches_definition():
    assert segment_utility(WORKED, 0, 0) == 1.0
    assert segment_utility(WORKED, 1, 3) == pytest.approx(1.0 + 0.8 + 0.3)
    with pytest.raises(ValueError, match="exceeds"):
        segment_utility(WORKED, 2, 1)


def test_utility_table_entries():
    # the random rows are long enough that a pairwise sum would round
    # differently from the running sum in the last bits
    for s in (WORKED, random_cosine_matrix(np.random.default_rng(40), 40)):
        w = utility_table(s)
        n = s.shape[0]
        for j in range(n):
            for i in range(j, n):
                assert w[j, i] == segment_utility(s, j, i)
        assert np.all(np.tril(w, -1) == 0.0)


# ---------------------------------------------------------------------------
# planners on the worked example
# ---------------------------------------------------------------------------

def test_worked_example_dp():
    plan = plan_dp(WORKED, K=2)
    assert plan.anchors == (0, 2)
    assert plan.utility == pytest.approx(3.8)
    # the other two candidates are strictly worse
    assert plan_utility(WORKED, (0, 1)) == pytest.approx(3.1)
    assert plan_utility(WORKED, (0, 3)) == pytest.approx(3.1)


def test_worked_example_bruteforce_agrees():
    dp = plan_dp(WORKED, K=2)
    bf = plan_bruteforce(WORKED, K=2)
    assert bf.anchors == dp.anchors
    assert bf.utility == dp.utility  # exact float equality


def test_all_ones_ties_break_to_smallest_anchors():
    s = np.ones((6, 6))
    for k in range(1, 7):
        plan = plan_dp(s, K=k)
        assert plan.anchors == tuple(range(k))
        assert plan.anchors == plan_bruteforce(s, K=k).anchors


def test_budget_extremes():
    plan1 = plan_dp(WORKED, K=1)
    assert plan1.anchors == (0,)
    assert plan1.utility == plan_utility(WORKED, (0,))
    plan4 = plan_dp(WORKED, K=4)
    assert plan4.anchors == (0, 1, 2, 3)
    assert plan4.utility == pytest.approx(4.0)


def test_bruteforce_guard():
    s = np.eye(25)
    with pytest.raises(ValueError, match="N <= 20"):
        plan_bruteforce(s, K=3)
    with pytest.raises(ValueError, match="budget"):
        plan_dp(WORKED, K=5)
    with pytest.raises(ValueError, match="budget"):
        plan_dp(WORKED, K=0)


# ---------------------------------------------------------------------------
# uniform plans
# ---------------------------------------------------------------------------

def test_uniform_examples():
    assert plan_uniform(6, 3).anchors == (0, 2, 4)
    assert plan_uniform(8, 4).anchors == (0, 2, 4, 6)
    assert plan_uniform(50, 13).anchors[0] == 0
    assert plan_uniform(5, 5).anchors == (0, 1, 2, 3, 4)


def test_uniform_anchors_are_the_rounded_points_unpadded():
    for n in range(1, 201):
        for k in range(1, n + 1):
            assert plan_uniform(n, k).anchors == tuple(round(i * n / k) for i in range(k)), (n, k)


@given(st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))))
def test_uniform_invariants(nk):
    n, k = nk
    plan = plan_uniform(n, k)
    assert plan.K == k
    assert plan.anchors[0] == 0
    assert all(0 <= a < n for a in plan.anchors)
    assert list(plan.anchors) == sorted(set(plan.anchors))


# ---------------------------------------------------------------------------
# property tests against the oracle
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_dp_matches_bruteforce_exactly(n, seed):
    rng = np.random.default_rng(seed)
    s = random_cosine_matrix(rng, n)
    for k in range(1, n + 1):
        dp = plan_dp(s, K=k)
        bf = plan_bruteforce(s, K=k)
        assert dp.utility == bf.utility
        assert dp.anchors == bf.anchors


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=2**31))
def test_dp_dominates_uniform(n, seed):
    rng = np.random.default_rng(seed)
    s = random_cosine_matrix(rng, n)
    for k in range(1, n + 1):
        dp = plan_dp(s, K=k)
        uni = plan_uniform(n, k)
        assert dp.utility >= plan_utility(s, uni.anchors)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_best_utility_monotone_in_budget(n, seed):
    # splitting a segment at its last step gains 1 - S[anchor][step] >= 0,
    # so a larger budget can never lose utility
    rng = np.random.default_rng(seed)
    s = random_cosine_matrix(rng, n)
    utilities = [plan_dp(s, K=k).utility for k in range(1, n + 1)]
    assert all(b >= a - 1e-12 for a, b in zip(utilities, utilities[1:]))


def loop_dp(w: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference DP, one first anchor i at a time: the oracle for plan_dp
    beyond brute force's N <= 20."""
    n = w.shape[0]
    best = np.full((K, n), -np.inf)
    path = np.full((K, n), -1, dtype=np.int64)
    best[0, :] = w[:, n - 1]
    for k in range(2, K + 1):
        for i in range(n - k + 1):
            js = np.arange(i + 1, n - k + 2)
            vals = w[i, js - 1] + best[k - 2, js]
            pick = int(np.argmax(vals))
            best[k - 1, i] = vals[pick]
            path[k - 1, i] = int(js[pick])
    return best, path


@pytest.mark.parametrize("n", [30, 120, 250])
def test_dp_matches_reference_loop_exactly(n):
    s = random_cosine_matrix(np.random.default_rng(n), n)
    w = utility_table(s)
    # every budget at the smallest n, so the loop's best utility from
    # start 0 is checked at every level
    budgets = range(1, n + 1) if n == 30 else sorted({1, 2, n // 8, n // 4, n // 2, n - 1, n})
    for k in budgets:
        plan = plan_dp(s, K=k)
        best, path = loop_dp(w, k)
        anchors = [0]
        for level in range(k, 1, -1):
            anchors.append(int(path[level - 1, anchors[-1]]))
        assert plan.anchors == tuple(anchors)
        assert plan.utility == best[k - 1, 0]


def test_planners_validate_a_matrix_at_most_once(monkeypatch):
    validations = []
    check = SimilarityMatrix.__post_init__
    monkeypatch.setattr(SimilarityMatrix, "__post_init__",
                        lambda self: validations.append(check(self)))
    sim = SimilarityMatrix(WORKED)
    for plan in (lambda S: plan_dp(S, 2), lambda S: plan_bruteforce(S, 2),
                 lambda S: plan_utility(S, (0, 2))):
        validations.clear()
        plan(sim)
        assert len(validations) == 0
        plan(WORKED)
        assert len(validations) == 1


def test_plan_utility_is_the_dp_fold():
    rng = np.random.default_rng(4)
    s = random_cosine_matrix(rng, 9)
    plan = plan_dp(s, K=4)
    assert plan_utility(s, plan.anchors) == plan.utility


# ---------------------------------------------------------------------------
# probing
# ---------------------------------------------------------------------------

def test_probe_similarity_is_valid_matrix():
    model = nudged_model()
    grid = make_timegrid(5)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 1, 4, 4))
    sim = probe_similarity(model, x0, grid, y=np.array([0, 1, 2]))
    assert sim.N == 5
    assert np.all(np.diag(sim.S) == 1.0)
    assert np.abs(sim.S - sim.S.T).max() == 0.0
    assert sim.S.min() >= -1.0 and sim.S.max() <= 1.0


def test_probe_constant_encoder_gives_all_ones():
    # zero patch weights + constant bias + closed gates: z never changes,
    # so every pair of steps is perfectly similar
    model = DDTModel(tiny_config(), seed=3)
    enc_embed_w = model.params["enc.embed.w"]
    enc_embed_w.data = np.zeros_like(enc_embed_w.data)
    enc_embed_b = model.params["enc.embed.b"]
    enc_embed_b.data = np.full_like(enc_embed_b.data, 0.5)
    grid = make_timegrid(6)
    x0 = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
    sim = probe_similarity(model, x0, grid, y=np.array([0, 1]))
    assert np.allclose(sim.S, 1.0, atol=1e-9)
    plan = plan_dp(sim, K=3)
    assert plan.anchors == (0, 1, 2)


def test_probe_nfe_off_the_closed_form_raises():
    # a probe is a sampling request, so it gets the same NFE check; the
    # check reads how far the counters rose, so earlier runs do not count
    model = nudged_model()
    x0 = np.random.default_rng(13).normal(size=(2, 1, 4, 4))
    model.nfe_encoder, model.nfe_decoder = 7, 9
    probe_similarity(model, x0, make_timegrid(4), y=[0, 1])
    honest = model.encode

    def counted_twice(*args, **kwargs):
        model.nfe_encoder += 1
        return honest(*args, **kwargs)

    model.encode = counted_twice
    with pytest.raises(NumericalError, match=r"\(8, 4\) != closed form \(4, 4\)"):
        probe_similarity(model, x0, make_timegrid(4), y=[0, 1])


def test_probe_rejects_empty_batch():
    model = nudged_model()
    with pytest.raises(ValueError, match="non-empty"):
        probe_similarity(model, np.ones((0, 1, 4, 4)), make_timegrid(4), y=[0])


# ---------------------------------------------------------------------------
# shared sampling
# ---------------------------------------------------------------------------

def test_sharing_full_budget_is_bit_exact():
    model = nudged_model()
    grid = make_timegrid(6, shift=2.0)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(2, 1, 4, 4))
    y = np.array([0, 2])

    full = euler_sample(model_velocity_field(model, y), x0, grid)
    plan = SharingPlan(N=6, anchors=tuple(range(6)))
    shared = sample_with_sharing(model, x0, grid, plan, y)
    assert np.array_equal(full, shared)
    # no plan: every step is an anchor
    assert np.array_equal(full, sample_with_sharing(model, x0, grid, None, y))


def test_sharing_full_budget_guided_bit_exact():
    model = nudged_model(seed=2)
    grid = make_timegrid(5)
    x0 = np.random.default_rng(6).normal(size=(2, 1, 4, 4))
    y = np.array([1, 1])
    spec = GuidanceSpec(w=2.0, interval=(0.2, 0.9))

    full = euler_sample(model_velocity_field(model, y, guidance=spec), x0, grid)
    plan = SharingPlan(N=5, anchors=tuple(range(5)))
    shared = sample_with_sharing(model, x0, grid, plan, y, guidance=spec)
    assert np.array_equal(full, shared)


def test_sharing_constant_encoder_exact_for_any_budget():
    # when z is step-independent, reuse is lossless: every budget must
    # reproduce the full-encoding trajectory bit for bit
    model = DDTModel(tiny_config(), seed=3)
    for name in ("enc.embed.w",):
        p = model.params[name]
        p.data = np.zeros_like(p.data)
    p = model.params["enc.embed.b"]
    p.data = np.full_like(p.data, 0.5)
    rng = np.random.default_rng(8)
    for name, q in model.named_parameters():
        if name.startswith("dec.") and ("mod." in name or "embed" in name):
            q.data = q.data + 0.05 * rng.normal(size=q.data.shape)
    fp = model.params["final.proj.w"]
    fp.data = fp.data + 0.05 * rng.normal(size=fp.data.shape)

    grid = make_timegrid(8)
    x0 = np.random.default_rng(9).normal(size=(2, 1, 4, 4))
    y = np.array([0, 1])
    full = euler_sample(model_velocity_field(model, y), x0, grid)
    assert not np.array_equal(full, x0)  # the decoder actually moved it
    for k in (1, 2, 4, 8):
        plan = plan_uniform(8, k)
        shared = sample_with_sharing(model, x0, grid, plan, y)
        assert np.array_equal(full, shared), f"budget {k} diverged"


def test_sharing_nfe_counts():
    model = nudged_model()
    grid = make_timegrid(8)
    x0 = np.random.default_rng(10).normal(size=(1, 1, 4, 4))
    plan = plan_uniform(8, 4)  # sharing ratio 0.5

    model.reset_counters()
    sample_with_sharing(model, x0, grid, plan, y=[1])
    assert model.nfe_encoder == 4
    assert model.nfe_decoder == 8

    model.reset_counters()
    spec = GuidanceSpec(w=3.0, interval=(0.0, 1.0))
    sample_with_sharing(model, x0, grid, plan, y=[1], guidance=spec)
    assert model.nfe_encoder == 8
    assert model.nfe_decoder == 16

    # w == 1 is no guidance: one branch, and the unguided samples bit for bit
    model.reset_counters()
    neutral = sample_with_sharing(model, x0, grid, plan, y=[1],
                                  guidance=GuidanceSpec(w=1.0, interval=(0.0, 1.0)))
    assert (model.nfe_encoder, model.nfe_decoder) == (4, 8)
    assert np.array_equal(neutral, sample_with_sharing(model, x0, grid, plan, y=[1]))


@pytest.mark.parametrize("solver", ["euler", "adams2"])
@pytest.mark.parametrize("strategy", ["uniform", "dp"])
@pytest.mark.parametrize("guidance", [None, GuidanceSpec(w=2.0, interval=(0.2, 0.9))])
def test_sharing_encodes_at_the_anchors(solver, strategy, guidance):
    # two rows make one row slice, which runs on the model itself, so the
    # wrappers on the instance see every encode and decode
    model = nudged_model()
    grid = make_timegrid(8, shift=2.0)
    x0 = np.random.default_rng(13).normal(size=(2, 1, 4, 4))
    if strategy == "uniform":
        plan = plan_uniform(8, 3)
    else:
        plan = plan_dp(random_cosine_matrix(np.random.default_rng(14), 8), 3)
    encoded: list[tuple[float, object]] = []  # (t, z), z kept alive for id()
    decoded: list[tuple[float, int]] = []  # (t, id of the z it decodes)
    encode, decode = model.encode, model.decode

    def recording_encode(x, t, y):
        out = encode(x, t, y)
        encoded.append((float(t), out[0]))
        return out

    def recording_decode(x, t, z):
        decoded.append((float(t), id(z)))
        return decode(x, t, z)

    model.encode, model.decode = recording_encode, recording_decode
    sample_with_sharing(model, x0, grid, plan, [0, 2], guidance, solver)

    branches = 1 if guidance is None else 2
    anchor_times = grid.nodes[list(plan.anchors)]
    assert [t for t, _ in encoded] == list(np.repeat(anchor_times, branches))
    # every step decodes the z of the anchor that serves it, once per branch
    encoded_at = {id(z): t for t, z in encoded}
    served = [(grid.nodes[i], grid.nodes[plan.assignment(i)])
              for i in range(grid.steps) for _ in range(branches)]
    assert [(t, encoded_at[z]) for t, z in decoded] == served


@pytest.mark.parametrize("steps, plan, guidance, counts", [
    (8, None, None, (8, 8)),
    (8, plan_uniform(8, 4), None, (4, 8)),
    (8, plan_uniform(8, 4), GuidanceSpec(w=3.0), (8, 16)),
    (8, plan_uniform(8, 4), GuidanceSpec(w=1.0), (4, 8)),
    (5, None, GuidanceSpec(w=0.0), (10, 10)),  # w = 0 still runs both branches
    (50, plan_uniform(50, 13), GuidanceSpec(w=1.5, interval=(0.3, 1.0)), (26, 100)),
])
def test_sharing_nfe_closed_form(steps, plan, guidance, counts):
    assert sharing_nfe(steps, plan, guidance) == counts


def test_sharing_nfe_mismatch_raises():
    # an encoder that counts each call twice breaks the closed form
    model = nudged_model()
    honest = model.encode

    def counted_twice(*args, **kwargs):
        model.nfe_encoder += 1
        return honest(*args, **kwargs)

    model.encode = counted_twice
    x0 = np.random.default_rng(12).normal(size=(1, 1, 4, 4))
    with pytest.raises(NumericalError, match=r"\(6, 6\) != closed form \(3, 6\)"):
        sample_with_sharing(model, x0, make_timegrid(6), plan_uniform(6, 3), y=[0])


def test_sharing_with_adams_solver_runs():
    model = nudged_model()
    grid = make_timegrid(6)
    x0 = np.random.default_rng(11).normal(size=(1, 1, 4, 4))
    out = sample_with_sharing(model, x0, grid, plan_uniform(6, 3), y=[0],
                              solver="adams2")
    assert out.shape == x0.shape
    full = adams_sample(model_velocity_field(model, [0]), x0, grid, order=2)
    assert np.array_equal(sample_with_sharing(model, x0, grid, None, [0], solver="adams2"),
                          full)
    with pytest.raises(ValueError, match="unknown solver"):
        sample_with_sharing(model, x0, grid, plan_uniform(6, 3), y=[0],
                            solver="heun")


def test_sharing_plan_grid_mismatch():
    model = nudged_model()
    x0 = np.zeros((1, 1, 4, 4))
    with pytest.raises(ValueError, match="plan covers"):
        sample_with_sharing(model, x0, make_timegrid(5), plan_uniform(6, 3), y=[0])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_similarity_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    s = random_cosine_matrix(rng, 7)
    # signed zeros and subnormals must come back with the same bytes
    s[1, 2] = s[2, 1] = -0.0
    s[3, 4] = s[4, 3] = 5e-324
    s[5, 6] = s[6, 5] = -2.2250738585072e-308
    path = tmp_path / "sim.txt"
    write_similarity(path, s)
    back = read_similarity(path)
    assert back.S.tobytes() == s.tobytes()
    assert similarity_checksum(back) == similarity_checksum(s)


def write_npy(path, body: bytes, descr="<f8", fortran_order=False, shape=(2, 2)):
    """A .npy file whose header claims `descr`, `fortran_order` and `shape`,
    whatever `body` holds."""
    header = {"descr": descr, "fortran_order": fortran_order, "shape": shape}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(body)


EYE2 = np.eye(2).tobytes()


@pytest.mark.parametrize("header, body, match", [
    pytest.param({"shape": (4,)}, EYE2, "must be 2-D", id="1-d"),
    pytest.param({"shape": (2, 2, 1)}, EYE2, "must be 2-D", id="3-d"),
    pytest.param({"shape": ()}, EYE2[:8], "must be 2-D", id="0-d"),
    pytest.param({"shape": (1, 4)}, EYE2, "must be square", id="not-square"),
    pytest.param({"shape": (0, 0)}, b"", "must be square", id="empty"),
    pytest.param({"descr": "<f4"}, np.eye(2, dtype="<f4").tobytes(), "'<f4'", id="float32"),
    pytest.param({"descr": ">f8"}, np.eye(2).astype(">f8").tobytes(), "'>f8'",
                 id="big-endian"),
    pytest.param({"fortran_order": True}, EYE2, "fortran_order=True", id="fortran"),
    pytest.param({}, EYE2[:-8], "needs 32 bytes, file has 24", id="one-short"),
    pytest.param({}, EYE2 + EYE2[:8], "needs 32 bytes, file has 40", id="one-long"),
    pytest.param({}, b"", "needs 32 bytes, file has 0", id="no-body"),
    # 2**64 elements, a count that wraps to 0 in int64
    pytest.param({"shape": (2**32, 2**32)}, EYE2, "needs 147573952589676412928 bytes",
                 id="huge-claim"),
])
def test_similarity_header_must_match_body(tmp_path, header, body, match):
    path = tmp_path / "sim.npy"
    write_npy(path, body, **header)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=re.escape(match)):
            read_similarity(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"read allocated {peak} bytes"


def test_similarity_file_errors(tmp_path):
    path = tmp_path / "sim.npy"
    path.write_text("ddtlab-similarity v1\nN=2\n1 0\n0 1\n")  # the old text format
    with pytest.raises(FormatError, match="not a .npy similarity file"):
        read_similarity(path)
    write_similarity(path, WORKED)
    good = path.read_bytes()
    for cut in (3, 9, 20):  # inside the magic, the header length, the header
        path.write_bytes(good[:cut])
        with pytest.raises(FormatError):
            read_similarity(path)
    path.write_bytes(good.replace(b"'descr'", b"'dtype'"))
    with pytest.raises(FormatError, match="bad .npy header"):
        read_similarity(path)
    write_npy(path, np.array([[1, 0.5], [0.2, 1]]).tobytes())
    with pytest.raises(FormatError, match="symmetric"):
        read_similarity(path)
    write_npy(path, np.array([[1, np.nan], [np.nan, 1]]).tobytes())
    with pytest.raises(FormatError, match="finite"):
        read_similarity(path)


def test_similarity_file_is_npy_at_its_path(tmp_path):
    # written to exactly the path given, even one ending in .txt, and
    # readable by np.load; a matrix saved by np.save reads back too
    path = tmp_path / "sim.txt"
    write_similarity(path, WORKED)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.txt"]
    assert np.load(path).tobytes() == WORKED.tobytes()
    with open(path, "wb") as fh:
        np.save(fh, WORKED)
    assert read_similarity(path).S.tobytes() == WORKED.tobytes()
    # a transposed (Fortran-contiguous) matrix is still written in C order
    write_similarity(path, WORKED.T)
    assert read_similarity(path).S.tobytes() == WORKED.tobytes()


def test_plan_roundtrip(tmp_path):
    plan = plan_dp(WORKED, K=2)
    path = tmp_path / "plan.txt"
    write_plan(path, plan, checksum=similarity_checksum(WORKED))
    back, checksum = read_plan(path)
    assert back.anchors == plan.anchors
    assert back.N == plan.N
    assert back.utility == plan.utility
    assert back.strategy == "dp"
    assert checksum == similarity_checksum(WORKED)


def test_plan_file_errors(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("nonsense\n")
    with pytest.raises(FormatError, match="not a plan file"):
        read_plan(path)
    plan = plan_uniform(6, 3)
    write_plan(path, plan)
    text = path.read_text().replace("K=3", "K=4")
    path.write_text(text)
    with pytest.raises(FormatError, match="K=4"):
        read_plan(path)
    path.write_text("ddtlab-plan v1\nN=6\nK=2\n")
    with pytest.raises(FormatError, match="missing fields"):
        read_plan(path)
    write_plan(path, plan_dp(WORKED, K=2))
    good = path.read_text()
    for field in ("utility", "sharing_ratio"):
        path.write_text(re.sub(f"^{field}=.*$", f"{field}=abc", good, flags=re.M))
        with pytest.raises(FormatError, match=f"bad value for {field}"):
            read_plan(path)


@pytest.mark.parametrize("field, value, match", [
    ("sharing_ratio", "nan", "sharing_ratio inconsistent"),
    ("utility", "nan", "utility must be finite"),
    ("utility", "inf", "utility must be finite"),
    ("utility", "-inf", "utility must be finite"),
    ("strategy", "greedy", "unknown plan strategy"),
])
def test_plan_file_rejects_corrupt_header_value(tmp_path, field, value, match):
    path = tmp_path / "plan.txt"
    write_plan(path, plan_dp(WORKED, K=2))
    good = path.read_text()
    path.write_text(re.sub(f"^{field}=.*$", f"{field}={value}", good, flags=re.M))
    with pytest.raises(FormatError, match=match):
        read_plan(path)


def test_plan_file_rejects_repeated_field(tmp_path):
    path = tmp_path / "plan.txt"
    plan = plan_dp(WORKED, K=2)
    write_plan(path, plan)
    # a second, equally valid anchor set must not silently win
    other = 1 if plan.anchors[1] != 1 else 2
    path.write_text(path.read_text() + f"anchors=0,{other}\n")
    with pytest.raises(FormatError, match="repeats field 'anchors'"):
        read_plan(path)


PLAN_KEYS = ["N", "K", "sharing_ratio", "strategy", "similarity_checksum", "utility",
             "anchors"]


@pytest.mark.parametrize("key", PLAN_KEYS)
def test_plan_file_rejects_flipped_key(tmp_path, key):
    # utimity=0.75 once read back as a plan without a utility
    path = tmp_path / "plan.txt"
    write_plan(path, plan_dp(WORKED, K=2))
    good = path.read_bytes()
    start = good.index(b"\n" + key.encode() + b"=") + 1
    for at in range(start, start + len(key)):
        path.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
        with pytest.raises(FormatError, match="unknown field"):
            read_plan(path)


def test_plan_file_rejects_unknown_field(tmp_path):
    path = tmp_path / "plan.txt"
    write_plan(path, plan_dp(WORKED, K=2))
    path.write_text(path.read_text() + "x=1\n")
    with pytest.raises(FormatError, match="line 9: unknown field 'x'"):
        read_plan(path)


def test_plan_file_ignores_spaces_around_equals(tmp_path):
    path = tmp_path / "plan.txt"
    plan = plan_dp(WORKED, K=2)
    write_plan(path, plan, checksum="ab12")
    path.write_text(path.read_text().replace("=", " = "))
    assert read_plan(path) == (plan, "ab12")


@pytest.mark.parametrize("marker", [b"ddtlab", b"strategy=", b"anchors="])
def test_plan_file_not_utf8(tmp_path, marker):
    path = tmp_path / "plan.txt"
    write_plan(path, plan_dp(WORKED, K=2))
    good = path.read_bytes()
    at = good.index(marker)
    path.write_bytes(good[:at] + b"\xff" + good[at + 1:])
    with pytest.raises(FormatError, match="UTF-8"):
        read_plan(path)
