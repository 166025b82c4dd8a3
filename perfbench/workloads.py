"""The benchmark's three workloads and the checkpoint they share.

Each workload is a closed loop: one process, one client, and the next
operation starts only when the previous one has finished. Operations come
in fixed cycles, and a run is a whole number of cycles, so every run of a
workload measures the same mix. All inputs derive from the seed; a
cycle repeats the same inputs, which costs the same as new ones because
ddtlab keeps no state between calls.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

from ddtlab import metrics, samplers, sharesched, spectral
from ddtlab import model as model_mod
from ddtlab import train as train_mod
from ddtlab.cli import _budget_from_ratio as budget
from ddtlab.datasets import make_dataset
from ddtlab.errors import FormatError, NumericalError
from ddtlab.numcore import topological_order
from ddtlab.rng import step_stream, substream

clock = time.perf_counter

# the training recipe shared by the train workload and the checkpoint
BATCH = 32
LR = 1e-3
ALIGNMENT_WEIGHT = 0.5
LABEL_DROP = 0.1

# desk checkpoint for sample and plan: an untrained AdaLN-Zero model gives
# a degenerate similarity matrix and a meaningless MMD
CHECKPOINT_STEPS = 2000
CHECKPOINT_SEED = 0

# errors ddtlab raises for a failed operation; anything else is a bug in
# the benchmark and ends the run
OP_ERRORS = (NumericalError, FormatError, ValueError)


def checkpoint_path(root) -> str:
    """Cache path keyed by the package source and the recipe, so a changed
    program never reuses a checkpoint trained by another."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "ddtlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    recipe = (CHECKPOINT_STEPS, CHECKPOINT_SEED, BATCH, LR, ALIGNMENT_WEIGHT, LABEL_DROP)
    h.update(repr(recipe).encode())
    return os.path.join(root, ".bench_build", f"desk-{h.hexdigest()[:16]}.ckpt")


def ensure_checkpoint(root) -> tuple[str, float]:
    """Train the desk checkpoint once per checkout; returns its path and
    the seconds spent building it (0 when it was already there)."""
    path = checkpoint_path(root)
    if os.path.exists(path):
        return path, 0.0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = clock()
    model = model_mod.DDTModel(model_mod.preset("desk"), seed=CHECKPOINT_SEED)
    dataset = make_dataset("bandlimited")
    train_mod.train(model, dataset, steps=CHECKPOINT_STEPS, batch_size=BATCH,
                    seed=CHECKPOINT_SEED, alignment_weight=ALIGNMENT_WEIGHT,
                    lr=LR, label_drop=LABEL_DROP)
    tmp = f"{path}.{os.getpid()}.tmp"
    model_mod.save_checkpoint(tmp, model.config, model.state_arrays())
    os.replace(tmp, path)
    return path, clock() - t0


def load_model(path):
    config, arrays = model_mod.load_checkpoint(path)
    return model_mod.DDTModel.from_arrays(config, arrays)


def graph_nodes(model, dataset, seed: int) -> int:
    """Autodiff nodes in one training step's loss graph."""
    rng = step_stream(seed, "data", 0)
    batch = train_mod.make_batch(dataset, model.config, rng, BATCH, LABEL_DROP)
    _, _, total = train_mod.loss_terms(model, batch, ALIGNMENT_WEIGHT)
    return len(topological_order(total))


def _image_shape(model, n: int) -> tuple[int, int, int, int]:
    c = model.config
    return (n, c.channels, c.image_size, c.image_size)


class Workload:
    """A cycle of operations over state made in `setup`.

    `run_cycle` appends one duration in seconds per operation and records
    each operation and its checks in the ledger. `tracer.op` is kept at
    the id of the running operation so spans can be attributed.
    """
    name = ""
    cycle = 1          # operations per cycle
    cycle_seconds = 1.0  # one cycle on the reference machine (see NOTES.md)
    min_cycles = 1
    skipped = 0        # training steps skipped for non-finite gradients

    def __init__(self, seed: int, checkpoint: str, scratch: str):
        self.seed = seed
        self.checkpoint = checkpoint
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def run_cycle(self, durations, ledger, tracer=None) -> None:
        for _ in range(self.cycle):
            op = ledger.begin()
            if tracer is not None:
                tracer.op = op
            t0 = clock()
            try:
                self.request(op, ledger)
            except OP_ERRORS as exc:
                ledger.check(op, "raised", False, f"{type(exc).__name__}: {exc}")
            durations.append(clock() - t0)
            if tracer is not None:
                tracer.op = None

    def request(self, op: int, ledger) -> None:
        raise NotImplementedError

    def finish(self, ledger) -> None:
        """Checks over the whole run, charged to its last operation."""

    def kind(self, op: int) -> str:
        """Name of the request type of operation `op` in the cycle."""
        return self.name

    def items(self) -> int:
        """Work items per operation, for the throughput figure."""
        return 1

    def quality(self) -> float:
        """Quality against the workload's trivial baseline; lower is better."""
        raise NotImplementedError

    def details(self) -> dict:
        """Figures behind the metrics, for the detail line."""
        return {}


def cycles_for(workload: Workload, seconds: float) -> int:
    """Cycles in a run of about `seconds` on the reference machine.

    The count depends on `seconds` alone, so two commits compared at the
    same setting do the same work, and the mix, and with it which
    operation the tail percentile lands on, stays fixed.
    """
    return max(workload.min_cycles, round(seconds / workload.cycle_seconds))


def measure(workload: Workload, cycles: int, ledger, tracer=None) -> list[float]:
    durations: list[float] = []
    for _ in range(cycles):
        workload.run_cycle(durations, ledger, tracer)
    workload.finish(ledger)
    return durations


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """Desk-preset training steps on bandlimited data through
    ddtlab.train.train, each step timed by its progress callback."""
    name = "train"
    cycle = 10          # steps per train() call
    cycle_seconds = 1.6
    min_cycles = 4      # the loss windows at the start and end must not overlap
    LOSS_WINDOW = 20

    def setup(self) -> None:
        self.model = model_mod.DDTModel(model_mod.preset("desk"), seed=self.seed)
        self.dataset = make_dataset("bandlimited")
        self.optimizer = train_mod.Adam(dict(self.model.named_parameters()), lr=LR)
        self.losses: list[float] = []
        self.skipped = 0
        # step 0 is the warm-up, so lazy allocations are not timed
        self.next_step = 0
        self._train(1)

    def _train(self, stop: int, progress=None) -> None:
        train_mod.train(self.model, self.dataset, steps=stop, batch_size=BATCH,
                        seed=self.seed, alignment_weight=ALIGNMENT_WEIGHT, lr=LR,
                        optimizer=self.optimizer, start_step=self.next_step,
                        label_drop=LABEL_DROP, progress=progress)
        self.next_step = stop

    def run_cycle(self, durations, ledger, tracer=None) -> None:
        last = [0.0]

        def progress(step, report):
            now = clock()
            durations.append(now - last[0])
            last[0] = now
            op = ledger.begin()
            losses = (report.total, report.loss_dec, report.loss_enc)
            ledger.check(op, "loss_finite", all(math.isfinite(v) for v in losses),
                         f"step {step}: {losses}")
            ledger.check(op, "not_skipped", not report.skipped, f"step {step}")
            self.skipped += bool(report.skipped)
            self.losses.append(report.total)
            if tracer is not None:
                tracer.op = op + 1

        stop = self.next_step + self.cycle
        if tracer is not None:
            tracer.op = ledger.attempted
        last[0] = clock()
        try:
            self._train(stop, progress)
        except OP_ERRORS as exc:
            # the step that raised is lost; resume after it
            durations.append(clock() - last[0])
            op = ledger.begin()
            ledger.check(op, "raised", False, f"{type(exc).__name__}: {exc}")
            self.losses.append(math.nan)
            self.next_step = stop
        if tracer is not None:
            tracer.op = None

    def _window(self) -> tuple[float, float]:
        """Mean loss of the first and of the last measured steps; both are
        deterministic for a seed and a run length."""
        w = self.LOSS_WINDOW
        return float(np.mean(self.losses[:w])), float(np.mean(self.losses[-w:]))

    def finish(self, ledger) -> None:
        first, last = self._window()
        ledger.check(ledger.attempted - 1, "loss_decreases", last < first,
                     f"tail {last:.6g} vs start {first:.6g}")

    def items(self) -> int:
        return BATCH

    def quality(self) -> float:
        first, last = self._window()
        return last / first

    def details(self) -> dict:
        first, last = self._window()
        return {"train_loss_start": first, "train_loss_tail": last}


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

SAMPLE_NUM = 64
# held-out images per evaluation: against 64 of them the class mix of the
# draw, not the samples, can decide whether the MMD beats the noise baseline
HELD_OUT = 1024
SAMPLE_STEPS = 50
SHARE_RATIO = 0.75
PROBE_SIZE = 8
CFG = samplers.GuidanceSpec(w=1.5, interval=(0.3, 1.0))
# (name, solver, shift, guidance, plan); plan None samples in full
SAMPLE_MODES = (
    ("euler", "euler", 1.0, None, None),
    ("cfg", "euler", 1.0, CFG, None),
    ("uniform", "euler", 1.0, None, "uniform"),
    ("dp", "euler", 1.0, None, "dp"),
    ("adams2", "adams2", 2.0, None, None),
)


class SampleWorkload(Workload):
    """Requests of 64 images x 50 steps over a fixed mix of five modes,
    each evaluated against held-out data as `ddtlab sample` does."""
    name = "sample"
    cycle = len(SAMPLE_MODES)
    cycle_seconds = 22.0

    def setup(self) -> None:
        self.model = load_model(self.checkpoint)
        self.dataset = make_dataset("bandlimited")
        num_classes = self.model.config.num_classes
        grid = samplers.make_timegrid(SAMPLE_STEPS)
        px = substream(self.seed, "probe").standard_normal(_image_shape(self.model, PROBE_SIZE))
        py = substream(self.seed, "probe-labels").integers(0, num_classes, size=PROBE_SIZE)
        sim = sharesched.probe_similarity(self.model, px, grid, py)
        k = budget(SAMPLE_STEPS, SHARE_RATIO)
        self.plans = {"uniform": sharesched.plan_uniform(SAMPLE_STEPS, k),
                      "dp": sharesched.plan_dp(sim, k)}
        self.x0 = substream(self.seed, "noise").standard_normal(
            _image_shape(self.model, SAMPLE_NUM))
        # every class equally often, for the same reason as HELD_OUT
        self.y = substream(self.seed, "labels").permutation(np.arange(SAMPLE_NUM) % num_classes)
        self.mmd: dict[str, float] = {}
        self.mmd_noise: dict[str, float] = {}

    def request(self, op: int, ledger) -> None:
        mode, solver, shift, guidance, plan_name = SAMPLE_MODES[op % self.cycle]
        model, branches = self.model, 1 if guidance is None else 2
        grid = samplers.make_timegrid(SAMPLE_STEPS, shift=shift)
        model.reset_counters()
        if plan_name is None:
            field = samplers.model_velocity_field(model, self.y, guidance=guidance)
            if solver == "euler":
                x = samplers.euler_sample(field, self.x0, grid)
            else:
                x = samplers.adams_sample(field, self.x0, grid,
                                          order=samplers.SOLVER_ORDERS[solver])
            k = SAMPLE_STEPS
        else:
            plan = self.plans[plan_name]
            x = sharesched.sample_with_sharing(model, self.x0, grid, plan, self.y,
                                               guidance=guidance, solver=solver)
            k = plan.K
        ledger.check(op, "samples_finite", bool(np.all(np.isfinite(x))), mode)
        ledger.check(op, "nfe_encoder", model.nfe_encoder == k * branches,
                     f"{mode}: {model.nfe_encoder} != {k}*{branches}")
        ledger.check(op, "nfe_decoder", model.nfe_decoder == SAMPLE_STEPS * branches,
                     f"{mode}: {model.nfe_decoder} != {SAMPLE_STEPS}*{branches}")

        held, _ = self.dataset.sample(substream(self.seed, "eval"), HELD_OUT)
        noise = substream(self.seed, "noise-baseline").standard_normal(x.shape)
        mmd = metrics.mmd_rbf(x, held)
        mmd_noise = metrics.mmd_rbf(noise, held)
        dist = metrics.spectral_distance(x, held)
        ledger.check(op, "mmd_below_noise", mmd < mmd_noise,
                     f"{mode}: mmd {mmd:.6g} vs noise {mmd_noise:.6g}")
        ledger.check(op, "spectral_distance_finite", math.isfinite(dist), mode)
        self.mmd[mode] = mmd
        self.mmd_noise[mode] = mmd_noise

    def kind(self, op: int) -> str:
        return SAMPLE_MODES[op % self.cycle][0]

    def items(self) -> int:
        return SAMPLE_NUM

    def quality(self) -> float:
        """Mean MMD of the five modes over that of full Euler sampling on
        the same inputs and held-out data. The pairing cancels most of the
        seed-to-seed spread of a 64-sample MMD, so a faster mode that
        gives worse samples shows. A change that worsens every mode alike
        shows in `sample_mmd`, and in the mmd_below_noise check once it
        reaches the noise baseline."""
        if "euler" not in self.mmd:
            return math.nan
        return float(np.mean([m / self.mmd["euler"] for m in self.mmd.values()]))

    def details(self) -> dict:
        return {"sample_mmd": float(np.mean(list(self.mmd.values()))),
                "sample_mmd_by_mode": self.mmd,
                "sample_mmd_noise_baseline": float(np.mean(list(self.mmd_noise.values())))}


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

PLAN_PROBE_STEPS = (20, 50)
BRUTEFORCE_STEPS = 20   # one of PLAN_PROBE_STEPS, and within plan_bruteforce's N <= 20
REPLAN_STEPS = 250
REPLAN_RATIOS = (0.5, 0.75, 0.875)
DIAGNOSE_T = (0.1, 0.3, 0.5, 0.7, 0.9)
DIAGNOSE_TRIALS = 2000
# Monte-Carlo spectra over DIAGNOSE_TRIALS images sit within a few
# percent of the closed form; this only catches a wrong spectrum
SPECTRUM_RTOL = 0.25


def _similarity_ok(s: np.ndarray) -> bool:
    return (np.abs(s - s.T).max() <= 1e-12 and np.all(np.diag(s) == 1.0)
            and s.min() >= -1.0 and s.max() <= 1.0)


class PlanWorkload(Workload):
    """A cycle of five requests of four types: (a) probe and plan, on a
    20- and on a 50-step grid; (b) replan from a similarity file at three
    budgets; (c) a plan checked by brute force; (d) diagnose spectra.

    Each grid of (a) is its own request, so the median lands in the
    middle of the 20-step probes, the request type whose time varied
    least from run to run; the replans' Python loops varied most."""
    name = "plan"
    REQUESTS = tuple([("probe", n) for n in PLAN_PROBE_STEPS]
                     + [("replan", None), ("bruteforce", BRUTEFORCE_STEPS),
                        ("diagnose", None)])
    cycle = len(REQUESTS)
    cycle_seconds = 2.7

    def setup(self) -> None:
        self.model = load_model(self.checkpoint)
        self.dataset = make_dataset("bandlimited")
        num_classes = self.model.config.num_classes
        # the similarity file that (b) replans from, probed with a single
        # trajectory to keep set-up short
        x1 = substream(self.seed, "probe-replan").standard_normal(_image_shape(self.model, 1))
        y1 = substream(self.seed, "probe-replan-labels").integers(0, num_classes, size=1)
        sim = sharesched.probe_similarity(self.model, x1, samplers.make_timegrid(REPLAN_STEPS), y1)
        self.replan_s = sim.S
        self.replan_path = os.path.join(self.scratch, "replan-similarity.txt")
        sharesched.write_similarity(self.replan_path, sim)
        self.ratios: list[float] = []
        self.loss_ratios: list[float] = []
        self.sim_small = None

    def kind(self, op: int) -> str:
        kind, arg = self.REQUESTS[op % self.cycle]
        return kind if arg is None else f"{kind}/{arg}"

    def request(self, op: int, ledger) -> None:
        kind, arg = self.REQUESTS[op % self.cycle]
        getattr(self, "_" + kind)(op, ledger, arg)

    def _roundtrip_plan(self, op, ledger, plan, checksum) -> None:
        path = os.path.join(self.scratch, "plan.txt")
        sharesched.write_plan(path, plan, checksum=checksum)
        back, back_checksum = sharesched.read_plan(path)
        ledger.check(op, "plan_file_roundtrip", back == plan and back_checksum == checksum,
                     f"K={plan.K}")

    def _plan(self, op, ledger, sim, k):
        """The DP plan and the uniform plan's utility at budget k."""
        dp = sharesched.plan_dp(sim, k)
        uniform = sharesched.plan_uniform(sim.N, k)
        u_uniform = sharesched.plan_utility(sim, uniform.anchors)
        ledger.check(op, "dp_dominates_uniform", dp.utility >= u_uniform,
                     f"N={sim.N} K={k}: {dp.utility!r} < {u_uniform!r}")
        return dp, u_uniform

    def _probe(self, op, ledger, n) -> None:
        """The `ddtlab plan --checkpoint` path: probe, plan, and write the
        plan and similarity files. A new probe batch each cycle, so the
        quality figure averages over them."""
        cycle = op // self.cycle
        x0 = substream(self.seed, f"probe/{cycle}").standard_normal(
            _image_shape(self.model, PROBE_SIZE))
        y = substream(self.seed, f"probe-labels/{cycle}").integers(
            0, self.model.config.num_classes, size=PROBE_SIZE)
        sim = sharesched.probe_similarity(self.model, x0, samplers.make_timegrid(n), y)
        ledger.check(op, "similarity_valid", _similarity_ok(sim.S), f"N={n}")
        dp, u_uniform = self._plan(op, ledger, sim, budget(n, SHARE_RATIO))
        self.ratios.append(dp.utility / u_uniform)
        # utility lost to sharing, against a plan with every step an
        # anchor (utility n)
        self.loss_ratios.append((n - dp.utility) / (n - u_uniform))
        self._roundtrip_plan(op, ledger, dp, sharesched.similarity_checksum(sim))
        path = os.path.join(self.scratch, "similarity.txt")
        sharesched.write_similarity(path, sim)
        ledger.check(op, "similarity_file_roundtrip",
                     np.array_equal(sharesched.read_similarity(path).S, sim.S), f"N={n}")
        if n == BRUTEFORCE_STEPS:
            self.sim_small = sim

    def _replan(self, op, ledger, _) -> None:
        """The `ddtlab plan --similarity` path over several budgets."""
        sim = sharesched.read_similarity(self.replan_path)
        ledger.check(op, "similarity_file_roundtrip", np.array_equal(sim.S, self.replan_s),
                     f"N={REPLAN_STEPS}")
        checksum = sharesched.similarity_checksum(sim)
        for ratio in REPLAN_RATIOS:
            dp, _ = self._plan(op, ledger, sim, budget(REPLAN_STEPS, ratio))
            self._roundtrip_plan(op, ledger, dp, checksum)

    def _bruteforce(self, op, ledger, n) -> None:
        """A 20-step plan from the last probe, certified by brute force."""
        k = budget(n, SHARE_RATIO)
        dp = sharesched.plan_dp(self.sim_small, k)
        brute = sharesched.plan_bruteforce(self.sim_small, k)
        ledger.check(op, "dp_equals_bruteforce",
                     dp.anchors == brute.anchors and dp.utility == brute.utility,
                     f"{dp.anchors} vs {brute.anchors}")

    def _diagnose(self, op, ledger, _) -> None:
        """`ddtlab diagnose` spectra: closed form against Monte Carlo."""
        clean, _ = self.dataset.sample(substream(self.seed, "diagnose-mc"), DIAGNOSE_TRIALS)
        data = spectral.SpectrumProfile(self.dataset.spectrum_coefficients())
        for t in DIAGNOSE_T:
            expected = spectral.SpectrumProfile(data.data_coefficients, lam=data.lam, t=t)
            empirical = spectral.empirical_noisy_spectrum(
                clean, t, substream(self.seed, f"diagnose-noise/{t:.6g}"))
            err = np.abs(empirical - expected.coefficients) / expected.coefficients
            ledger.check(op, "spectrum_matches_closed_form",
                         bool(np.all(np.isfinite(err)) and err.max() < SPECTRUM_RTOL),
                         f"t={t}: max relative error {err.max():.3g}")

    def quality(self) -> float:
        """Utility the DP plan loses to sharing over what the uniform plan
        loses, on the probed matrices; a planner that gets worse reads
        higher."""
        return float(np.mean(self.loss_ratios))

    def details(self) -> dict:
        return {"plan_utility_ratio": float(np.mean(self.ratios))}


WORKLOADS = {w.name: w for w in (TrainWorkload, SampleWorkload, PlanWorkload)}
