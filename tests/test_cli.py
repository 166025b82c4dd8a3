"""End-to-end CLI runs in temp directories: exit codes, determinism,
resume continuity, sharing/guidance neutrality, and NFE accounting."""

import argparse
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddtlab
import ddtlab.cli as cli
from ddtlab.cli import build_parser, main
from ddtlab.files import atomic_write
from ddtlab.model import (
    CHECKPOINT_MAGIC,
    DDTModel,
    ModelConfig,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from ddtlab.sharesched import plan_uniform, write_plan, write_similarity
from ddtlab.train import parse_train_config


# what every manifest's "environment" holds
ENVIRONMENT_KEYS = {"cpus", "python", "numpy", "blas", "thread_env", "row_slices",
                    "slice_worker"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tiny_config() -> ModelConfig:
    return ModelConfig(encoder_layers=2, decoder_layers=1, hidden_dim=8,
                       heads=2, patch_size=2, image_size=4, channels=1,
                       num_classes=3, alignment_layer=1, teacher_dim=6)


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    """Untrained tiny model with opened gates, saved as a checkpoint."""
    model = DDTModel(tiny_config(), seed=0)
    rng = np.random.default_rng(42)
    for name, p in model.named_parameters():
        if "mod." in name or name.endswith("final.proj.w"):
            p.data = p.data + 0.05 * rng.normal(size=p.data.shape)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(path, model.config, model.state_arrays())
    return path


def write_config(path, **overrides):
    base = {"preset": "desk", "steps": 6, "batch": 4, "seed": 1,
            "dataset": "bandlimited"}
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


def metrics_rows(path) -> list[list[str]]:
    """metrics.csv as rows of fields, without the step_ms column: wall
    times differ from run to run, every other column must not."""
    rows = [line.split(",") for line in path.read_text().strip().split("\n")]
    keep = [i for i, name in enumerate(rows[0]) if name != "step_ms"]
    return [[row[i] for i in keep] for row in rows]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "config.txt")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0

    assert (out1 / "checkpoint.ckpt").exists()
    assert (out1 / "metrics.csv").exists()
    assert (out1 / "manifest.json").exists()
    assert sha256(out1 / "checkpoint.ckpt") == sha256(out2 / "checkpoint.ckpt")
    assert metrics_rows(out1 / "metrics.csv") == metrics_rows(out2 / "metrics.csv")

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert str(cfg) in manifest["inputs"]
    assert len(manifest["inputs"][str(cfg)]) == 64  # sha256 hex

    rows = (out1 / "metrics.csv").read_text().strip().split("\n")
    assert rows[0] == "step,loss_dec,loss_enc,total,grad_norm,step_ms,skipped"
    assert len(rows) == 7
    assert all(float(r.split(",")[5]) > 0.0 for r in rows[1:])  # step_ms
    env = manifest["environment"]
    assert set(env) == ENVIRONMENT_KEYS
    assert env["row_slices"] == 1  # a batch of 4 trains as one graph
    assert env["slice_worker"] is False


def test_train_resume_is_bit_exact_and_spike_free(tmp_path):
    cfg = write_config(tmp_path / "config.txt", steps=16)
    straight = tmp_path / "straight"
    assert main(["train", "--config", str(cfg), "--out", str(straight)]) == 0

    half = tmp_path / "half"
    assert main(["train", "--config", str(cfg), "--steps", "8",
                 "--out", str(half)]) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--config", str(cfg),
                 "--resume", str(half / "checkpoint.ckpt"),
                 "--out", str(resumed)]) == 0

    assert sha256(straight / "checkpoint.ckpt") == sha256(resumed / "checkpoint.ckpt")

    # the resumed metrics rows are exactly the straight run's tail
    straight_rows = metrics_rows(straight / "metrics.csv")[1:]
    resumed_rows = metrics_rows(resumed / "metrics.csv")[1:]
    assert resumed_rows == straight_rows[8:]

    # continuity: first resumed loss is no spike over the trailing average
    losses = [float(r[1]) for r in straight_rows]
    moving_avg = np.mean(losses[3:8])
    first_resumed = float(resumed_rows[0][1])
    assert first_resumed < 2.0 * moving_avg


def test_train_alignment_weight_zero_still_reports_enc_loss(tmp_path):
    cfg = write_config(tmp_path / "config.txt", alignment_weight=0.0, steps=3)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
    enc = [float(r.split(",")[2]) for r in rows]
    assert all(v > 0.0 for v in enc)  # computed even when unweighted
    total = [float(r.split(",")[3]) for r in rows]
    dec = [float(r.split(",")[1]) for r in rows]
    assert total == dec  # weight 0 leaves it out of the objective


def test_train_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.txt"
    cfg.write_text("preset=desk\nwat=1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "wat" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("preset", "huge"), ("dataset", "nope"), ("seed", "-1"), ("lr", "nan"),
    ("lr", "inf"), ("alignment_weight", "nan"), ("alignment_weight", "inf"),
    # the key seed again, after the base config's seed=1
    pytest.param("seed ", "5", id="seed-repeated"),
])
def test_train_bad_config_value_exits_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path / "config.txt", **{field: value})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_missing_config_exits_3(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")]) == 3


# 1e11 rows: each command's first array of them cannot be allocated on
# any machine, so it fails at once rather than after filling memory
HUGE = "100000000000"


@pytest.mark.parametrize("command", ["sample", "train", "diagnose", "sample-share-ratio"])
def test_input_too_large_for_memory_exits_2_and_leaves_no_out(tmp_path, tiny_ckpt, capsys,
                                                             command):
    argv = {
        "sample": lambda: ["sample", "--checkpoint", str(tiny_ckpt), "--num", HUGE],
        # the time grid, built before the plan's anchors are listed
        "sample-share-ratio": lambda: ["sample", "--checkpoint", str(tiny_ckpt),
                                       "--steps", HUGE, "--share-ratio", "0.5"],
        "train": lambda: ["train", "--config",
                          str(write_config(tmp_path / "config.txt", batch=HUGE))],
        "diagnose": lambda: ["diagnose", "--trials", HUGE],
    }[command]()
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_interrupt_prints_one_line_and_removes_only_an_empty_out_it_made(
        tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train", interrupted)
    cfg = write_config(tmp_path / "config.txt")
    made, kept = tmp_path / "made", tmp_path / "kept"
    kept.mkdir()
    for out in (made, kept, made / "deeper", kept / "deeper"):
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 130
        assert capsys.readouterr().err == "interrupted\n"
    # every directory a run made goes, deepest first, and none it found
    assert not made.exists() and kept.is_dir() and not any(kept.iterdir())


@pytest.mark.parametrize("command", ["train", "sample", "plan", "diagnose"])
def test_interrupt_at_the_second_write_removes_the_first(tmp_path, tiny_ckpt, capsys,
                                                        monkeypatch, command):
    argv = {"train": ["train", "--config", str(write_config(tmp_path / "config.txt", steps=2))],
            "sample": ["sample", "--checkpoint", str(tiny_ckpt), "--steps", "2", "--num", "4"],
            "plan": ["plan", "--checkpoint", str(tiny_ckpt), "--steps", "4",
                     "--probe-size", "4", "--budget", "2"],
            "diagnose": ["diagnose", "--t-list", "0.2,0.5", "--trials", "50"]}[command]
    replace, writes = os.replace, []

    def interrupted_second(src, dst):  # atomic_write's rename of a finished file
        writes.append(dst)
        if len(writes) == 2:
            raise KeyboardInterrupt
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_second)
    made, kept = tmp_path / "made", tmp_path / "kept"
    kept.mkdir()
    (kept / "keep.txt").write_text("mine\n")
    for out in (made, kept):
        writes.clear()
        assert main([*argv, "--out", str(out)]) == 130
        assert len(writes) == 2
        assert capsys.readouterr().err == "interrupted\n"
    assert not made.exists()
    assert [p.name for p in kept.iterdir()] == ["keep.txt"]


def test_train_out_through_a_file_exits_3_before_training(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
    (tmp_path / "file").write_text("x\n")
    assert main(["train", "--config", str(write_config(tmp_path / "config.txt")),
                 "--out", str(tmp_path / "file" / "o")]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert trained == []


# a directory (IsADirectoryError), or a path through a regular file
# (NotADirectoryError)
@pytest.mark.parametrize("command, flag, kind", [
    pytest.param("train", "--config", "dir", id="train---config"),
    pytest.param("sample", "--checkpoint", "dir", id="sample---checkpoint"),
    pytest.param("train", "--config", "file/x", id="train---config-file/x"),
    pytest.param("sample", "--checkpoint", "file/x", id="sample---checkpoint-file/x"),
    pytest.param("plan", "--similarity", "file/x", id="plan---similarity-file/x"),
])
def test_directory_input_exits_3(tmp_path, capsys, command, flag, kind):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("x\n")
    assert main([command, flag, str(tmp_path / kind),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """A two-step desk training run, for resuming from."""
    root = tmp_path_factory.mktemp("desk")
    cfg = write_config(root / "config.txt", steps=3)
    assert main(["train", "--config", str(cfg), "--steps", "2",
                 "--out", str(root / "run")]) == 0
    return cfg, root / "run" / "checkpoint.ckpt"


QKV = "enc.b0.attn.qkv.w"
CORRUPT_STATE = {
    "no opt.v": lambda a: a.pop(f"opt.v.{QKV}"),
    "no opt.step": lambda a: a.pop("opt.step"),
    "opt.m shape": lambda a: a.update({f"opt.m.{QKV}": np.zeros(3)}),
    "opt.step fraction": lambda a: a.update({"opt.step": np.array(1.5)}),
    "opt.step negative": lambda a: a.update({"opt.step": np.array(-2.0)}),
    "train.step nan": lambda a: a.update({"train.step": np.array([np.nan])}),
    "train.step empty": lambda a: a.update({"train.step": np.zeros(0)}),
    "no train.step": lambda a: a.pop("train.step"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_STATE))
def test_resume_incomplete_state_exits_3(tmp_path, capsys, desk_run, case):
    # the resumed run would not continue the first one bit for bit
    cfg, ckpt = desk_run
    config, arrays = load_checkpoint(ckpt)
    CORRUPT_STATE[case](arrays)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, config, arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", str(bad),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_train_resume_with_other_preset_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.txt", steps=2)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    other = write_config(tmp_path / "b2.txt", preset="b2", steps=4)
    assert main(["train", "--config", str(other),
                 "--resume", str(out / "checkpoint.ckpt"),
                 "--out", str(tmp_path / "again")]) == 2
    assert "preset=b2" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_train_resume_into_its_own_out(tmp_path, monkeypatch):
    """A run that resumes from the checkpoint in its own --out hashes that
    input as it read it, and an interrupted one leaves it whole."""
    cfg = write_config(tmp_path / "config.txt", steps=3)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--steps", "2", "--out", str(out)]) == 0
    ckpt = out / "checkpoint.ckpt"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    resume = ["train", "--config", str(cfg), "--resume", str(ckpt), "--out", str(out)]

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(cli, "train", interrupted)
        assert main(resume) == 130
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(resume) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(ckpt)] == hashlib.sha256(before["checkpoint.ckpt"]).hexdigest()
    assert manifest["outputs"]["checkpoint.ckpt"] == sha256(ckpt)
    assert ckpt.read_bytes() != before["checkpoint.ckpt"]


def test_train_resume_into_its_own_out_interrupted_after_the_save(tmp_path, monkeypatch):
    """The save has replaced the checkpoint the run resumed from, so the new
    one stays whole, and the earlier manifest, which names the old one, goes."""
    cfg = write_config(tmp_path / "config.txt", steps=3)
    out, ref = tmp_path / "run", tmp_path / "ref"
    assert main(["train", "--config", str(cfg), "--steps", "2", "--out", str(out)]) == 0
    ckpt = out / "checkpoint.ckpt"
    start = tmp_path / "start.ckpt"
    start.write_bytes(ckpt.read_bytes())
    metrics = (out / "metrics.csv").read_bytes()
    assert main(["train", "--config", str(cfg), "--resume", str(start), "--out", str(ref)]) == 0
    replace = os.replace

    def interrupted_metrics(src, dst):
        if os.path.basename(dst) == "metrics.csv":
            raise KeyboardInterrupt
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_metrics)
    assert main(["train", "--config", str(cfg), "--resume", str(ckpt), "--out", str(out)]) == 130
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.ckpt", "metrics.csv"]
    assert ckpt.read_bytes() == (ref / "checkpoint.ckpt").read_bytes()
    _, arrays = load_checkpoint(ckpt)
    assert arrays["train.step"].tolist() == [3.0]
    assert (out / "metrics.csv").read_bytes() == metrics


def test_failed_overwrite_drops_the_earlier_manifest(tmp_path, monkeypatch):
    """A failed run that replaced an earlier run's file removes its new copy
    and the earlier manifest.json, which would name a file that is gone."""
    sim = tmp_path / "sim.npy"
    write_similarity(sim, np.eye(6))
    out = tmp_path / "o"
    plan = ["plan", "--similarity", str(sim), "--out", str(out), "--budget"]
    assert main([*plan, "3"]) == 0
    replace = os.replace

    def interrupted_manifest(src, dst):
        if os.path.basename(dst) == "manifest.json":
            raise KeyboardInterrupt
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_manifest)
    assert main([*plan, "2"]) == 130
    assert list(out.iterdir()) == []


def test_train_resume_past_end_exits_2(tmp_path):
    cfg = write_config(tmp_path / "config.txt", steps=4)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg),
                 "--resume", str(out / "checkpoint.ckpt"),
                 "--out", str(tmp_path / "again")]) == 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_writes_eval_report(tmp_path, tiny_ckpt):
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "10",
                 "--num", "8", "--seed", "3", "--out", str(out)]) == 0
    samples = np.load(out / "samples.npy")
    assert samples.shape == (8, 1, 4, 4)
    report = json.loads((out / "eval.json").read_text())
    assert report["mmd"] >= 0.0
    assert report["spectral_distance"] >= 0.0
    assert report["nfe_encoder"] == 10
    assert report["nfe_decoder"] == 10
    assert report["cfg_branches"] == 1


def test_sample_deterministic(tmp_path, tiny_ckpt):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "8",
                     "--num", "4", "--seed", "9", "--out", str(out)]) == 0
        outs.append(out)
    assert sha256(outs[0] / "samples.npy") == sha256(outs[1] / "samples.npy")
    assert (outs[0] / "eval.json").read_text() == (outs[1] / "eval.json").read_text()


def test_sample_manifest_records_environment(tmp_path, tiny_ckpt):
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "2",
                 "--num", "4", "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == ENVIRONMENT_KEYS
    assert set(env["blas"]) == {"name", "version", "threads"}
    assert env["cpus"] >= 1
    assert env["numpy"] == np.__version__
    assert env["row_slices"] == 1  # 4 rows are too few to split
    assert env["slice_worker"] is False
    assert env["thread_env"] == {name: os.environ.get(name) for name in THREAD_VARS}


@pytest.mark.parametrize("command", ["plan", "diagnose"])
def test_plan_and_diagnose_manifests_record_environment(tmp_path, tiny_ckpt, command):
    argv = {"plan": ["plan", "--checkpoint", str(tiny_ckpt), "--steps", "4",
                     "--probe-size", "4", "--budget", "2"],
            "diagnose": ["diagnose", "--t-list", "0.5", "--trials", "50"]}[command]
    out = tmp_path / command
    assert main([*argv, "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == ENVIRONMENT_KEYS
    # the probe batch of 4; diagnose calls no model
    assert env["row_slices"] == {"plan": 1, "diagnose": None}[command]
    assert env["slice_worker"] is False


@pytest.mark.parametrize("command", ["train", "sample", "plan", "diagnose"])
def test_manifest_hashes_every_output(tmp_path, tiny_ckpt, command):
    extra = {"train": ["--config", str(write_config(tmp_path / "config.txt", steps=2))],
             "sample": ["--checkpoint", str(tiny_ckpt), "--steps", "2", "--num", "4"],
             "plan": ["--checkpoint", str(tiny_ckpt), "--steps", "4",
                      "--probe-size", "4", "--budget", "2"],
             "diagnose": ["--t-list", "0.2,0.5", "--trials", "50"]}[command]
    out = tmp_path / "o"
    assert main([command, *extra, "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert set(outputs) == {p.name for p in out.iterdir()} - {"manifest.json"}
    assert outputs == {name: sha256(out / name) for name in outputs}


@pytest.mark.parametrize("command", ["train", "sample", "plan", "diagnose"])
def test_manifest_records_every_parsed_flag(tmp_path, tiny_ckpt, command):
    """settings is every flag as parsed, and derived what the command worked
    out from them; the values differ from the defaults where they can, so
    a flag or config key left out of the manifest shows."""
    config = write_config(tmp_path / "config.txt", steps=2, label_drop=0.9)
    probe = ["--checkpoint", str(tiny_ckpt), "--steps", "4", "--probe-size", "2",
             "--solver", "adams3", "--shift", "3", "--seed", "5"]
    extra = {"train": ["--config", str(config)],
             "sample": ["--checkpoint", str(tiny_ckpt), "--steps", "2", "--num", "4",
                        "--solver", "adams2", "--share-ratio", "0.5", "--cfg-w", "2"],
             "plan": [*probe, "--budget", "2", "--strategy", "uniform"],
             "diagnose": ["--seed", "5", "--dataset", "gaussian", "--t-list", "0.2,0.5",
                          "--trials", "50"]}[command]
    argv = [command, *extra, "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    parsed = vars(build_parser().parse_args(argv))
    del parsed["func"]
    assert manifest["settings"] == parsed
    assert manifest["derived"] == {
        "train": {"config": dataclasses.asdict(parse_train_config(config.read_text())),
                  "start_step": 0},
        "sample": {},
        "plan": {"N": 4, "K": 2},
        "diagnose": {"t_list": [0.2, 0.5]}}[command]
    if command == "train":
        assert manifest["derived"]["config"]["label_drop"] == 0.9


def test_manifest_records_thread_variables_and_the_slice_worker(tmp_path, tiny_ckpt):
    """A 32-row sample: its slices run in the worker process with the
    default BLAS threads (when there are two or more), not with one."""
    runs = {"default": {}, "one": {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}}
    envs = {}
    for name, thread_env in runs.items():
        out = tmp_path / name
        _cli_in_subprocess(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "1",
                            "--num", "32", "--out", str(out)], thread_env)
        envs[name] = json.loads((out / "manifest.json").read_text())["environment"]
    one, default = envs["one"], envs["default"]
    assert one["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                 "MKL_NUM_THREADS": "3"}
    assert default["thread_env"]["OPENBLAS_NUM_THREADS"] is None
    assert one["row_slices"] == default["row_slices"] == 2
    assert one["slice_worker"] is False
    assert default["slice_worker"] == ((default["blas"]["threads"] or 0) > 1)


def _cli_in_subprocess(args: list[str], thread_env: dict) -> None:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(ddtlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(thread_env)
    code = "import sys; from ddtlab.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                   capture_output=True)


def _sample_in_subprocess(ckpt, out, thread_env: dict, *extra: str) -> None:
    _cli_in_subprocess(["sample", "--checkpoint", str(ckpt), "--steps", "3",
                        "--num", "32", "--cfg-w", "1.5", "--seed", "4",
                        "--out", str(out), *extra], thread_env)


def test_sample_row_slices_match_one_blas_thread(tmp_path):
    """A desk model sampled with its batch in row slices side by side (the
    default BLAS threads) and one after the other (one BLAS thread) gives
    the same bytes, with z reused across steps (--share-ratio) or not."""
    model = DDTModel(preset("desk"), seed=0)
    rng = np.random.default_rng(5)
    for _, p in model.named_parameters():
        p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
    ckpt = tmp_path / "desk.ckpt"
    save_checkpoint(ckpt, model.config, model.state_arrays())
    for extra, encodes in (((), 6), (("--share-ratio", "0.5"), 4)):
        one, default = tmp_path / f"one{len(extra)}", tmp_path / f"default{len(extra)}"
        _sample_in_subprocess(ckpt, one, {"OPENBLAS_NUM_THREADS": "1"}, *extra)
        _sample_in_subprocess(ckpt, default, {}, *extra)
        assert sha256(one / "samples.npy") == sha256(default / "samples.npy")
        reports = [json.loads((d / "eval.json").read_text()) for d in (one, default)]
        assert [(r["nfe_encoder"], r["nfe_decoder"]) for r in reports] == [(encodes, 6)] * 2
        envs = [json.loads((d / "manifest.json").read_text())["environment"]
                for d in (one, default)]
        assert [env["row_slices"] for env in envs] == [2, 2]
        assert envs[0]["blas"]["threads"] in (1, None)


def test_train_split_step_matches_one_blas_thread(tmp_path):
    """A desk batch of 32 trains as two halves, side by side with the
    default BLAS threads and one after the other with one thread; the
    weights and every column but step_ms are the same either way."""
    cfg = write_config(tmp_path / "config.txt", steps=3, batch=32)
    one, default = tmp_path / "one", tmp_path / "default"
    for out, thread_env in ((one, {"OPENBLAS_NUM_THREADS": "1"}), (default, {})):
        _cli_in_subprocess(["train", "--config", str(cfg), "--out", str(out)], thread_env)
    assert sha256(one / "checkpoint.ckpt") == sha256(default / "checkpoint.ckpt")
    assert metrics_rows(one / "metrics.csv") == metrics_rows(default / "metrics.csv")
    envs = [json.loads((d / "manifest.json").read_text())["environment"]
            for d in (one, default)]
    assert [env["row_slices"] for env in envs] == [2, 2]
    assert envs[0]["blas"]["threads"] in (1, None)


def test_sample_full_budget_plan_matches_no_plan(tmp_path, tiny_ckpt):
    plan_path = tmp_path / "plan.txt"
    write_plan(plan_path, plan_uniform(10, 10))
    out_plain, out_plan = tmp_path / "plain", tmp_path / "planned"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "10",
                 "--num", "4", "--out", str(out_plain)]) == 0
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "10",
                 "--num", "4", "--plan", str(plan_path),
                 "--out", str(out_plan)]) == 0
    assert sha256(out_plain / "samples.npy") == sha256(out_plan / "samples.npy")


def test_sample_neutral_guidance_matches_disabled(tmp_path, tiny_ckpt):
    out_off, out_w1 = tmp_path / "off", tmp_path / "w1"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "8",
                 "--num", "4", "--out", str(out_off)]) == 0
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "8",
                 "--num", "4", "--cfg-w", "1.0", "--out", str(out_w1)]) == 0
    assert sha256(out_off / "samples.npy") == sha256(out_w1 / "samples.npy")
    assert json.loads((out_w1 / "eval.json").read_text())["cfg_branches"] == 1


def test_sample_share_ratio_nfe(tmp_path, tiny_ckpt):
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "50",
                 "--num", "4", "--share-ratio", "0.75", "--out", str(out)]) == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["budget"] == 13  # ceil(50/4)
    assert report["nfe_encoder"] == 13
    assert report["nfe_decoder"] == 50


@pytest.mark.parametrize("steps, ratio, budget", [(10, 0.7, 3), (20, 0.85, 3),
                                                 (50, 0.7, 15), (50, 0.75, 13)])
def test_budget_from_ratio_is_the_exact_ceiling(steps, ratio, budget):
    # 1 - 0.7 is 0.30000000000000004 in binary floats: ceil(10 * that) is 4
    assert cli._budget_from_ratio(steps, ratio) == budget


def test_sample_share_ratio_budget_is_the_exact_ceiling(tmp_path, tiny_ckpt):
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "10",
                 "--num", "4", "--share-ratio", "0.7", "--out", str(out)]) == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["budget"] == 3  # ceil(10 * 0.3)
    assert report["nfe_encoder"] == 3


def test_sample_guided_nfe(tmp_path, tiny_ckpt):
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "10",
                 "--num", "4", "--cfg-w", "2.0", "--cfg-interval", "0.2", "0.8",
                 "--share-ratio", "0.5", "--out", str(out)]) == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["cfg_branches"] == 2
    assert report["nfe_encoder"] == 5 * 2
    assert report["nfe_decoder"] == 10 * 2


def test_sample_plan_mismatch_exits_2(tmp_path, tiny_ckpt):
    plan_path = tmp_path / "plan.txt"
    write_plan(plan_path, plan_uniform(6, 3))
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "10",
                 "--num", "4", "--plan", str(plan_path),
                 "--out", str(tmp_path / "o")]) == 2


def test_sample_plan_and_ratio_conflict_exits_2(tmp_path, tiny_ckpt):
    plan_path = tmp_path / "plan.txt"
    write_plan(plan_path, plan_uniform(10, 5))
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "10",
                 "--num", "4", "--plan", str(plan_path), "--share-ratio", "0.5",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", [["sample", "--num", "4"], ["plan", "--budget", "2"]],
                         ids=["sample", "plan"])
def test_sample_corrupt_checkpoint_exits_3(tmp_path, command):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    out = tmp_path / "o"
    assert main([*command, "--checkpoint", str(bad), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--checkpoint", "--plan", "--similarity",
                                  "--config"])
def test_non_utf8_input_exits_3(tmp_path, tiny_ckpt, capsys, flag):
    # a 0xff byte in the header of a checkpoint, plan or similarity file,
    # or in a training config
    write_plan(tmp_path / "plan.txt", plan_uniform(4, 2))
    write_similarity(tmp_path / "sim.npy", np.eye(1))
    good, marker = {
        "--checkpoint": (tiny_ckpt.read_bytes(), b"encoder_layers"),
        "--plan": ((tmp_path / "plan.txt").read_bytes(), b"N="),
        "--similarity": ((tmp_path / "sim.npy").read_bytes(), b"descr"),
        "--config": (write_config(tmp_path / "config.txt").read_bytes(), b"preset"),
    }[flag]
    at = good.index(marker)
    bad = tmp_path / "bad"
    bad.write_bytes(good[:at] + b"\xff" + good[at + 1:])
    argv = {
        "--checkpoint": ["sample", "--checkpoint", str(bad)],
        "--plan": ["sample", "--checkpoint", str(tiny_ckpt), "--steps", "4",
                   "--plan", str(bad)],
        "--similarity": ["plan", "--similarity", str(bad), "--budget", "1"],
        "--config": ["train", "--config", str(bad)],
    }[flag]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--plan", "--checkpoint"])
def test_sample_unknown_field_exits_3(tmp_path, tiny_ckpt, capsys, flag):
    # a flipped byte in a plan key, or a typo'd key added to a checkpoint header
    if flag == "--plan":
        plan = tmp_path / "plan.txt"
        write_plan(plan, plan_uniform(4, 2), checksum="ab12")
        plan.write_text(plan.read_text().replace("utility=", "utimity="))
        argv = ["--checkpoint", str(tiny_ckpt), "--plan", str(plan)]
    else:
        blob = tiny_ckpt.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4
        (header_len,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
        header = blob[start:start + header_len] + b"typo_key=7\n"
        ckpt = tmp_path / "typo.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
                         + blob[start + header_len:])
        argv = ["--checkpoint", str(ckpt)]
    assert main(["sample", *argv, "--steps", "4", "--out", str(tmp_path / "o")]) == 3
    assert "unknown field" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sample_other_block_style_exits_3(tmp_path, tiny_ckpt):
    # the header keeps its length: only the one block style exists
    blob = tiny_ckpt.read_bytes().replace(b"block_style=improved", b"block_style=baseline")
    bad = tmp_path / "baseline.ckpt"
    bad.write_bytes(blob)
    assert main(["sample", "--checkpoint", str(bad), "--num", "4",
                 "--out", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()


def test_sample_divergent_model_exits_4(tmp_path):
    model = DDTModel(tiny_config(), seed=0)
    p = model.params["final.proj.b"]
    p.data = np.full_like(p.data, np.inf)
    path = tmp_path / "hot.ckpt"
    save_checkpoint(path, model.config, model.state_arrays())
    assert main(["sample", "--checkpoint", str(path), "--steps", "10",
                 "--num", "4", "--out", str(tmp_path / "o")]) == 4


def test_sample_nfe_off_the_closed_form_exits_4(tmp_path, tiny_ckpt, monkeypatch):
    honest = DDTModel.encode

    def counted_twice(self, *args, **kwargs):
        self.nfe_encoder += 1
        return honest(self, *args, **kwargs)

    monkeypatch.setattr(DDTModel, "encode", counted_twice)
    out = tmp_path / "o"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "4",
                 "--num", "4", "--out", str(out)]) == 4
    assert not out.exists()


def test_probe_nfe_off_the_closed_form_exits_4(tmp_path, tiny_ckpt, monkeypatch):
    # a probe under 24 rows runs in this process, on the patched encoder
    honest = DDTModel.encode

    def counted_twice(self, *args, **kwargs):
        self.nfe_encoder += 1
        return honest(self, *args, **kwargs)

    monkeypatch.setattr(DDTModel, "encode", counted_twice)
    out = tmp_path / "o"
    assert main(["plan", "--budget", "2", "--checkpoint", str(tiny_ckpt), "--steps", "4",
                 "--probe-size", "4", "--out", str(out)]) == 4
    assert not out.exists()


# a row keeps its number, and so its test id, when rows before it go; a
# new row takes the next free number (38). A None in a row's flags runs
# plan without --checkpoint, reading a 20-step similarity file instead
OUT_OF_RANGE = {
    0: ("sample", ["--shift", "0.5"]),
    1: ("sample", ["--cfg-w", "-1"]),
    2: ("sample", ["--num", "1"]),
    3: ("plan", ["--probe-size", "0", "--budget", "2"]),
    4: ("sample", ["--cfg-interval", "0.5", "0.5", "--cfg-w", "2"]),
    5: ("plan", ["--shift", "0.5", "--budget", "2"]),
    7: ("diagnose", ["--t-list", "abc"]),
    8: ("sample", ["--dataset", "nope"]),
    9: ("diagnose", ["--dataset", "nope"]),
    10: ("plan", ["--steps", "0", "--budget", "1"]),
    13: ("diagnose", ["--trials", "0"]),
    14: ("train", ["--seed", "-1"]),
    15: ("train", ["--steps", "0"]),
    16: ("sample", ["--seed", "-1"]),
    17: ("sample", ["--steps", "0"]),
    18: ("sample", ["--share-ratio", "1"]),
    19: ("plan", ["--seed", "-1", "--budget", "1"]),
    20: ("plan", ["--budget", "0"]),
    21: ("plan", ["--share-ratio", "1"]),
    22: ("diagnose", ["--seed", "-1"]),
    23: ("sample", ["--shift", "nan"]),
    24: ("sample", ["--shift", "inf"]),
    25: ("sample", ["--cfg-w", "inf"]),
    26: ("diagnose", ["--t-list", "0.101,0.104"]),
    27: ("diagnose", ["--t-list", "0.5,0.5"]),
    28: ("plan", ["--budget", "3", "--share-ratio", "0.5"]),
    # probe flags that would do nothing without --checkpoint
    29: ("plan", ["--steps", "7", "--solver", "adams3", "--budget", "3", None]),
    30: ("plan", ["--shift", "2", "--budget", "3", None]),
    31: ("plan", ["--solver", "adams2", "--budget", "3", None]),
    32: ("plan", ["--probe-size", "3", "--budget", "3", None]),
    33: ("plan", ["--seed", "1", "--budget", "3", None]),
}


@pytest.mark.parametrize("command, flags", list(OUT_OF_RANGE.values()),
                         ids=[f"{command}-flags{n}" for n, (command, _) in OUT_OF_RANGE.items()])
def test_out_of_range_argument_exits_2(tmp_path, tiny_ckpt, capsys, command, flags):
    if command == "train":
        source = ["--config", str(write_config(tmp_path / "config.txt")), "--steps", "4"]
    elif command == "diagnose":
        source = []
    elif None not in flags:
        source = ["--checkpoint", str(tiny_ckpt), "--steps", "4"]
    else:
        write_similarity(tmp_path / "sim20.npy", np.eye(20))
        source = ["--similarity", str(tmp_path / "sim20.npy")]
    flags = [f for f in flags if f is not None]
    assert main([command, *source, *flags, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    # the command's own check refused the value, not argparse an unknown flag
    assert flags[0] in err and "unrecognized arguments" not in err
    assert not (tmp_path / "o").exists()


def test_every_numeric_flag_has_an_out_of_range_row():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    numeric = {(name, action.option_strings[0])
               for name, sub in commands.items() for action in sub._actions
               if action.type in (int, float)}
    assert numeric - {(command, flags[0]) for command, flags in OUT_OF_RANGE.values()} == set()


def test_unknown_solver_exits_2(tmp_path, tiny_ckpt):
    assert main(["sample", "--checkpoint", str(tiny_ckpt),
                 "--solver", "heun", "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_probe_dp_vs_bruteforce(tmp_path, tiny_ckpt):
    args = ["plan", "--checkpoint", str(tiny_ckpt), "--steps", "10",
            "--probe-size", "4", "--budget", "4"]
    out_dp, out_bf = tmp_path / "dp", tmp_path / "bf"
    assert main(args + ["--strategy", "dp", "--out", str(out_dp)]) == 0
    assert main(args + ["--strategy", "bruteforce", "--out", str(out_bf)]) == 0

    dp_text = (out_dp / "plan.txt").read_text()
    bf_text = (out_bf / "plan.txt").read_text()
    dp_utility = [l for l in dp_text.splitlines() if l.startswith("utility=")][0]
    bf_utility = [l for l in bf_text.splitlines() if l.startswith("utility=")][0]
    assert dp_utility == bf_utility
    dp_anchors = [l for l in dp_text.splitlines() if l.startswith("anchors=")][0]
    bf_anchors = [l for l in bf_text.splitlines() if l.startswith("anchors=")][0]
    assert dp_anchors == bf_anchors
    assert (out_dp / "similarity.npy").exists()


def test_plan_dp_dominates_uniform_in_files(tmp_path, tiny_ckpt):
    # probe once, then plan twice from the recorded similarity file
    probe_out = tmp_path / "probe"
    assert main(["plan", "--checkpoint", str(tiny_ckpt), "--steps", "12",
                 "--probe-size", "4", "--budget", "4",
                 "--out", str(probe_out)]) == 0
    sim = probe_out / "similarity.npy"

    out_dp, out_uni = tmp_path / "dp", tmp_path / "uni"
    assert main(["plan", "--similarity", str(sim), "--budget", "4",
                 "--strategy", "dp", "--out", str(out_dp)]) == 0
    # the file gives the plan that the in-memory probe gave
    assert (out_dp / "plan.txt").read_bytes() == (probe_out / "plan.txt").read_bytes()
    assert main(["plan", "--similarity", str(sim), "--budget", "4",
                 "--strategy", "uniform", "--out", str(out_uni)]) == 0

    def utility(p):
        line = [l for l in p.read_text().splitlines() if l.startswith("utility=")][0]
        return float(line.split("=")[1])

    assert utility(out_dp / "plan.txt") >= utility(out_uni / "plan.txt")


def test_plan_uniform_example_in_file(tmp_path, tiny_ckpt):
    out = tmp_path / "p"
    assert main(["plan", "--checkpoint", str(tiny_ckpt), "--steps", "6",
                 "--probe-size", "4", "--budget", "3", "--strategy", "uniform",
                 "--out", str(out)]) == 0
    text = (out / "plan.txt").read_text()
    assert "anchors=0,2,4\n" in text


def test_plan_budget_out_of_range_exits_2(tmp_path, tiny_ckpt):
    assert main(["plan", "--checkpoint", str(tiny_ckpt), "--steps", "6",
                 "--probe-size", "4", "--budget", "9",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["plan", "--checkpoint", str(tiny_ckpt), "--steps", "6",
                 "--probe-size", "4", "--out", str(tmp_path / "o")]) == 2


def test_plan_bad_budget_or_bruteforce_size_exits_2_before_probing(tmp_path, tiny_ckpt,
                                                                   monkeypatch):
    probes = []
    monkeypatch.setattr(cli, "probe_similarity", lambda *a, **k: probes.append(a))
    sim = tmp_path / "sim25.txt"
    write_similarity(sim, np.eye(25))
    out = tmp_path / "o"
    for flags in (["--checkpoint", str(tiny_ckpt), "--steps", "25",
                   "--strategy", "bruteforce", "--budget", "5"],
                  ["--checkpoint", str(tiny_ckpt), "--steps", "6", "--budget", "9"],
                  ["--similarity", str(sim), "--strategy", "bruteforce", "--budget", "5"]):
        assert main(["plan", *flags, "--out", str(out)]) == 2, flags
    assert probes == []
    assert not out.exists()


def test_probe_flags_at_their_defaults_pass_without_a_checkpoint(tmp_path):
    sim = tmp_path / "sim20.npy"
    write_similarity(sim, np.eye(20))
    defaults = ["--steps", "20", "--shift", "1", "--solver", "euler", "--probe-size", "8"]
    assert main(["plan", "--similarity", str(sim), "--seed", "0", *defaults,
                 "--budget", "3", "--out", str(tmp_path / "p")]) == 0


def test_plan_needs_exactly_one_source(tmp_path):
    assert main(["plan", "--budget", "2", "--out", str(tmp_path / "o")]) == 2


def test_plan_nonfinite_similarity_exits_3(tmp_path, capsys):
    sim = tmp_path / "sim.npy"
    with open(sim, "wb") as fh:
        np.save(fh, np.array([[1.0, np.nan], [np.nan, 1.0]]))
    assert main(["plan", "--similarity", str(sim), "--budget", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_plan_text_similarity_exits_3(tmp_path, capsys):
    # the retired text format is refused, not read by a second reader
    sim = tmp_path / "similarity.txt"
    sim.write_text("ddtlab-similarity v1\nN=2\n1 0.5\n0.5 1\n")
    assert main(["plan", "--similarity", str(sim), "--budget", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_spectra_and_similarity(tmp_path, tiny_ckpt):
    """The spectra diagnose writes, and the step similarity plan --checkpoint
    writes, the one command that probes."""
    out = tmp_path / "d"
    assert main(["diagnose", "--dataset", "bandlimited", "--t-list", "0.3,0.7",
                 "--trials", "3000", "--out", str(out)]) == 0

    for t in ("0.30", "0.70"):
        lines = (out / f"spectrum_t{t}.csv").read_text().strip().split("\n")
        assert lines[0] == "freq,c_data,c_noisy_analytic,c_noisy_empirical"
        assert len(lines) == 1 + 10  # 8x8 images have 10 radial bins
        for row in lines[1:]:
            freq, c_data, analytic, empirical = row.split(",")
            if float(analytic) > 1e-9:
                rel = abs(float(empirical) - float(analytic)) / float(analytic)
                assert rel < 0.05

    probe = tmp_path / "p"
    assert main(["plan", "--checkpoint", str(tiny_ckpt), "--steps", "8",
                 "--probe-size", "4", "--budget", "4", "--out", str(probe)]) == 0
    s = np.load(probe / "similarity.npy")
    assert s.shape == (8, 8)
    assert np.allclose(np.diag(s), 1.0)
    assert np.allclose(s, s.T)


def test_diagnose_dataset_only(tmp_path):
    out = tmp_path / "d"
    assert main(["diagnose", "--dataset", "gaussian", "--t-list", "0.5",
                 "--trials", "500", "--out", str(out)]) == 0
    assert (out / "spectrum_t0.50.csv").exists()


def test_diagnose_bad_time_exits_2(tmp_path):
    assert main(["diagnose", "--t-list", "1.5", "--out", str(tmp_path / "o")]) == 2


def test_no_leftover_temp_files(tmp_path, tiny_ckpt):
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tiny_ckpt), "--steps", "6",
                 "--num", "4", "--out", str(out)]) == 0
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("binary", [False, True])
def test_failed_write_leaves_no_temp_and_target_whole(tmp_path, binary):
    path = tmp_path / "f"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(path, binary=binary) as fh:
            fh.write(b"new" if binary else "new")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]
