"""Corruption fuzzing of the four file readers: a checkpoint (read and
turned into a model, as the CLI does), a plan file, a similarity file and
a train config. Truncated at any byte, or with any one byte changed, a
file either loads or raises FormatError (a config, as a usage error, may
also raise UsageError); no other exception escapes, and no read allocates
more than a small bound, whatever length a corrupt field claims."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddtlab.errors import FormatError, UsageError
from ddtlab.files import open_text
from ddtlab.model import DDTModel, ModelConfig, load_checkpoint, save_checkpoint
from ddtlab.sharesched import (
    SharingPlan,
    read_plan,
    read_similarity,
    write_plan,
    write_similarity,
)
from ddtlab.train import parse_train_config

# the intact files are a few kB; a read that trusts a corrupt length
# would allocate far more than this
PEAK_BYTES = 1 << 20


def load_model(path):
    return DDTModel.from_arrays(*load_checkpoint(path))


def load_config(path):
    with open_text(path) as fh:
        return parse_train_config(fh.read())


READERS = {"checkpoint": load_model, "plan": read_plan, "similarity": read_similarity,
           "config": load_config}
# the errors each kind may raise on a corrupt file
REFUSALS = {"config": (FormatError, UsageError)}


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """The bytes of one small valid file of each kind."""
    root = tmp_path_factory.mktemp("intact")
    cfg = ModelConfig(encoder_layers=1, decoder_layers=1, hidden_dim=4, heads=2,
                      patch_size=2, image_size=2, channels=1, num_classes=1,
                      alignment_layer=1, teacher_dim=1)
    save_checkpoint(root / "checkpoint", cfg, DDTModel(cfg, seed=0).state_arrays())
    write_plan(root / "plan", SharingPlan(N=6, anchors=(0, 2, 5), utility=0.75),
               checksum="ab12")
    # full-precision entries, so a flipped byte can land in any digit
    a = np.random.default_rng(0).normal(size=(5, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    s = np.clip(a @ a.T, -1.0, 1.0)
    np.fill_diagonal(s, 1.0)
    write_similarity(root / "similarity", s)
    (root / "config").write_text("# desk run\npreset=desk\nseed=3\nsteps=50\nbatch=16\n"
                                 "alignment_weight=0.25\ndataset=bandlimited\n"
                                 "lr=0.001  # Adam\nlabel_drop=0.1\n")
    return {kind: (root / kind).read_bytes() for kind in READERS}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(cut=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True),
       flip=st.integers(1, 255))
def test_corrupt_file_loads_or_raises_format_error(intact, scratch, kind, cut, where, flip):
    good = intact[kind]
    at = int(where * len(good))
    if cut:
        bad = good[:at]
    else:
        bad = good[:at] + bytes([good[at] ^ flip]) + good[at + 1:]
    scratch.write_bytes(bad)
    tracemalloc.start()
    try:
        READERS[kind](scratch)
    except REFUSALS.get(kind, FormatError):
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < PEAK_BYTES, f"read allocated {peak} bytes"
