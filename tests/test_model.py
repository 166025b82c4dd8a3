"""Architecture contracts: token layout, AdaLN-Zero identities, encoder and
decoder signatures, preset bookkeeping, checkpoint round-trip."""

import struct

import numpy as np
import pytest

from ddtlab.errors import FormatError
from ddtlab.model import (
    CHECKPOINT_MAGIC,
    ConditionBundle,
    DDTModel,
    ModelConfig,
    adaln_modulate,
    load_checkpoint,
    monolithic_parameter_count,
    parameter_count,
    parameter_layout,
    patchify,
    preset,
    rms_norm,
    save_checkpoint,
    unpatchify,
)
from ddtlab import numcore
from ddtlab.model import _rope_tables
from ddtlab.numcore import Tensor, no_grad
from test_numcore import composed_attention

RNG = np.random.default_rng(42)


def composed_forward(model: DDTModel, x, t, y):
    """(z, v) from the composition of elementwise steps that the fused
    nodes replace: silu of the conditioning in every branch,
    shift + (1 + scale) * norm(h), h + gate * branch(...), silu(a) * b,
    and the step-by-step attention. The reference for the model's no_grad
    forward."""
    cfg = model.config
    p = {name: prm.data for name, prm in model.params.items()}

    def lin(v, w, b):
        return (v.reshape(-1, v.shape[-1]) @ p[w] + p[b]).reshape(*v.shape[:-1], -1)

    def silu(v):
        return v * (1.0 / (1.0 + np.exp(-v)))

    def norm(h):
        return rms_norm(Tensor(h)).data

    def attention(u, pre):
        cos, sin = _rope_tables(u.shape[1], cfg.hidden_dim // cfg.heads)
        qkv = lin(u, f"{pre}.qkv.w", f"{pre}.qkv.b")
        out = composed_attention(qkv, cfg.heads, cos, sin)
        return lin(out, f"{pre}.proj.w", f"{pre}.proj.b")

    def mlp(u, pre):
        mid = silu(lin(u, f"{pre}.wg", f"{pre}.bg")) * lin(u, f"{pre}.w1", f"{pre}.b1")
        return lin(mid, f"{pre}.w2", f"{pre}.b2")

    def stack(h, cond, name, layers):
        for i in range(layers):
            pre = f"{name}.b{i}"
            for branch, fn in (("attn", attention), ("mlp", mlp)):
                m = lin(silu(cond), f"{pre}.{branch}_mod.w", f"{pre}.{branch}_mod.b")
                if m.ndim == 2:
                    m = m.reshape(m.shape[0], 1, m.shape[-1])
                shift, scale, gate = np.split(m, 3, axis=-1)
                h = h + gate * fn(shift + (1.0 + scale) * norm(h), f"{pre}.{branch}")
        return h

    t_emb = model._timestep_embedding(t).data
    cond = t_emb + model._label_embedding(y).data
    z = norm(stack(model._tokens(x, "enc").data, cond, "enc", cfg.encoder_layers))
    cond = z + t_emb.reshape(-1, 1, cfg.hidden_dim)
    h = stack(model._tokens(x, "dec").data, cond, "dec", cfg.decoder_layers)
    shift, scale = np.split(lin(silu(cond), "final.mod.w", "final.mod.b"), 2, axis=-1)
    out = lin(shift + (1.0 + scale) * norm(h), "final.proj.w", "final.proj.b")
    return z, unpatchify(out, cfg.patch_size, cfg.channels)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(encoder_layers=2, decoder_layers=1, hidden_dim=8, heads=2,
                patch_size=2, image_size=4, channels=1, num_classes=3,
                alignment_layer=1, teacher_dim=6)
    base.update(overrides)
    return ModelConfig(**base)


class TestPatchify:
    def test_single_patch(self):
        x = np.arange(4.0).reshape(1, 2, 2)
        tok = patchify(x, 2)
        assert tok.shape == (1, 4)
        np.testing.assert_array_equal(tok[0], [0, 1, 2, 3])

    def test_raster_order(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        tok = patchify(x, 2)
        assert tok.shape == (4, 4)
        # token 0 is the top-left patch, token 1 the top-right one
        np.testing.assert_array_equal(tok[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(tok[1], [2, 3, 6, 7])
        np.testing.assert_array_equal(tok[2], [8, 9, 12, 13])

    def test_round_trip_bit_identical(self):
        x = RNG.standard_normal((4, 8, 8))
        back = unpatchify(patchify(x, 2), 2, 4)
        assert np.array_equal(back, x)

    def test_batched_round_trip(self):
        x = RNG.standard_normal((3, 2, 8, 8))
        back = unpatchify(patchify(x, 4), 4, 2)
        assert np.array_equal(back, x)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((1, 5, 5)), 2)


class TestAdaLNModulate:
    def test_zero_init_is_identity(self):
        h = Tensor(RNG.standard_normal((2, 4, 8)))
        cond = Tensor(RNG.standard_normal((2, 8)))
        w = Tensor(np.zeros((8, 24)))
        b = Tensor(np.zeros(24))
        out = adaln_modulate(h, cond, w, b, lambda x: x * 2.0 + 1.0, rms_norm)
        assert np.array_equal(out.data, h.data)

    def test_unit_gate_identity_block(self):
        h = Tensor(RNG.standard_normal((1, 3, 8)))
        cond = Tensor(RNG.standard_normal((1, 8)))
        w = Tensor(np.zeros((8, 24)))
        # bias encodes (shift=0, scale=0, gate=1)
        b = Tensor(np.concatenate([np.zeros(8), np.zeros(8), np.ones(8)]))
        out = adaln_modulate(h, cond, w, b, lambda x: x, rms_norm)
        expected = h.data + rms_norm(h).data
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    def test_random_params_finite_and_differentiable(self):
        h = Tensor(RNG.standard_normal((2, 3, 8)), requires_grad=True)
        cond = Tensor(RNG.standard_normal((2, 8)), requires_grad=True)
        w = Tensor(RNG.standard_normal((8, 24)) * 0.3, requires_grad=True)
        b = Tensor(RNG.standard_normal(24) * 0.3, requires_grad=True)

        def run(ht, ct, wt, bt):
            return (adaln_modulate(ht, ct, wt, bt, lambda x: x * x, rms_norm) ** 2.0).sum()

        loss = run(h, cond, w, b)
        assert np.isfinite(loss.item())
        loss.backward()
        for t, name in ((h, "h"), (cond, "cond"), (w, "w"), (b, "b")):
            assert t.grad is not None, name
            # finite differences on a few coordinates
            flat = t.data.ravel()
            gflat = t.grad.ravel()
            idx = RNG.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in idx:
                eps = 1e-6
                orig = flat[i]
                with no_grad():
                    flat[i] = orig + eps
                    hi = run(Tensor(h.data), Tensor(cond.data), Tensor(w.data), Tensor(b.data)).item()
                    flat[i] = orig - eps
                    lo = run(Tensor(h.data), Tensor(cond.data), Tensor(w.data), Tensor(b.data)).item()
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(gflat[i]), 1e-4)
                assert abs(fd - gflat[i]) / denom < 1e-5, f"{name}[{i}]"

    def test_dim_mismatch_rejected(self):
        h = Tensor(np.zeros((1, 2, 8)))
        cond = Tensor(np.zeros((1, 6)))
        w = Tensor(np.zeros((8, 24)))
        b = Tensor(np.zeros(24))
        with pytest.raises(ValueError):
            adaln_modulate(h, cond, w, b, lambda x: x, rms_norm)


class TestEncoderDecoder:
    def test_encode_deterministic(self):
        model = DDTModel(tiny_config(), seed=3)
        x = RNG.standard_normal((2, 1, 4, 4))
        b1, _ = model.encode(x, 0.4, [1, 2])
        b2, _ = model.encode(x, 0.4, [1, 2])
        assert np.array_equal(b1.z_t.data, b2.z_t.data)

    def test_label_changes_z(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=3)
        # zero-init gates block label influence; nudge them so conditioning flows
        for name, p in model.named_parameters():
            if "mod" in name:
                p.data += 0.05 * np.random.default_rng(1).standard_normal(p.shape)
        x = RNG.standard_normal((1, 1, 4, 4))
        za, _ = model.encode(x, 0.5, 0)
        zb, _ = model.encode(x, 0.5, 1)
        assert not np.array_equal(za.z_t.data, zb.z_t.data)

    def test_fresh_init_z_is_normed_embedding(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=9)
        x = RNG.standard_normal((1, 1, 4, 4))
        bundle, _ = model.encode(x, 0.3, 2)
        tok = patchify(x, cfg.patch_size) @ model.params["enc.embed.w"].data
        tok = tok + model.params["enc.embed.b"].data
        expected = rms_norm(Tensor(tok)).data
        np.testing.assert_array_equal(bundle.z_t.data, expected)

    def test_fresh_init_velocity_exactly_zero(self):
        model = DDTModel(tiny_config(), seed=5)
        x = RNG.standard_normal((2, 1, 4, 4))
        v = model.forward(x, 0.7, [0, 3])
        assert np.array_equal(v.data, np.zeros_like(x))

    def test_decoder_shape_matches_input(self):
        model = DDTModel(tiny_config(), seed=1)
        x = RNG.standard_normal((3, 1, 4, 4))
        v = model.forward(x, 0.25, 1)
        assert v.shape == x.shape

    def test_desk_preset_shape(self):
        cfg = preset("desk")
        model = DDTModel(cfg, seed=0)
        x = RNG.standard_normal((2, 1, 8, 8))
        v = model.forward(x, 0.5, [0, 1])
        assert v.shape == x.shape

    def test_decoder_class_blind(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=7)
        for _, p in model.named_parameters():
            p.data += 0.05 * np.random.default_rng(2).standard_normal(p.shape)
        x = RNG.standard_normal((1, 1, 4, 4))
        ba, _ = model.encode(x, 0.5, 0)
        bb, _ = model.encode(x, 0.5, 1)
        # the label reaches the decoder only through z: a bundle built
        # from a copy of z decodes exactly as the encoder's own bundle
        same_z = ConditionBundle(z_t=Tensor(ba.z_t.data.copy()))
        va = model.decode(x, 0.5, ba)
        assert np.array_equal(model.decode(x, 0.5, same_z).data, va.data)
        assert not np.array_equal(model.decode(x, 0.5, bb).data, va.data)

    def test_rejects_bad_t_and_y(self):
        model = DDTModel(tiny_config(), seed=0)
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError):
            model.encode(x, 1.5, 0)
        with pytest.raises(ValueError):
            model.encode(x, -0.1, 0)
        with pytest.raises(ValueError):
            model.encode(x, 0.5, 99)

    def test_rejects_token_mismatch(self):
        model = DDTModel(tiny_config(), seed=0)
        x = np.zeros((1, 1, 4, 4))
        bundle, _ = model.encode(x, 0.5, 0)
        bad = ConditionBundle(Tensor(np.zeros((1, 3, 8))))
        with pytest.raises(ValueError):
            model.decode(x, 0.5, bad)

    def test_alignment_tokens_from_configured_layer(self):
        cfg = tiny_config(alignment_layer=2)
        model = DDTModel(cfg, seed=4)
        x = RNG.standard_normal((1, 1, 4, 4))
        _, h_align = model.encode(x, 0.2, 1)
        assert h_align.shape == (1, (cfg.image_size // cfg.patch_size) ** 2,
                                 cfg.hidden_dim)

    def test_no_grad_forward_matches_composition(self, monkeypatch):
        # desk sizes at the sampling batch of 64 with the slices the BLAS
        # threads give, then batches forced into row slices (numcore
        # row_parallel): even, uneven, and 256 rows, whose slices of 128
        # would put the narrow output projection under OpenBLAS's
        # small-matrix cutoff while the whole batch is over it
        model = DDTModel(preset("desk"), seed=6)
        rng = np.random.default_rng(12)
        for _, prm in model.named_parameters():
            prm.data += 0.05 * rng.standard_normal(prm.shape)
        assert np.any(model.params["enc.b0.attn_mod.w"].data != 0.0)
        seen = []
        encode_rows = model._encode_rows

        def counted_encode_rows(tok, *rest):
            seen.append(len(tok.data))
            return encode_rows(tok, *rest)

        model._encode_rows = counted_encode_rows
        for rows, slices in ((64, None), (32, 2), (48, 3), (256, 2)):
            if slices is not None:
                monkeypatch.setattr(numcore, "row_slices", lambda n, k=slices: k)
            x = rng.standard_normal((rows, 1, 8, 8))
            t = rng.uniform(0.0, 1.0, rows)
            y = rng.integers(0, 5, rows)
            seen.clear()
            with no_grad():
                bundle, _ = model.encode(x, t, y)
                v = model.decode(x, t, bundle)
            if slices is not None:
                assert seen == [rows // slices] * slices
            z_ref, v_ref = composed_forward(model, x, t, y)
            assert np.array_equal(bundle.z_t.data, z_ref), (rows, slices)
            assert np.array_equal(v.data, v_ref), (rows, slices)

    def test_nfe_counters(self):
        model = DDTModel(tiny_config(), seed=0)
        x = np.zeros((2, 1, 4, 4))
        bundle, _ = model.encode(x, 0.5, 0)
        model.decode(x, 0.5, bundle)
        model.decode(x, 0.6, bundle)
        assert (model.nfe_encoder, model.nfe_decoder) == (1, 2)
        model.reset_counters()
        assert (model.nfe_encoder, model.nfe_decoder) == (0, 0)


class TestTeacher:
    def test_frozen_and_deterministic(self):
        model = DDTModel(tiny_config(), seed=11)
        x = RNG.standard_normal((2, 1, 4, 4))
        f1 = model.teacher_features(x)
        f2 = model.teacher_features(x)
        assert np.array_equal(f1, f2)
        assert f1.shape == (2, 4, 6)

    def test_token_count_matches_encoder(self):
        cfg = preset("desk")
        model = DDTModel(cfg, seed=0)
        x = RNG.standard_normal((1, 1, 8, 8))
        feats = model.teacher_features(x)
        bundle, _ = model.encode(x, 0.5, 0)
        assert feats.shape[1] == bundle.z_t.shape[1]

    def test_teacher_params_not_trainable(self):
        model = DDTModel(tiny_config(), seed=0)
        names = {n for n, _ in model.named_parameters()}
        assert not any(n.startswith("teacher.") for n in names)


class TestPresets:
    def test_published_sizes(self):
        b2 = preset("b2")
        assert (b2.encoder_layers + b2.decoder_layers, b2.hidden_dim, b2.heads) == (12, 768, 12)
        assert (b2.encoder_layers, b2.decoder_layers) == (8, 4)
        l2 = preset("l2")
        assert (l2.encoder_layers + l2.decoder_layers, l2.hidden_dim, l2.heads) == (24, 1024, 16)
        assert (l2.encoder_layers, l2.decoder_layers) == (20, 4)
        xl2 = preset("xl2")
        assert (xl2.encoder_layers + xl2.decoder_layers, xl2.hidden_dim, xl2.heads) == (28, 1152, 16)
        assert (xl2.encoder_layers, xl2.decoder_layers) == (22, 6)

    def test_split_matches_monolithic_within_5pct(self):
        for name in ("desk", "b2", "l2", "xl2"):
            cfg = preset(name)
            split = parameter_count(cfg)
            mono = monolithic_parameter_count(cfg)
            assert abs(split - mono) / mono < 0.05, name

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("m2")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(hidden_dim=9)  # not divisible by heads
        with pytest.raises(ValueError):
            tiny_config(image_size=5)
        with pytest.raises(ValueError):
            tiny_config(alignment_layer=7)
        with pytest.raises(ValueError):
            tiny_config(hidden_dim=6)  # odd per-head dimension: no RoPE pairs
        with pytest.raises(ValueError):
            tiny_config(encoder_layers=0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=13)
        path = tmp_path / "m.ckpt"
        extra = {"opt.step": np.array(7.0)}
        save_checkpoint(path, cfg, {**model.state_arrays(), **extra})
        cfg2, arrays = load_checkpoint(path)
        assert cfg2 == cfg
        restored = DDTModel.from_arrays(cfg2, arrays)
        for name, p in model.named_parameters():
            assert np.array_equal(restored.params[name].data, p.data), name
        for name, arr in model.teacher.items():
            assert np.array_equal(restored.teacher[name], arr), name
        assert arrays["opt.step"] == 7.0

    def test_restored_model_forward_identical(self, tmp_path):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=21)
        for _, p in model.named_parameters():
            p.data += 0.03 * np.random.default_rng(5).standard_normal(p.shape)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, model.state_arrays())
        cfg2, arrays = load_checkpoint(path)
        restored = DDTModel.from_arrays(cfg2, arrays)
        x = RNG.standard_normal((1, 1, 4, 4))
        assert np.array_equal(model.forward(x, 0.3, 1).data,
                              restored.forward(x, 0.3, 1).data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, model.state_arrays())
        blob = path.read_bytes()
        (tmp_path / "trunc.ckpt").write_bytes(blob[: len(blob) - 9])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "trunc.ckpt")

    @pytest.mark.parametrize("bad", [b"hidden_dim=6x", b"heads=four", b"hidden_dim=9",
                                     b"block_style=baseline"])
    def test_bad_header_value_rejected(self, tmp_path, bad):
        cfg = tiny_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, DDTModel(cfg, seed=1).state_arrays())
        blob = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4
        (header_len,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
        field = bad.split(b"=")[0] + b"="
        lines = [bad if line.startswith(field) else line
                 for line in blob[start:start + header_len].split(b"\n")]
        header = b"\n".join(lines)
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
                         + blob[start + header_len:])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", ["header-not-utf8", "name-not-utf8", "dims-wrap",
                                      "zero-dim-overflow"])
    def test_corrupt_bytes_rejected(self, tmp_path, case):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_config(), {})
        blob = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4

        def block(name, dims, data=b""):
            return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(dims))
                    + struct.pack(f"<{len(dims)}I", *dims) + data)

        path.write_bytes({
            "header-not-utf8": blob[:start] + b"\xff" + blob[start + 1:],
            "name-not-utf8": blob + block(b"\xffw", (1,), bytes(8)),
            # 65536**4 = 2**64 elements, which an int64 product wraps to 0
            "dims-wrap": blob + block(b"w", (65536,) * 4),
            # zero elements, so no data to read, but numpy cannot index a 2**93 shape
            "zero-dim-overflow": blob + block(b"w", (0,) + (2**31,) * 3),
        }[case])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_missing_param_rejected(self, tmp_path):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=1)
        arrays = model.state_arrays()
        arrays.pop("final.proj.w")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, arrays)
        cfg2, loaded = load_checkpoint(path)
        with pytest.raises(FormatError):
            DDTModel.from_arrays(cfg2, loaded)


class TestInitScheme:
    def test_same_seed_same_params(self):
        a = DDTModel(tiny_config(), seed=99)
        b = DDTModel(tiny_config(), seed=99)
        for name, p in a.named_parameters():
            assert np.array_equal(p.data, b.params[name].data), name

    def test_different_seed_differs(self):
        a = DDTModel(tiny_config(), seed=1)
        b = DDTModel(tiny_config(), seed=2)
        assert not np.array_equal(a.params["enc.embed.w"].data,
                                  b.params["enc.embed.w"].data)

    def test_all_gates_zero_at_init(self):
        model = DDTModel(tiny_config(), seed=3)
        for name, p in model.named_parameters():
            if "mod" in name or name.startswith("final.proj"):
                assert np.all(p.data == 0.0), name

    def test_layout_covers_params_exactly(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=0)
        layout_names = [n for n, _ in parameter_layout(cfg)]
        assert layout_names == list(model.params.keys())


class TestModelGradients:
    def test_end_to_end_gradcheck(self):
        cfg = tiny_config()
        model = DDTModel(cfg, seed=17)
        nudge = np.random.default_rng(8)
        for _, p in model.named_parameters():
            p.data += 0.05 * nudge.standard_normal(p.shape)
        x = np.random.default_rng(9).standard_normal((2, 1, 4, 4))

        def loss_value():
            v = model.forward(x, 0.4, [1, 2])
            return (v * v).sum()

        loss = loss_value()
        loss.backward()
        checked = 0
        pick = np.random.default_rng(10)
        for name, p in model.named_parameters():
            if p.grad is None:
                continue
            flat, gflat = p.data.ravel(), p.grad.ravel()
            for i in pick.choice(flat.size, size=min(2, flat.size), replace=False):
                eps = 1e-6
                orig = flat[i]
                with no_grad():
                    flat[i] = orig + eps
                    hi = loss_value().item()
                    flat[i] = orig - eps
                    lo = loss_value().item()
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(gflat[i]), 1e-3)
                assert abs(fd - gflat[i]) / denom < 1e-4, f"{name}[{i}]"
                checked += 1
        assert checked > 40
