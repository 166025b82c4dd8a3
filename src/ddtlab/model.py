"""Decoupled diffusion transformer: condition encoder plus velocity decoder.

The encoder consumes (x_t, t, y) and produces a per-token self-condition
feature z_t. The decoder consumes (x_t, t, z_t) only; the class label never
reaches it, so any class information must travel through z_t. Both stacks
are built from the paper's pre-norm transformer block: RMSNorm, a SwiGLU
feed-forward, and rotary position embeddings on q and k. Each residual
branch is modulated by AdaLN-Zero: a zero-initialized linear maps the
conditioning vector to (shift, scale, gate), which makes every block the
exact identity at initialization, and a zero-initialized output projection
makes the full model emit v == 0 on the first forward pass.

The alignment teacher is a frozen random patch-convolution-plus-projection
network standing in for a large pretrained representation model; it gives
the encoder a stable per-token regression target without external weights.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError
from .files import atomic_write
from .numcore import (
    Tensor,
    gated_residual,
    linear,
    modulate,
    rms_norm,
    self_attention,
    silu,
    swiglu,
)
from .rng import substream

__all__ = [
    "ModelConfig",
    "DDTModel",
    "PRESETS",
    "preset",
    "patchify",
    "unpatchify",
    "adaln_modulate",
    "rms_norm",
    "parameter_layout",
    "teacher_layout",
    "parameter_count",
    "monolithic_parameter_count",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]


@dataclass(frozen=True)
class ModelConfig:
    encoder_layers: int
    decoder_layers: int
    hidden_dim: int
    heads: int
    patch_size: int
    image_size: int
    channels: int
    num_classes: int
    alignment_layer: int
    teacher_dim: int = 32

    def __post_init__(self):
        for field in ("encoder_layers", "decoder_layers", "hidden_dim", "heads",
                      "patch_size", "image_size", "channels", "num_classes",
                      "teacher_dim"):
            if int(getattr(self, field)) < 1:
                raise ValueError(f"{field} must be a positive int")
        if self.hidden_dim % self.heads != 0:
            raise ValueError("hidden_dim must be divisible by heads")
        if self.hidden_dim % 2 != 0:
            raise ValueError("hidden_dim must be even (sinusoidal embedding)")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if not 1 <= self.alignment_layer <= self.encoder_layers:
            raise ValueError("alignment_layer must lie in [1, encoder_layers]")
        if (self.hidden_dim // self.heads) % 2:
            raise ValueError("hidden_dim // heads must be even (rotary embedding)")

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size

    @property
    def null_class(self) -> int:
        return self.num_classes


# ModelConfig is frozen, so one instance per name can be shared
PRESETS = {
    "desk": ModelConfig(encoder_layers=4, decoder_layers=2, hidden_dim=64, heads=4,
                        patch_size=2, image_size=8, channels=1, num_classes=4,
                        alignment_layer=2, teacher_dim=32),
    "b2": ModelConfig(encoder_layers=8, decoder_layers=4, hidden_dim=768, heads=12,
                      patch_size=2, image_size=32, channels=4, num_classes=1000,
                      alignment_layer=4, teacher_dim=768),
    "l2": ModelConfig(encoder_layers=20, decoder_layers=4, hidden_dim=1024, heads=16,
                      patch_size=2, image_size=32, channels=4, num_classes=1000,
                      alignment_layer=10, teacher_dim=768),
    "xl2": ModelConfig(encoder_layers=22, decoder_layers=6, hidden_dim=1152, heads=16,
                       patch_size=2, image_size=32, channels=4, num_classes=1000,
                       alignment_layer=11, teacher_dim=768),
}


def preset(name: str) -> ModelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


# ---------------------------------------------------------------------------
# token layout
# ---------------------------------------------------------------------------


def patchify(x, patch_size: int):
    """[B, C, H, W] -> [B, T, C*p*p], raster order."""
    tensor_in = isinstance(x, Tensor)
    t = x if tensor_in else Tensor(x)
    p = patch_size
    if t.ndim != 4:
        raise ValueError(f"patchify expects rank 4, got {t.ndim}")
    b, c, h, w = t.shape
    if h % p or w % p:
        raise ValueError(f"spatial dims {h}x{w} not divisible by patch {p}")
    out = (t.reshape(b, c, h // p, p, w // p, p)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(b, (h // p) * (w // p), c * p * p))
    return out if tensor_in else out.data


def unpatchify(tokens, patch_size: int, channels: int):
    """[B, T, C*p*p] -> [B, C, H, W], the inverse of patchify; the token
    count must be a perfect square grid."""
    tensor_in = isinstance(tokens, Tensor)
    t = tokens if tensor_in else Tensor(tokens)
    p, c = patch_size, channels
    if t.ndim != 3:
        raise ValueError(f"unpatchify expects rank 3, got {t.ndim}")
    b, n, d = t.shape
    g = math.isqrt(n)
    if g * g != n or d != c * p * p:
        raise ValueError(f"cannot unpatchify shape {t.shape}")
    out = (t.reshape(b, g, g, c, p, p)
            .transpose(0, 3, 1, 4, 2, 5)
            .reshape(b, c, g * p, g * p))
    return out if tensor_in else out.data


# ---------------------------------------------------------------------------
# normalization and modulation
# ---------------------------------------------------------------------------

def adaln_modulate(h: Tensor, cond: Tensor, weight: Tensor, bias: Tensor,
                   branch) -> Tensor:
    """One gated residual branch:

        h + gate * branch(shift + (1 + scale) * rms_norm(h))

    (shift, scale, gate) come from a linear on cond; with that linear
    zero-initialized the gate is zero and the output equals h exactly.
    cond arrives already activated: the stacks compute silu of their
    conditioning once and hand it to every block. It may be per-sample
    [B, D] or [B, 1, D], or per-token [B, T, D].
    """
    if weight.shape[0] != (cond.shape[-1] if cond.ndim else 0):
        raise ValueError(f"conditioning dim {cond.shape} does not match "
                         f"modulation weight {weight.shape}")
    m = linear(cond, weight, bias)
    if m.ndim == h.ndim - 1:
        m = m.reshape(m.shape[0], 1, m.shape[-1])
    shift, scale, gate = m.chunk(3, axis=-1)
    return gated_residual(h, gate, branch(modulate(rms_norm(h), shift, scale)))


# ---------------------------------------------------------------------------
# parameter layout (shared by init, counting, and checkpoint validation)
# ---------------------------------------------------------------------------


def _block_shapes(prefix: str, hidden: int) -> list[tuple[str, tuple[int, ...]]]:
    h = hidden
    f = (8 * h) // 3
    return [
        (f"{prefix}.attn.qkv.w", (h, 3 * h)),
        (f"{prefix}.attn.qkv.b", (3 * h,)),
        (f"{prefix}.attn.proj.w", (h, h)),
        (f"{prefix}.attn.proj.b", (h,)),
        (f"{prefix}.attn_mod.w", (h, 3 * h)),
        (f"{prefix}.attn_mod.b", (3 * h,)),
        (f"{prefix}.mlp_mod.w", (h, 3 * h)),
        (f"{prefix}.mlp_mod.b", (3 * h,)),
        (f"{prefix}.mlp.wg", (h, f)),
        (f"{prefix}.mlp.bg", (f,)),
        (f"{prefix}.mlp.w1", (h, f)),
        (f"{prefix}.mlp.b1", (f,)),
        (f"{prefix}.mlp.w2", (f, h)),
        (f"{prefix}.mlp.b2", (h,)),
    ]


def _stack_shapes(name: str, layers: int, cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    h = cfg.hidden_dim
    shapes = [(f"{name}.embed.w", (cfg.patch_dim, h)), (f"{name}.embed.b", (h,))]
    for i in range(layers):
        shapes += _block_shapes(f"{name}.b{i}", h)
    return shapes


def parameter_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of every trainable parameter, in a fixed order."""
    h = cfg.hidden_dim
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("t_mlp.w1", (h, h)),
        ("t_mlp.b1", (h,)),
        ("t_mlp.w2", (h, h)),
        ("t_mlp.b2", (h,)),
        ("y_embed.table", (cfg.num_classes + 1, h)),
    ]
    shapes += _stack_shapes("enc", cfg.encoder_layers, cfg)
    shapes += _stack_shapes("dec", cfg.decoder_layers, cfg)
    shapes += [
        ("final.mod.w", (h, 2 * h)),
        ("final.mod.b", (2 * h,)),
        ("final.proj.w", (h, cfg.patch_dim)),
        ("final.proj.b", (cfg.patch_dim,)),
        ("halign.w1", (h, h)),
        ("halign.b1", (h,)),
        ("halign.w2", (h, cfg.teacher_dim)),
        ("halign.b2", (cfg.teacher_dim,)),
    ]
    return shapes


def teacher_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    d = cfg.teacher_dim
    return [
        ("teacher.conv.w", (cfg.patch_dim, d)),
        ("teacher.conv.b", (d,)),
        ("teacher.proj.w", (d, d)),
        ("teacher.proj.b", (d,)),
    ]


_ZERO_INIT_SUFFIXES = ("attn_mod.w", "attn_mod.b", "mlp_mod.w", "mlp_mod.b",
                       "final.mod.w", "final.mod.b", "final.proj.w", "final.proj.b")


def parameter_count(cfg: ModelConfig) -> int:
    """Trainable parameters (teacher excluded: it is frozen and not part
    of the optimized model)."""
    return sum(int(np.prod(s)) for _, s in parameter_layout(cfg))


def monolithic_parameter_count(cfg: ModelConfig) -> int:
    """Parameter count of a single-stack transformer of the same width and
    total depth: one patch embedding, encoder_layers + decoder_layers
    identical blocks, one output head, no alignment head. The reference
    the split architecture is compared against."""
    depth = cfg.encoder_layers + cfg.decoder_layers
    h = cfg.hidden_dim
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("t_mlp.w1", (h, h)), ("t_mlp.b1", (h,)),
        ("t_mlp.w2", (h, h)), ("t_mlp.b2", (h,)),
        ("y_embed.table", (cfg.num_classes + 1, h)),
        ("embed.w", (cfg.patch_dim, h)), ("embed.b", (h,)),
    ]
    for i in range(depth):
        shapes += _block_shapes(f"b{i}", h)
    shapes += [
        ("final.mod.w", (h, 2 * h)), ("final.mod.b", (2 * h,)),
        ("final.proj.w", (h, cfg.patch_dim)), ("final.proj.b", (cfg.patch_dim,)),
    ]
    return sum(int(np.prod(s)) for _, s in shapes)


# ---------------------------------------------------------------------------
# positional tables (computed, not stored)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _rope_tables(num_tokens: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    inv_freq = 10000.0 ** (-np.arange(half) / half)
    angles = np.arange(num_tokens)[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def _sinusoidal(t_vec: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of continuous t in [0,1], scaled so nearby
    timesteps stay distinguishable."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = (t_vec * 1000.0)[:, None] * freqs[None, :]
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class DDTModel:
    """Parameter store plus pure forward functions.

    Weights live in `params` (name -> Tensor, requires_grad). The frozen
    teacher lives in `teacher` (name -> ndarray) and never enters any
    gradient computation. nfe_encoder / nfe_decoder count forward calls,
    one per batched invocation; a call whose batch ran as row slices on
    copies (with_new_leaves, or pickled to parallel_calls' worker) counts
    once (add_slice_counts).
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        for name, shape in parameter_layout(config):
            self.params[name] = Tensor(self._init_array(name, shape, seed),
                                       requires_grad=True)
        self.teacher: dict[str, np.ndarray] = {
            name: substream(seed, f"init/{name}").normal(0.0, 0.5, shape)
            for name, shape in teacher_layout(config)
        }
        self.nfe_encoder = 0
        self.nfe_decoder = 0

    @staticmethod
    def _init_array(name: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
        if name.endswith(_ZERO_INIT_SUFFIXES):
            return np.zeros(shape)
        if name.endswith(".b") or name.endswith((".b1", ".b2", ".bg")):
            return np.zeros(shape)
        rng = substream(seed, f"init/{name}")
        if name.endswith((".table", "embed.w")):
            return rng.normal(0.0, 0.02, shape)
        fan_in, fan_out = shape[0], shape[-1]
        return rng.normal(0.0, math.sqrt(2.0 / (fan_in + fan_out)), shape)

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "DDTModel":
        """The model whose parameters and teacher weights `arrays` holds
        under their layout names; any other key is ignored."""

        def array(name, shape):
            if name not in arrays:
                raise FormatError(f"checkpoint missing parameter {name!r}")
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise FormatError(f"parameter {name!r} has shape {arr.shape}, "
                                  f"expected {shape}")
            return arr

        model = cls.__new__(cls)
        model.config = config
        model.params = {name: Tensor(array(name, shape), requires_grad=True)
                        for name, shape in parameter_layout(config)}
        model.teacher = {name: array(name, shape)
                         for name, shape in teacher_layout(config)}
        model.nfe_encoder = 0
        model.nfe_decoder = 0
        return model

    # -- bookkeeping -----------------------------------------------------------

    def named_parameters(self):
        return self.params.items()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def __getstate__(self) -> dict:
        # a model crosses a copy or a pickle as its config and arrays
        return {"config": self.config, "teacher": self.teacher,
                "params": {name: p.data for name, p in self.params.items()}}

    def __setstate__(self, state: dict) -> None:
        self.config, self.teacher = state["config"], state["teacher"]
        self.params = {name: Tensor(data, requires_grad=True)
                       for name, data in state["params"].items()}
        self.reset_counters()

    def with_new_leaves(self) -> "DDTModel":
        """This model with fresh parameter leaves over the same arrays and
        its counters at zero: a graph built on it fills the new leaves'
        grad, never this model's, and an in-place update of this model's
        arrays is seen by both. A pickled model arrives the same way."""
        return copy.copy(self)

    def add_slice_counts(self, counts: tuple[int, int]) -> None:
        """Count a call that ran as row slices once, given one slice's
        (nfe_encoder, nfe_decoder): every slice makes the same calls."""
        self.nfe_encoder += counts[0]
        self.nfe_decoder += counts[1]

    def reset_counters(self) -> None:
        self.nfe_encoder = 0
        self.nfe_decoder = 0

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: p.data for name, p in self.params.items()}
        out.update(self.teacher)
        return out

    # -- small layers ------------------------------------------------------------

    def _linear(self, x: Tensor, prefix: str, w: str = "w", b: str = "b") -> Tensor:
        return linear(x, self.params[f"{prefix}.{w}"], self.params[f"{prefix}.{b}"])

    def _timestep_embedding(self, t_vec: np.ndarray) -> Tensor:
        feats = Tensor(_sinusoidal(t_vec, self.config.hidden_dim))
        h = silu(self._linear(feats, "t_mlp", "w1", "b1"))
        return self._linear(h, "t_mlp", "w2", "b2")

    def _label_embedding(self, y_vec: np.ndarray) -> Tensor:
        return self.params["y_embed.table"].take_rows(y_vec)

    def _attention(self, h: Tensor, prefix: str) -> Tensor:
        cfg = self.config
        qkv = self._linear(h, f"{prefix}.attn.qkv")
        cos, sin = _rope_tables(h.shape[1], cfg.hidden_dim // cfg.heads)
        out = self_attention(qkv, cfg.heads, cos, sin)
        return self._linear(out, f"{prefix}.attn.proj")

    def _mlp(self, h: Tensor, prefix: str) -> Tensor:
        mlp = f"{prefix}.mlp"
        mid = swiglu(self._linear(h, mlp, "wg", "bg"), self._linear(h, mlp, "w1", "b1"))
        return self._linear(mid, mlp, "w2", "b2")

    def _block(self, h: Tensor, cond: Tensor, prefix: str) -> Tensor:
        p = self.params
        h = adaln_modulate(h, cond, p[f"{prefix}.attn_mod.w"], p[f"{prefix}.attn_mod.b"],
                           lambda x: self._attention(x, prefix))
        h = adaln_modulate(h, cond, p[f"{prefix}.mlp_mod.w"], p[f"{prefix}.mlp_mod.b"],
                           lambda x: self._mlp(x, prefix))
        return h

    def _tokens(self, x: np.ndarray, stack: str) -> Tensor:
        cfg = self.config
        xt = Tensor(x)
        if xt.shape[1:] != (cfg.channels, cfg.image_size, cfg.image_size):
            raise ValueError(f"input shape {xt.shape} is not [B, {cfg.channels}, "
                             f"{cfg.image_size}, {cfg.image_size}]")
        tok = patchify(xt, cfg.patch_size)
        # a batched 3-D matmul, not linear(): at zero init z must equal
        # numpy's tokens @ W + b bit for bit, and a flattened GEMM need not
        return tok @ self.params[f"{stack}.embed.w"] + self.params[f"{stack}.embed.b"]

    @staticmethod
    def _row_times(t, batch: int) -> np.ndarray:
        """t (a scalar or one per row) as one float64 per row, in [0, 1]."""
        t_vec = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.float64)),
                                (batch,)).copy()
        if not np.all((t_vec >= 0.0) & (t_vec <= 1.0)):  # NaN fails too
            raise ValueError(f"t must lie in [0,1], got range "
                             f"[{t_vec.min()}, {t_vec.max()}]")
        return t_vec

    # -- public forward passes ------------------------------------------------------
    # x_t is a [B, C, H, W] array; z is the [B, T, D] Tensor encode returns

    def encode(self, x_t: np.ndarray, t, y) -> tuple[Tensor, Tensor]:
        """(z, h_align): z_t = Encoder(x_t, t, y) and the alignment-layer
        tokens."""
        cfg = self.config
        tok = self._tokens(x_t, "enc")
        batch = tok.shape[0]
        t_vec = self._row_times(t, batch)
        y_vec = np.broadcast_to(np.atleast_1d(np.asarray(y, dtype=np.int64)),
                                (batch,)).copy()
        if np.any(y_vec < 0) or np.any(y_vec > cfg.null_class):
            raise ValueError(f"class index out of range [0, {cfg.null_class}]")
        t_emb = self._timestep_embedding(t_vec)
        y_emb = self._label_embedding(y_vec)
        # activated once for every block, and [B, 1, D] so that each
        # block's modulation broadcasts over the tokens without a reshape
        cond = silu(t_emb + y_emb).reshape(batch, 1, cfg.hidden_dim)
        h = tok
        h_align = None
        for i in range(cfg.encoder_layers):
            h = self._block(h, cond, f"enc.b{i}")
            if i + 1 == cfg.alignment_layer:
                h_align = h
        z = rms_norm(h)
        self.nfe_encoder += 1
        return z, h_align

    def decode(self, x_t: np.ndarray, t, z: Tensor) -> Tensor:
        """v_t = Decoder(x_t, t, z_t). No class label enters here; the
        current t is re-embedded, so a z reused at a later step shares
        exactly z and nothing else."""
        cfg = self.config
        tok = self._tokens(x_t, "dec")
        if z.shape != tok.shape:
            raise ValueError(f"z shape {z.shape} does not match token "
                             f"stream {tok.shape}")
        batch = tok.shape[0]
        t_emb = self._timestep_embedding(self._row_times(t, batch))
        cond = silu(z + t_emb.reshape(batch, 1, cfg.hidden_dim))
        h = tok
        for i in range(cfg.decoder_layers):
            h = self._block(h, cond, f"dec.b{i}")
        m = self._linear(cond, "final.mod")
        shift, scale = m.chunk(2, axis=-1)
        h = modulate(rms_norm(h), shift, scale)
        out = self._linear(h, "final.proj")
        self.nfe_decoder += 1
        return unpatchify(out, cfg.patch_size, cfg.channels)

    def forward(self, x_t: np.ndarray, t, y) -> Tensor:
        z, _ = self.encode(x_t, t, y)
        return self.decode(x_t, t, z)

    def teacher_features(self, x_clean: np.ndarray) -> np.ndarray:
        """Frozen random features of the clean [B, C, H, W] sample: a patch
        convolution (kernel == stride == patch size), tanh, and a linear
        projection."""
        tok = patchify(np.asarray(x_clean, float), self.config.patch_size)
        tw = self.teacher
        hid = np.tanh(tok @ tw["teacher.conv.w"] + tw["teacher.conv.b"])
        return hid @ tw["teacher.proj.w"] + tw["teacher.proj.b"]

    def project_alignment(self, h_align: Tensor) -> Tensor:
        """Trainable head h_phi mapping encoder tokens to teacher space."""
        mid = silu(self._linear(h_align, "halign", "w1", "b1"))
        return self._linear(mid, "halign", "w2", "b2")


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DDTCKPT1"

_CONFIG_FIELDS = ("encoder_layers", "decoder_layers", "hidden_dim", "heads",
                  "patch_size", "image_size", "channels", "num_classes",
                  "alignment_layer", "teacher_dim")

# Every block is the paper's (RMSNorm, SwiGLU, RoPE). The header still
# names that style, on the line before teacher_dim, so the format is
# unchanged; a file that names any other style is refused.
_STYLE_KEY, _STYLE = "block_style", "improved"


def save_checkpoint(path, config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
    """Magic, length-prefixed key=value header, then named float64 blocks.
    Temp-and-rename, so a save that fails leaves any earlier file whole."""
    header_lines = [f"{field}={getattr(config, field)}" for field in _CONFIG_FIELDS]
    header_lines.insert(_CONFIG_FIELDS.index("teacher_dim"), f"{_STYLE_KEY}={_STYLE}")
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name, arr in arrays.items():
            data = np.ascontiguousarray(arr, dtype=np.float64)
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.astype("<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    """n bytes or FormatError. A length read from a corrupt file is checked
    against what the file has left before anything is read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"checkpoint truncated: {what} needs {n} bytes, "
                          f"{left} left")
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"checkpoint truncated while reading {what}")
    return buf


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint {what} is not UTF-8: {exc}") from exc


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = _decode(_read_exact(fh, header_len, "header"), "header")
        fields: dict[str, str] = {}
        for line in header.splitlines():
            if not line.strip():
                continue
            if "=" not in line:
                raise FormatError(f"malformed header line {line!r}")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        style = fields.get(_STYLE_KEY)
        if style != _STYLE:
            raise FormatError(f"checkpoint block style {style!r} is not {_STYLE!r}")
        missing = [f for f in _CONFIG_FIELDS if f not in fields]
        if missing:
            raise FormatError(f"checkpoint header missing fields {missing}")
        try:
            config = ModelConfig(**{field: int(fields[field]) for field in _CONFIG_FIELDS})
        except ValueError as exc:
            raise FormatError(f"checkpoint header invalid: {exc}") from exc
        arrays: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise FormatError("checkpoint truncated in block header")
            (name_len,) = struct.unpack("<I", head)
            name = _decode(_read_exact(fh, name_len, "block name"), "block name")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"{name} rank"))
            if rank > 16:
                raise FormatError(f"block {name!r} has implausible rank {rank}")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{name} dims"))
            # a Python int product: numpy's int64 one wraps for large dims
            raw = _read_exact(fh, 8 * math.prod(dims), f"{name} data")
            try:
                arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
            except ValueError as exc:  # a zero dim beside dims numpy cannot index
                raise FormatError(f"block {name!r} has unusable dims {dims}: {exc}") from exc
    return config, arrays
