"""The channel-dependency selective-scan forecaster.

Input windows are [batch, lookback, channels]. Each channel's history is
embedded into one token, so the token axis is the channel axis; stacked
layers then run a directional encoder over those tokens (returning both view
outputs for the order-consistency penalty), add a residual around that
sublayer only, and refine tokens with a LayerNorm/MLP/LayerNorm stage (three
fused ops, ``autodiff.layer_norm`` and ``autodiff.gelu_mlp``, that keep only
what their backward reads: two [..., 1] arrays per LayerNorm and the MLP's
pre-activation). The encoder's blocks are fused ops around the scan too
(see ``blocks``). A linear head maps each channel token to its horizon.

Instance normalization (per window, per channel) is applied on the way in
and inverted on the way out, so forecasts are always in input units. The
side heads (`latent_for_ccm`, `reconstruct`) serve the pretraining
objectives and leave the forecast head untouched.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import (
    Tensor,
    gelu_mlp,
    layer_norm,
    matmul,
    mul,
    sub,
    swapaxes,
)
from .blocks import DIRECTIONS, ORDER_MODES, DirectionalEncoderCD
from .losses import REG_METRICS
from .ssm import DISCRETIZATIONS, uniform_weight

CHECKPOINT_FORMAT = 1


@dataclass
class ModelConfig:
    lookback: int
    horizon: int
    n_channels: int
    d_model: int = 64
    n_layers: int = 1
    reg_weight: float = 0.0
    reg_metric: str = "l2"
    direction: str = "uni"
    conv: bool = False
    conv_kernel: int = 4
    mlp_hidden: int | None = None
    order_mode: str = "fixed-reverse"
    d_state: int = 16
    dt_rank: int | None = None
    expand: int = 2
    discretization: str = "euler-b"
    two_view: bool = True
    instance_norm: bool = True

    def __post_init__(self):
        optional = ("dt_rank", "mlp_hidden")  # None resolves from d_model
        required = ("lookback", "horizon", "n_channels", "d_model", "n_layers", "expand",
                    "d_state", "conv_kernel")
        for name in required + optional:
            v = getattr(self, name)
            if v is None and name in optional:
                continue
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        for name in ("conv", "two_view", "instance_norm"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        w = self.reg_weight
        if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0.0 <= w < math.inf:
            raise ValueError(f"reg_weight must be a finite number >= 0, got {w!r}")
        if self.reg_metric not in REG_METRICS:
            raise ValueError(f"reg_metric must be one of {REG_METRICS}, got {self.reg_metric!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.direction == "bi" and not self.two_view:
            raise ValueError(
                "direction='bi' needs two_view=True: with one view the second block never runs"
            )
        if self.order_mode not in ORDER_MODES:
            raise ValueError(f"order_mode must be one of {ORDER_MODES}, got {self.order_mode!r}")
        if self.discretization not in DISCRETIZATIONS:
            raise ValueError(
                f"discretization must be one of {DISCRETIZATIONS}, got {self.discretization!r}"
            )

    @property
    def d_inner(self) -> int:
        return self.expand * self.d_model

    @property
    def resolved_dt_rank(self) -> int:
        if self.dt_rank is not None:
            return self.dt_rank
        return max(1, math.ceil(self.d_model / 16))

    @property
    def resolved_mlp_hidden(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else 2 * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)


def _bias(dim: int) -> Tensor:
    return Tensor(np.zeros(dim), requires_grad=True)


def _ln_params(dim: int) -> tuple[Tensor, Tensor]:
    return Tensor(np.ones(dim), requires_grad=True), _bias(dim)


class _Layer:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d, hidden = cfg.d_model, cfg.resolved_mlp_hidden
        self.encoder = DirectionalEncoderCD(cfg, rng)
        self.g1, self.c1 = _ln_params(d)
        self.w_mlp1 = uniform_weight(d, hidden, rng)
        self.b_mlp1 = _bias(hidden)
        self.w_mlp2 = uniform_weight(hidden, d, rng)
        self.b_mlp2 = _bias(d)
        self.g2, self.c2 = _ln_params(d)

    def param_items(self) -> list[tuple[str, Tensor]]:
        items = [(f"enc.{n}", t) for n, t in self.encoder.param_items()]
        items += [
            ("ln1.gain", self.g1),
            ("ln1.bias", self.c1),
            ("mlp.w1", self.w_mlp1),
            ("mlp.b1", self.b_mlp1),
            ("mlp.w2", self.w_mlp2),
            ("mlp.b2", self.b_mlp2),
            ("ln2.gain", self.g2),
            ("ln2.bias", self.c2),
        ]
        return items


class SORMambaModel:
    """Forecaster over multivariate windows with channel tokens."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        cfg = config
        self.w_embed = uniform_weight(cfg.lookback, cfg.d_model, rng)
        self.b_embed = _bias(cfg.d_model)
        self.layers = [_Layer(cfg, rng) for _ in range(cfg.n_layers)]
        self.w_head = uniform_weight(cfg.d_model, cfg.horizon, rng)
        self.b_head = _bias(cfg.horizon)
        self.w_ccm = uniform_weight(cfg.d_model, cfg.d_model, rng)
        self.b_ccm = _bias(cfg.d_model)
        self.w_rec = uniform_weight(cfg.d_model, cfg.lookback, rng)
        self.b_rec = _bias(cfg.lookback)

    # ---- parameter registry -------------------------------------------

    def param_items(self) -> list[tuple[str, Tensor]]:
        items = [("embed.w", self.w_embed), ("embed.b", self.b_embed)]
        for i, layer in enumerate(self.layers):
            items += [(f"layer{i}.{n}", t) for n, t in layer.param_items()]
        items += [
            ("head.w", self.w_head),
            ("head.b", self.b_head),
            ("ccm.w", self.w_ccm),
            ("ccm.b", self.b_ccm),
            ("rec.w", self.w_rec),
            ("rec.b", self.b_rec),
        ]
        return items

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.param_items()]

    def named_parameters(self, exclude_prefixes: tuple[str, ...] = ()) -> list[tuple[str, Tensor]]:
        return [
            (n, t)
            for n, t in self.param_items()
            if not any(n.startswith(p) for p in exclude_prefixes)
        ]

    # ---- forward pieces ------------------------------------------------

    def _check_input(self, x: Tensor) -> None:
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.lookback or x.shape[2] != cfg.n_channels:
            raise ValueError(
                f"expected input [batch, {cfg.lookback}, {cfg.n_channels}], got {x.shape}"
            )

    def normalize_input(self, x: Tensor):
        """Per-window, per-channel standardization. Returns (xn, stats).

        Stats are plain arrays computed from the data; inputs are data, not
        parameters, so no gradient flows through them.
        """
        if not self.config.instance_norm:
            return x, None
        mu = x.data.mean(axis=1, keepdims=True)
        sd = x.data.std(axis=1, keepdims=True) + 1e-5
        xn = mul(sub(x, Tensor(mu)), Tensor(1.0 / sd))
        return xn, (mu, sd)

    def _tokens(self, xn: Tensor) -> Tensor:
        # [B, L, C] -> [B, C, L] -> [B, C, D]
        return matmul(swapaxes(xn, 1, 2), self.w_embed) + self.b_embed

    def _encode_tokens(self, xn: Tensor, rng: np.random.Generator | None):
        z = self._tokens(xn)
        pairs: list[tuple[Tensor, Tensor]] = []
        for layer in self.layers:
            if self.config.two_view:
                z1, z2 = layer.encoder.forward_pair(z, rng)
                pairs.append((z1, z2))
                z = (z1 + z2) + z
            else:
                z = layer.encoder.blocks[0](z) + z
            h = layer_norm(z, layer.g1, layer.c1)
            h = gelu_mlp(h, layer.w_mlp1, layer.b_mlp1, layer.w_mlp2, layer.b_mlp2)
            z = layer_norm(h, layer.g2, layer.c2)
        return z, pairs

    def encode(self, x: Tensor, rng: np.random.Generator | None = None):
        """[B, L, C] -> (channel tokens [B, C, D], per-layer view pairs)."""
        self._check_input(x)
        xn, _ = self.normalize_input(x)
        return self._encode_tokens(xn, rng)

    def _through_head(
        self, x: Tensor, rng: np.random.Generator | None, w: Tensor, b: Tensor
    ):
        """Encode ``x`` [B, L, C], map each channel token through ``(w, b)``
        and return ([B, out, C] in input units, view pairs)."""
        self._check_input(x)
        xn, stats = self.normalize_input(x)
        tokens, pairs = self._encode_tokens(xn, rng)
        out = swapaxes(matmul(tokens, w) + b, 1, 2)
        if stats is not None:
            mu, sd = stats
            out = mul(out, Tensor(sd)) + Tensor(mu)
        return out, pairs

    def forecast(self, x: Tensor, rng: np.random.Generator | None = None):
        """[B, L, C] -> (forecast [B, H, C] in input units, view pairs)."""
        return self._through_head(x, rng, self.w_head, self.b_head)

    def latent_for_ccm(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """Projected channel embeddings [B, C, D] for correlation matching."""
        tokens, _ = self.encode(x, rng)
        return matmul(tokens, self.w_ccm) + self.b_ccm

    def reconstruct(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """[B, L, C] -> reconstruction [B, L, C] in input units.

        When instance norm is on, the de-normalization uses stats of the
        given input (which may be a masked copy of the original series).
        """
        return self._through_head(x, rng, self.w_rec, self.b_rec)[0]


def count_parameters(model: SORMambaModel) -> dict[str, int]:
    """Scalar parameter counts grouped by component, plus the total."""
    groups = {
        "in_projector": ("embed.",),
        "encoder_cd": (".enc.",),
        "encoder_td": (".ln1.", ".mlp.", ".ln2."),
        "out_projector": ("head.",),
        "ccm_head": ("ccm.",),
        "recon_head": ("rec.",),
    }
    counts = {k: 0 for k in groups}
    for name, t in model.param_items():
        for key, needles in groups.items():
            if any(n in name if n.startswith(".") else name.startswith(n) for n in needles):
                counts[key] += t.size
                break
        else:
            raise AssertionError(f"parameter {name} not assigned to a component")
    counts["total"] = sum(counts.values())
    return counts


# ---- checkpoints --------------------------------------------------------


def save_checkpoint(model: SORMambaModel, path: str) -> None:
    arrays = {f"param/{name}": t.data for name, t in model.param_items()}
    meta = {"format": CHECKPOINT_FORMAT, "config": model.config.to_dict()}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> SORMambaModel:
    with np.load(path, allow_pickle=False) as z:
        if "meta" not in z:
            raise ValueError(f"{path}: not a model checkpoint (no meta entry)")
        meta = json.loads(bytes(z["meta"]).decode("utf-8"))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"{path}: checkpoint format {meta.get('format')!r}, "
                f"expected {CHECKPOINT_FORMAT}"
            )
        model = SORMambaModel(ModelConfig.from_dict(meta["config"]), seed=0)
        stored = {k[len("param/") :] for k in z.files if k.startswith("param/")}
        expected = {name for name, _ in model.param_items()}
        if stored != expected:
            missing = sorted(expected - stored)
            surplus = sorted(stored - expected)
            raise ValueError(
                f"{path}: parameter names do not match (missing {missing}, surplus {surplus})"
            )
        for name, t in model.param_items():
            arr = z[f"param/{name}"]
            if arr.shape != t.shape:
                raise ValueError(f"{path}: {name} has shape {arr.shape}, expected {t.shape}")
            t.data = arr.astype(np.float64)
    return model


def parameter_fingerprint(model: SORMambaModel, prefixes: tuple[str, ...] = ()) -> str:
    """Order-stable hash of (a subset of) the parameters, for freeze checks."""
    import hashlib

    h = hashlib.sha256()
    for name, t in model.param_items():
        if prefixes and not any(name.startswith(p) for p in prefixes):
            continue
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()
