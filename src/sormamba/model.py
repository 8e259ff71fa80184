"""The channel-dependency selective-scan forecaster.

Input windows are [batch, lookback, channels]. Each channel's history is
embedded into one token (``autodiff.linear``), so the token axis is the
channel axis; stacked layers then run a directional encoder over those
tokens (returning each view's output, the pair kept per layer for the
order-consistency penalty), add the views' sum and a residual around that
sublayer only (``autodiff.residual_sum``), and refine tokens with a
LayerNorm/MLP/LayerNorm stage (``autodiff.layer_norm`` and
``autodiff.gelu_mlp``). A linear head (``autodiff.head_proj``) maps each
channel token to its horizon. Each of these is one fused op that keeps only
what its backward reads: two [..., 1] arrays per LayerNorm, the head's
[B, 1, C] scale, and nothing for the others. Recorded, two parts of a layer
are checkpointed ops (``autodiff.checkpoint``) that recompute their interior
in the backward: each encoder block keeps its input, its scans' y and its
outputs (see ``blocks``), and the layer's tail, from the views' sum to the
second LayerNorm, keeps nothing. So per layer the tape holds z, the scans'
y, the view outputs and the layer's output. One layer loop serves the
forecast, the side heads and the ordering analysis
(``forecast_orderings``). Without a tape it holds only what a later op
reads: the normalized input until the embedding, each layer's view outputs
until its tail (unless the caller takes the view pairs, as ``forecast``
does) and each scan's y until its ``post``. Evaluation reads the forecast
through ``forecast_orderings``, which takes no view pairs.

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
    checkpoint,
    gelu_mlp,
    head_proj,
    layer_norm,
    linear,
    mul,
    no_grad,
    residual_sum,
    sub,
    swapaxes,
)
from .blocks import DIRECTIONS, ORDER_MODES, DirectionalEncoderCD
from .losses import REG_METRICS
from .ssm import DISCRETIZATIONS, checked_ordering, uniform_weight

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
        return linear(swapaxes(xn, 1, 2), self.w_embed, self.b_embed)

    @staticmethod
    def _tail(layer: _Layer, views: list[Tensor], z: Tensor) -> Tensor:
        """A layer's work after its encoder: the views' sum with the
        residual z, then LayerNorm/MLP/LayerNorm. Recorded, it is one op
        (``autodiff.checkpoint``) that keeps nothing; its backward records
        the four ops again on the views, z and the layer's eight parameters."""

        def run(*_):
            h = layer_norm(residual_sum(views, z), layer.g1, layer.c1)
            h = gelu_mlp(h, layer.w_mlp1, layer.b_mlp1, layer.w_mlp2, layer.b_mlp2)
            return [layer_norm(h, layer.g2, layer.c2)], None

        params = (layer.g1, layer.c1, layer.w_mlp1, layer.b_mlp1, layer.w_mlp2, layer.b_mlp2,
                  layer.g2, layer.c2)
        (out,) = checkpoint((*views, z, *params), run)
        return out

    def _encode_tokens(
        self,
        x: Tensor,
        rng: np.random.Generator | None,
        perms=(None,),
        pairs: list[tuple[Tensor, Tensor]] | None = None,
    ):
        """The channel tokens [B, C, D] of ``x`` [B, L, C] under each of
        ``perms`` (None: as given), and the instance-norm stats. Orderings
        with one input share a layer's ``forward_orderings`` call, and those
        whose views are the same walk tensors, in any order, share its tail
        and so the next layer's input, bit for bit: ``(v1 + v2) + z`` is
        ``(v2 + v1) + z``. With ``pairs``, a list (for one ordering), each
        layer's view pair of a two-view model is appended to it; without,
        each layer's view outputs go once its tail has read them."""
        self._check_input(x)
        xn, stats = self.normalize_input(x)
        zs = [self._tokens(xn)] * len(perms)
        # read by the embedding alone
        del xn
        for layer in self.layers:
            groups: dict[int, dict[int, np.ndarray | None]] = {}
            for k, perm in enumerate(perms):
                groups.setdefault(id(zs[k]), {})[k] = perm
            for group in groups.values():
                outs = layer.encoder.forward_orderings(zs[next(iter(group))], group, rng)
                # sorted view ids -> tail output; every view of the group is
                # alive until its ordering is popped, so no id is reused
                tails: dict[tuple[int, ...], Tensor] = {}
                for k in group:
                    # popped and replaced, so each input and view output
                    # goes once its last ordering is done with it
                    views = outs.pop(k)
                    if pairs is not None and len(views) == 2:
                        pairs.append(tuple(views))
                    key = tuple(sorted(map(id, views)))
                    if key not in tails:
                        tails[key] = self._tail(layer, views, zs[k])
                    zs[k] = tails[key]
                    del views
                # not held through the next layer's blocks
                del tails, key
        return zs, stats

    def encode(self, x: Tensor, rng: np.random.Generator | None = None):
        """[B, L, C] -> (channel tokens [B, C, D], per-layer view pairs)."""
        pairs: list[tuple[Tensor, Tensor]] = []
        (tokens,), _ = self._encode_tokens(x, rng, pairs=pairs)
        return tokens, pairs

    def _through_head(self, x: Tensor, rng: np.random.Generator | None, w: Tensor, b: Tensor):
        """Encode ``x`` [B, L, C], map each channel token through ``(w, b)``
        and return ([B, out, C] in input units, view pairs)."""
        pairs: list[tuple[Tensor, Tensor]] = []
        (tokens,), stats = self._encode_tokens(x, rng, pairs=pairs)
        return head_proj(tokens, w, b, stats), pairs

    def forecast(self, x: Tensor, rng: np.random.Generator | None = None):
        """[B, L, C] -> (forecast [B, H, C] in input units, view pairs)."""
        return self._through_head(x, rng, self.w_head, self.b_head)

    def forecast_orderings(self, x: Tensor, perms) -> list[np.ndarray]:
        """The forecast [B, H, C] of ``x`` [B, L, C] as if its channels were
        fed in each of ``perms``' orders (None: as given), put back in
        channel order, without a tape. Each equals ``forecast`` of the
        contiguous permuted batch, put back, bit for bit; it holds no view
        pairs, and with ``(None,)`` it is the forecast that evaluation
        reads. An ordering that is not an integer permutation of the
        channels is refused.

        The batch keeps its own channel layout: an ordering ``perm`` changes
        only the scan orders, in the layer loop ``forecast`` runs. So the
        instance norm, the embedding and layer 1's ``pre`` run once for all
        the orderings, and layer 1 scans each distinct walk once. Orderings
        that walk the same orders in the same blocks (identity and reversed
        under ``uni`` and ``fixed-reverse``) share all the rest; the others
        run it apart, their activations held at once.
        """
        c = self.config.n_channels
        perms = tuple(checked_ordering(p, c, f"ordering {i}") for i, p in enumerate(perms))
        with no_grad():
            zs, stats = self._encode_tokens(x, None, perms)
            heads: dict[int, np.ndarray] = {}
            for z in zs:
                if id(z) not in heads:
                    heads[id(z)] = head_proj(z, self.w_head, self.b_head, stats).data
            return [heads[id(z)] for z in zs]

    def latent_for_ccm(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """Projected channel embeddings [B, C, D] for correlation matching."""
        tokens, _ = self.encode(x, rng)
        return linear(tokens, self.w_ccm, self.b_ccm)

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
