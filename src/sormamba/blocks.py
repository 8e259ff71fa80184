"""Gated selective-scan blocks applied along the channel-token axis.

``CDMambaBlock`` is the channel-dependency block: input projection into a
scan branch and a gate branch, selective scan, SiLU gate, output projection.
It deliberately has no convolution: channel tokens carry no temporal order,
so the local smoothing a causal conv provides is both meaningless there and
a source of order sensitivity. ``MambaBlock`` keeps the depthwise causal
conv (kernel 4 by default) as the sequence-modeling baseline.

``DirectionalEncoderCD`` runs one block over two views of the token axis
(or two independent blocks, for the bidirectional variant) and returns both
view outputs so the caller can fuse them and penalize their disagreement.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import (
    Tensor,
    matmul,
    mul,
    reverse_axis,
    shift_axis,
    silu,
    take_axis,
)
from .ssm import init_ssm_params, selective_scan

ORDER_MODES = ("fixed-reverse", "fixed-random", "random-pair", "random-reverse")
DIRECTIONS = ("uni", "bi")


def _uniform_weight(n_in: int, n_out: int, rng: np.random.Generator) -> Tensor:
    bound = 1.0 / math.sqrt(n_in)
    return Tensor(rng.uniform(-bound, bound, size=(n_in, n_out)), requires_grad=True)


class CDMambaBlock:
    """Convolution-free gated scan block over a token axis."""

    has_conv = False

    def __init__(
        self,
        d_model: int,
        d_inner: int,
        d_state: int,
        dt_rank: int,
        rng: np.random.Generator,
        mode: str = "euler-b",
    ):
        self.d_model = d_model
        self.d_inner = d_inner
        self.w_in_x = _uniform_weight(d_model, d_inner, rng)
        self.w_in_g = _uniform_weight(d_model, d_inner, rng)
        self.ssm = init_ssm_params(d_inner, d_state, dt_rank, rng, mode=mode)
        self.w_out = _uniform_weight(d_inner, d_model, rng)

    def _pre_scan(self, u: Tensor) -> Tensor:
        return u

    def __call__(self, z: Tensor) -> Tensor:
        """[batch, tokens, d_model] -> same shape."""
        u = silu(self._pre_scan(matmul(z, self.w_in_x)))
        gate = silu(matmul(z, self.w_in_g))
        y = selective_scan(u, self.ssm)
        return matmul(mul(y, gate), self.w_out)

    def param_items(self) -> list[tuple[str, Tensor]]:
        items = [
            ("in_proj.x", self.w_in_x),
            ("in_proj.gate", self.w_in_g),
        ]
        items += [(f"ssm.{n}", t) for n, t in zip(
            ("a_log", "d_skip", "w_dt_down", "w_dt_up", "b_dt", "w_b", "w_c"),
            self.ssm.tensors(),
        )]
        items.append(("out_proj", self.w_out))
        return items


class MambaBlock(CDMambaBlock):
    """The same gated scan block with a depthwise causal conv before the scan."""

    has_conv = True

    def __init__(
        self,
        d_model: int,
        d_inner: int,
        d_state: int,
        dt_rank: int,
        rng: np.random.Generator,
        mode: str = "euler-b",
        conv_kernel: int = 4,
    ):
        super().__init__(d_model, d_inner, d_state, dt_rank, rng, mode=mode)
        if conv_kernel < 1:
            raise ValueError(f"conv_kernel must be >= 1, got {conv_kernel}")
        self.conv_kernel = conv_kernel
        # depthwise filters, fan-in = kernel width
        bound = 1.0 / math.sqrt(conv_kernel)
        self.w_conv = Tensor(
            rng.uniform(-bound, bound, size=(conv_kernel, self.d_inner)),
            requires_grad=True,
        )
        self.b_conv = Tensor(np.zeros(self.d_inner), requires_grad=True)

    def _pre_scan(self, u: Tensor) -> Tensor:
        # causal: token k sees tokens k-kernel+1 .. k, zero-padded on the left
        k = self.conv_kernel
        acc = None
        for j in range(k):
            row = take_axis(self.w_conv, np.array([j]), axis=0)
            tap = mul(shift_axis(u, k - 1 - j, axis=1), row)
            acc = tap if acc is None else acc + tap
        return acc + self.b_conv

    def param_items(self) -> list[tuple[str, Tensor]]:
        items = super().param_items()
        items.insert(2, ("conv.weight", self.w_conv))
        items.insert(3, ("conv.bias", self.b_conv))
        return items


def build_block(
    d_model: int,
    d_inner: int,
    d_state: int,
    dt_rank: int,
    rng: np.random.Generator,
    conv: bool,
    conv_kernel: int = 4,
    mode: str = "euler-b",
) -> CDMambaBlock:
    if conv:
        return MambaBlock(
            d_model, d_inner, d_state, dt_rank, rng, mode=mode, conv_kernel=conv_kernel
        )
    return CDMambaBlock(d_model, d_inner, d_state, dt_rank, rng, mode=mode)


class DirectionalEncoderCD:
    """One or two scan blocks read the token axis in paired views.

    ``uni`` shares a single block between the direct view and the reordered
    view; ``bi`` gives each view its own block (exactly doubling the
    parameter count). ``forward_pair`` returns both view outputs aligned to
    the original token order.
    """

    def __init__(
        self,
        d_model: int,
        n_tokens: int,
        direction: str,
        rng: np.random.Generator,
        d_inner: int | None = None,
        d_state: int = 16,
        dt_rank: int | None = None,
        conv: bool = False,
        conv_kernel: int = 4,
        mode: str = "euler-b",
        order_mode: str = "fixed-reverse",
    ):
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        if order_mode not in ORDER_MODES:
            raise ValueError(f"order_mode must be one of {ORDER_MODES}, got {order_mode!r}")
        self.direction = direction
        self.order_mode = order_mode
        self.n_tokens = n_tokens
        d_inner = 2 * d_model if d_inner is None else d_inner
        dt_rank = max(1, math.ceil(d_model / 16)) if dt_rank is None else dt_rank

        def make():
            return build_block(
                d_model, d_inner, d_state, dt_rank, rng, conv, conv_kernel, mode
            )

        self.blocks = [make()] if direction == "uni" else [make(), make()]
        # frozen fallback permutations so the random modes stay deterministic
        # at evaluation time
        self._fixed_perm = np.random.default_rng(0x5EED).permutation(n_tokens)
        self._fixed_pair = (
            np.random.default_rng(0x5EED + 1).permutation(n_tokens),
            np.random.default_rng(0x5EED + 2).permutation(n_tokens),
        )

    def _views(self, rng: np.random.Generator | None):
        """The two token orderings for this pass: None means identity,
        'reverse' the flip, otherwise an index permutation."""
        if self.order_mode == "fixed-reverse":
            return None, "reverse"
        if self.order_mode == "fixed-random":
            return None, self._fixed_perm
        if self.order_mode == "random-pair":
            if rng is None:
                return self._fixed_pair
            return rng.permutation(self.n_tokens), rng.permutation(self.n_tokens)
        # random-reverse: a fresh ordering and its mirror image
        perm = self._fixed_pair[0] if rng is None else rng.permutation(self.n_tokens)
        return perm, perm[::-1].copy()

    @staticmethod
    def _apply_view(block: CDMambaBlock, z: Tensor, view) -> Tensor:
        if view is None:
            return block(z)
        if isinstance(view, str):  # "reverse"
            return reverse_axis(block(reverse_axis(z, 1)), 1)
        inverse = np.argsort(view)
        return take_axis(block(take_axis(z, view, axis=1)), inverse, axis=1)

    def forward_pair(
        self, z: Tensor, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor]:
        if z.ndim != 3 or z.shape[1] != self.n_tokens:
            raise ValueError(
                f"forward_pair: expected [batch, {self.n_tokens}, d_model], got {z.shape}"
            )
        v1, v2 = self._views(rng)
        first, second = (self.blocks * 2)[:2]
        z1 = self._apply_view(first, z, v1)
        z2 = self._apply_view(second, z, v2)
        return z1, z2

    def block_forward(self, z: Tensor) -> Tensor:
        """The raw (direct-view) block pass; causal along the token axis."""
        return self.blocks[0](z)

    def param_items(self) -> list[tuple[str, Tensor]]:
        items: list[tuple[str, Tensor]] = []
        for i, blk in enumerate(self.blocks):
            items += [(f"block{i}.{n}", t) for n, t in blk.param_items()]
        return items


def conv_removal_saving(d_inner: int, conv_kernel: int = 4) -> int:
    """Scalars saved per block by deleting the conv: weights + bias."""
    return d_inner * (conv_kernel + 1)
