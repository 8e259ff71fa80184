"""Gated selective-scan blocks applied along the channel-token axis.

``CDMambaBlock`` is the channel-dependency block: input projection into a
scan branch and a gate branch, selective scan, SiLU gate, output projection.
By default it has no convolution: channel tokens carry no temporal order,
so the local smoothing a causal conv provides is both meaningless there and
a source of order sensitivity. A positive ``conv_kernel`` puts Mamba's
depthwise causal conv back before the scan, as the sequence-modeling
ablation.

A block runs in three stages, and only the middle one reads the order of
the tokens:

* ``pre`` works token by token: both input projections with their SiLUs,
  each one fused op (``autodiff.silu_proj``) that keeps only its
  pre-activation for the backward, the scan's step sizes, B_t and C_t
  (``ssm.projections``), and A = -exp(a_log). With the conv on, u's
  projection is a plain ``matmul``: its SiLU comes after the conv;
* ``core`` scans the tokens once in each of the given orders
  (``ssm.scan_core`` with ``orders``) and returns each order's y in the
  tokens' own order;
* ``post`` works token by token again: the ``d_skip`` term, the gate and
  the output projection, as one fused op (``autodiff.skip_gate_proj``) that
  keeps nothing but its output for the backward.

``DirectionalEncoderCD`` is built from a ``ModelConfig``. It runs one block
over two views of the token axis (or two independent blocks, for the
bidirectional variant) and returns both view outputs so the caller can fuse
them and penalize their disagreement. A view is only an order for ``core``:
with one shared block (``uni``) both views share one ``pre`` and every
tensor it made, both views are one ``core`` call and so one ``scan_core``
call (which computes each token's discretized factors once for both
orders, see ``scan_kernels``), and no token is gathered or put back. With the conv on,
the conv and the projections after it are order-dependent too, so they move
into ``core``, which then gathers the tokens, scans each view on its own
and puts y back.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .autodiff import (
    Tensor,
    exp,
    matmul,
    mul,
    neg,
    shift_axis,
    silu,
    silu_proj,
    skip_gate_proj,
    take_axis,
)
from .ssm import init_ssm_params, projections, scan_core, uniform_weight

if TYPE_CHECKING:
    from .model import ModelConfig

ORDER_MODES = ("fixed-reverse", "fixed-random", "random-pair", "random-reverse")
DIRECTIONS = ("uni", "bi")


class Tokens(NamedTuple):
    """What a block's ``pre`` stage reads off its input, token by token.

    ``u`` is the scan input, or the conv input when the block has a conv;
    ``scan_in`` is (delta, b_t, c_t) read off ``u``, or None with a conv,
    whose ``core`` reads them off the conv output instead.
    """

    u: Tensor
    gate: Tensor
    a: Tensor
    scan_in: tuple[Tensor, Tensor, Tensor] | None


class CDMambaBlock:
    """Gated scan block over a token axis, conv-free unless ``conv_kernel > 0``."""

    def __init__(
        self,
        d_model: int,
        d_inner: int,
        d_state: int,
        dt_rank: int,
        rng: np.random.Generator,
        mode: str = "euler-b",
        conv_kernel: int = 0,
    ):
        if conv_kernel < 0:
            raise ValueError(f"conv_kernel must be >= 0, got {conv_kernel}")
        self.w_in_x = uniform_weight(d_model, d_inner, rng)
        self.w_in_g = uniform_weight(d_model, d_inner, rng)
        self.ssm = init_ssm_params(d_inner, d_state, dt_rank, rng, mode=mode)
        self.w_out = uniform_weight(d_inner, d_model, rng)
        self.conv_kernel = conv_kernel
        if conv_kernel:
            # depthwise filters, fan-in = kernel width
            self.w_conv = uniform_weight(conv_kernel, d_inner, rng)
            self.b_conv = Tensor(np.zeros(d_inner), requires_grad=True)

    def _conv(self, u: Tensor) -> Tensor:
        # causal: token k sees tokens k-kernel+1 .. k, zero-padded on the left
        k = self.conv_kernel
        acc = None
        for j in range(k):
            row = take_axis(self.w_conv, np.array([j]), axis=0)
            tap = mul(shift_axis(u, k - 1 - j, axis=1), row)
            acc = tap if acc is None else acc + tap
        return acc + self.b_conv

    def __call__(self, z: Tensor) -> Tensor:
        """[batch, tokens, d_model] -> same shape, tokens in their given order."""
        (out,) = self.forward_orders(z)
        return out

    def forward_orders(
        self, z: Tensor, orders: tuple[np.ndarray | None, ...] = (None,)
    ) -> list[Tensor]:
        """The block's output on z once per order of its tokens, each in the
        tokens' own order: ``pre`` once, ``core`` once for all the orders,
        then ``post`` per order."""
        tokens = self.pre(z)
        scanned = self.core(tokens, orders)
        gate = tokens.gate
        # without a tape nothing else holds the scan's inputs; let them go
        # before the outputs are built
        del tokens
        return [self.post(gate, y, u) for y, u in scanned]

    def pre(self, z: Tensor) -> Tokens:
        """The token-by-token work before the scan, on z [batch, tokens, d_model]."""
        # with a conv, u's SiLU comes after the conv, in core
        u = matmul(z, self.w_in_x) if self.conv_kernel else silu_proj(z, self.w_in_x)
        gate = silu_proj(z, self.w_in_g)
        scan_in = None if self.conv_kernel else projections(u, self.ssm)
        return Tokens(u, gate, neg(exp(self.ssm.a_log)), scan_in)

    def core(
        self, tokens: Tokens, orders: tuple[np.ndarray | None, ...] = (None,)
    ) -> list[tuple[Tensor, Tensor]]:
        """Scan the tokens once in each of ``orders`` (None: as given).
        Returns, per order, (y before the skip term, the scan input), both in
        the tokens' own order. Without a conv, all the orders are one
        ``scan_core`` call."""
        if not self.conv_kernel:
            delta, b_t, c_t = tokens.scan_in
            ys = scan_core(delta, tokens.a, b_t, c_t, tokens.u, self.ssm.mode, orders)
            return [(y, tokens.u) for y in ys]
        return [self._conv_core(tokens, order) for order in orders]

    def _conv_core(self, tokens: Tokens, order: np.ndarray | None) -> tuple[Tensor, Tensor]:
        u = tokens.u if order is None else take_axis(tokens.u, order, axis=1)
        u = silu(self._conv(u))
        delta, b_t, c_t = projections(u, self.ssm)
        (y,) = scan_core(delta, tokens.a, b_t, c_t, u, self.ssm.mode)
        if order is None:
            return y, u
        inverse = np.argsort(order)
        return take_axis(y, inverse, axis=1), take_axis(u, inverse, axis=1)

    def post(self, gate: Tensor, y: Tensor, u: Tensor) -> Tensor:
        """The token-by-token work after the scan: skip term, gate, out_proj,
        as one fused op that keeps nothing but its output."""
        return skip_gate_proj(y, u, gate, self.ssm.d_skip, self.w_out)

    def param_items(self) -> list[tuple[str, Tensor]]:
        items = [
            ("in_proj.x", self.w_in_x),
            ("in_proj.gate", self.w_in_g),
        ]
        if self.conv_kernel:
            items += [("conv.weight", self.w_conv), ("conv.bias", self.b_conv)]
        items += [
            (f"ssm.{f.name}", t)
            for f in fields(self.ssm)
            if isinstance(t := getattr(self.ssm, f.name), Tensor)
        ]
        items.append(("out_proj", self.w_out))
        return items


class DirectionalEncoderCD:
    """One or two scan blocks read the token axis in paired views.

    ``uni`` shares a single block between the direct view and the reordered
    view, and with it the block's ``pre`` stage and one ``core`` call for
    both views; ``bi`` gives each view its own block (exactly doubling the
    parameter count). ``forward_pair`` returns both view outputs aligned to
    the original token order.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.order_mode = cfg.order_mode
        self.n_tokens = cfg.n_channels
        self.blocks = [
            CDMambaBlock(
                cfg.d_model,
                cfg.d_inner,
                cfg.d_state,
                cfg.resolved_dt_rank,
                rng,
                mode=cfg.discretization,
                conv_kernel=cfg.conv_kernel if cfg.conv else 0,
            )
            for _ in range(1 if cfg.direction == "uni" else 2)
        ]
        self._reverse = np.arange(self.n_tokens)[::-1]
        # frozen fallback permutations so the random modes stay deterministic
        # at evaluation time
        self._fixed_perm = np.random.default_rng(0x5EED).permutation(self.n_tokens)
        self._fixed_pair = (
            np.random.default_rng(0x5EED + 1).permutation(self.n_tokens),
            np.random.default_rng(0x5EED + 2).permutation(self.n_tokens),
        )

    def _views(self, rng: np.random.Generator | None):
        """The two token orderings for this pass as index permutations;
        None means the identity."""
        if self.order_mode == "fixed-reverse":
            return None, self._reverse
        if self.order_mode == "fixed-random":
            return None, self._fixed_perm
        if self.order_mode == "random-pair":
            if rng is None:
                return self._fixed_pair
            return rng.permutation(self.n_tokens), rng.permutation(self.n_tokens)
        # random-reverse: a fresh ordering and its mirror image
        perm = self._fixed_pair[0] if rng is None else rng.permutation(self.n_tokens)
        return perm, perm[::-1].copy()

    def forward_pair(
        self, z: Tensor, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor]:
        if z.ndim != 3 or z.shape[1] != self.n_tokens:
            raise ValueError(
                f"forward_pair: expected [batch, {self.n_tokens}, d_model], got {z.shape}"
            )
        views = self._views(rng)
        if len(self.blocks) == 1:  # uni: one block scans both views
            z1, z2 = self.blocks[0].forward_orders(z, views)
        else:
            (z1,), (z2,) = (blk.forward_orders(z, (v,)) for blk, v in zip(self.blocks, views))
        return z1, z2

    def param_items(self) -> list[tuple[str, Tensor]]:
        items: list[tuple[str, Tensor]] = []
        for i, blk in enumerate(self.blocks):
            items += [(f"block{i}.{n}", t) for n, t in blk.param_items()]
        return items

