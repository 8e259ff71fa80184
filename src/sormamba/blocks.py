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
  each one fused op (``autodiff.silu_proj``) that keeps nothing but its
  output for the backward, the scan's step sizes, B_t and C_t
  (``ssm.projections``), and A = -exp(a_log). With the conv on, u's
  projection is a plain ``matmul``: its SiLU comes after the conv;
* ``core`` scans the tokens once in each of the given orders
  (``ssm.scan_core`` with ``orders``) and returns each order's y in the
  tokens' own order;
* ``post`` works token by token again: the ``d_skip`` term, the gate and
  the output projection, as one fused op (``autodiff.skip_gate_proj``).

Recorded, the three stages are one op (``autodiff.checkpoint``, activation
checkpointing at the level of a block, Chen et al. 2016, arXiv 1604.06174):
its forward runs them without a tape and keeps only its input z, each
scan's y and its own outputs. Its backward runs ``pre`` again, recorded,
rebuilds the scans' and ``post``'s nodes around the kept values (the scans'
forward and the output projection do not run again), and back-propagates
through that sub-tape into z and the parameters themselves, so every
gradient is the one a tape of the three stages would give, bit for bit.
Without a tape the stages run as they are and keep nothing: each scan's y
goes once its ``post`` has read it.

``DirectionalEncoderCD`` is built from a ``ModelConfig``. It runs one block
over two views of the token axis (or two independent blocks, for the
bidirectional variant; one view in the tokens' order without ``two_view``)
and returns each view's output so the caller can fuse them and penalize
their disagreement. Its one entry, ``forward_orderings``, runs the views
under one ordering of the tokens (training, evaluation) or several (the
ordering analysis) at once, each block's ``pre`` once and each distinct
scan order once, and orderings that walk one order in a block share that
walk's output tensor (the model's layer loop then shares their tails). A
view is only an order for ``core``: with one shared block (``uni``) the
views share one ``pre`` and one ``scan_core`` call (which computes each
token's discretized factors once for all orders, see ``scan_kernels``), and
no token is gathered. With the conv on, the conv and the projections after
it depend on the order too, so they move into ``core``, which gathers the
tokens of each walk but the given order (None, or the identity
permutation), scans it on its own and puts y back.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .autodiff import (
    Tensor,
    checkpoint,
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
        self,
        z: Tensor,
        orders: tuple[np.ndarray | None, ...] = (None,),
        labels: tuple[str, ...] | None = None,
    ) -> list[Tensor]:
        """The block's output on z once per order of its tokens, each in the
        tokens' own order: ``pre`` once, ``core`` once for all the orders,
        then ``post`` per order. ``labels`` name the orders in a non-finite
        scan's error.

        Recorded, the stages are one op (``autodiff.checkpoint``) that keeps
        z, the scans' y and its outputs; its backward records ``pre`` again
        and the scans and ``post`` around the kept values, and
        back-propagates through that sub-tape. Without a tape nothing is
        kept, and each scan's y goes once its ``post`` has read it."""

        def run(kept, keeping):
            outs, ys = self._stages(z, orders, labels, kept, keeping)
            return outs, (ys, [out.data for out in outs])

        return checkpoint((z, *(t for _, t in self.param_items())), run)

    def _stages(
        self,
        z: Tensor,
        orders: tuple[np.ndarray | None, ...],
        labels: tuple[str, ...] | None,
        kept: tuple[list[np.ndarray], list[np.ndarray]] | None,
        keeping: bool,
    ) -> tuple[list[Tensor], list[np.ndarray] | None]:
        """``pre``, ``core`` and ``post`` on z: per order the output, and the
        scans' outputs (one y per order). With ``kept``, (the scans'
        outputs, the outputs) of an earlier run on z, the scans and ``post``
        are built around them. With ``keeping`` False
        (``autodiff.checkpoint``'s ``run`` protocol) the scans' outputs are
        not returned, and each y goes once its ``post`` has read it."""
        ys, values = (None, None) if kept is None else kept
        tokens = self.pre(z)
        scanned, ys = self.core(tokens, orders, labels, ys)
        if not keeping:
            ys = None
        gate = tokens.gate
        # without a tape nothing else holds the scan's inputs; let them go
        # before the outputs are built
        del tokens
        outs = []
        for i in range(len(scanned)):
            # taken out of the list, so without a tape each y is freed
            # before the next post runs
            (y, u), scanned[i] = scanned[i], None
            outs.append(self.post(gate, y, u, None if values is None else values[i]))
        return outs, ys

    def pre(self, z: Tensor) -> Tokens:
        """The token-by-token work before the scan, on z [batch, tokens, d_model]."""
        # with a conv, u's SiLU comes after the conv, in core
        u = matmul(z, self.w_in_x) if self.conv_kernel else silu_proj(z, self.w_in_x)
        gate = silu_proj(z, self.w_in_g)
        scan_in = None if self.conv_kernel else projections(u, self.ssm)
        return Tokens(u, gate, neg(exp(self.ssm.a_log)), scan_in)

    def core(
        self,
        tokens: Tokens,
        orders: tuple[np.ndarray | None, ...],
        labels: tuple[str, ...] | None,
        ys: list[np.ndarray] | None = None,
    ) -> tuple[list[tuple[Tensor, Tensor]], list[np.ndarray]]:
        """Scan the tokens once in each of ``orders`` (None: as given).
        Returns, per order, (y before the skip term, the scan input), both in
        the tokens' own order, and the scan's value per order (one array
        each). With ``ys``, those values from an earlier call on these
        tokens, the scans are built around them instead of run. Without a
        conv, all the orders are one ``scan_core`` call."""
        if not self.conv_kernel:
            delta, b_t, c_t = tokens.scan_in
            outs = scan_core(delta, tokens.a, b_t, c_t, tokens.u, self.ssm.mode, orders, labels, ys)
            return [(v, tokens.u) for v in outs], [v.data for v in outs]
        walks = [
            self._conv_core(tokens, order, labels and labels[i : i + 1], ys and ys[i : i + 1])
            for i, order in enumerate(orders)
        ]
        return [walk[:2] for walk in walks], [walk[2] for walk in walks]

    def _conv_core(
        self,
        tokens: Tokens,
        order: np.ndarray | None,
        labels: tuple[str] | None,
        y: list[np.ndarray] | None,
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        if order is not None and np.array_equal(order, np.arange(len(order))):
            order = None  # the identity: nothing to gather or put back
        u = tokens.u if order is None else take_axis(tokens.u, order, axis=1)
        u = silu(self._conv(u))
        delta, b_t, c_t = projections(u, self.ssm)
        (out,) = scan_core(delta, tokens.a, b_t, c_t, u, self.ssm.mode, labels=labels, y=y)
        if order is None:
            return out, u, out.data
        inverse = np.argsort(order)
        return take_axis(out, inverse, axis=1), take_axis(u, inverse, axis=1), out.data

    def post(self, gate: Tensor, y: Tensor, u: Tensor, out: np.ndarray | None = None) -> Tensor:
        """The token-by-token work after the scan: skip term, gate, out_proj,
        as one fused op that keeps nothing but its output (given as ``out``
        when it was computed before)."""
        return skip_gate_proj(y, u, gate, self.ssm.d_skip, self.w_out, out)

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
    parameter count). Without ``two_view`` one block reads the tokens as
    given. Every view's output is aligned to the original token order.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.order_mode = cfg.order_mode
        self.two_view = cfg.two_view
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
        """The token orderings of this pass's views as index permutations,
        None meaning the identity; the one view ``(None,)`` without ``two_view``."""
        if not self.two_view:
            return (None,)
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

    def forward_orderings(
        self, z: Tensor, perms: dict[int, np.ndarray | None], rng: np.random.Generator | None = None
    ) -> dict[int, list[Tensor]]:
        """Each view's output on z [batch, tokens, d_model], in z's token
        order, under each ordering of ``perms`` (keyed alike). The views are
        drawn once (from ``rng`` in the random modes); under ``perm`` view
        order ``v`` is walked as ``perm[v]`` (``perm`` for v None, and ``v``
        for perm None, so the given order is never gathered), by block i for
        view i under ``bi``. Each block's ``pre`` runs once and each distinct
        walk once, its output shared by every view it serves. A non-finite
        scan names the walk's orderings and views."""
        if z.ndim != 3 or z.shape[1] != self.n_tokens:
            raise ValueError(
                f"forward_orderings: expected [batch, {self.n_tokens}, d_model], got {z.shape}"
            )
        views = self._views(rng)
        # per block: order bytes (None: as given) -> (order, the (ordering,
        # view)s it serves)
        walks: list[dict] = [{} for _ in self.blocks]
        for k, perm in perms.items():
            for i, v in enumerate(views):
                order = v if perm is None else perm if v is None else perm[v]
                key = None if order is None else order.tobytes()
                walks[0 if len(walks) == 1 else i].setdefault(key, (order, []))[1].append((k, i))
        outs = {k: [None] * len(views) for k in perms}

        def name(k: int, i: int) -> str:
            ordering = "" if perms[k] is None else f"ordering {k}"
            view = f"view {i}" if len(views) > 1 else ""
            return " ".join(filter(None, (ordering, view)))

        for blk, served in zip(self.blocks, walks):
            labels = tuple(" and ".join(name(*u) for u in users) for _, users in served.values())
            ys = blk.forward_orders(z, tuple(order for order, _ in served.values()), labels)
            for y, (_, users) in zip(ys, served.values()):
                for k, i in users:
                    outs[k][i] = y
        return outs

    def param_items(self) -> list[tuple[str, Tensor]]:
        items: list[tuple[str, Tensor]] = []
        for i, blk in enumerate(self.blocks):
            items += [(f"block{i}.{n}", t) for n, t in blk.param_items()]
        return items

