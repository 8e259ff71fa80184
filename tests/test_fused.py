"""The fused per-token ops against the composed graphs they replace.

Each fused op (``layer_norm``, ``skip_gate_proj``, ``gelu_mlp``,
``silu_proj``, ``softplus_proj``, ``linear``, ``head_proj``,
``residual_sum`` and ``losses.mse``) must give the composed graph's value
and every gradient bit for bit, and keep less of the forward alive for its
backward. The composed graphs are written out here from the primitive ops,
as the reference. So are the checkpointed ops' (``autodiff.checkpoint``):
a scan block's three stages recorded one node after another
(``recorded_block``), and a layer's tail recorded op by op (``recorded``).
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from sormamba import autodiff as ad
from sormamba import blocks
from sormamba import losses as ls
from sormamba import model as md
from sormamba import ssm
from sormamba.autodiff import Tensor

# (batch, tokens, d_model) of train-etth1, train-solar and analyze-weather
WORKLOAD_SHAPES = [(32, 7, 128), (8, 137, 64), (64, 21, 64)]
# the workloads' forecast horizon, the head's width
HORIZON = 96


def composed_layer_norm(x, gain, bias, eps=1e-5):
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
    denom = ad.sqrt(ad.add(var, Tensor(eps)))
    return ad.add(ad.mul(ad.div(centered, denom), gain), bias)


def composed_skip_gate_proj(y, u, gate, d_skip, w):
    return ad.matmul(ad.mul(y + ad.mul(u, d_skip), gate), w)


def composed_gelu_mlp(h, w1, b1, w2, b2):
    return ad.matmul(ad.gelu(ad.matmul(h, w1) + b1), w2) + b2


def composed_silu_proj(x, w):
    return ad.silu(ad.matmul(x, w))


def composed_softplus_proj(x, w, b):
    return ad.softplus(ad.matmul(x, w) + b)


def composed_linear(x, w, b):
    return ad.matmul(x, w) + b


def composed_head_proj(x, w, b, affine=None):
    out = ad.swapaxes(ad.matmul(x, w) + b, 1, 2)
    if affine is not None:
        shift, scale = affine
        out = ad.mul(out, Tensor(scale)) + Tensor(shift)
    return out


def composed_residual_sum(views, z):
    total = views[0]
    for v in views[1:]:
        total = total + v
    return total + z


def composed_mse(pred, target):
    d = ad.sub(pred, target)
    return ad.tmean(ad.mul(d, d))


def recorded_block(block, z, orders=(None,), labels=None):
    """``CDMambaBlock.forward_orders`` without the checkpoint: ``pre``,
    ``core`` and ``post`` recorded on the tape, node by node."""
    tokens = block.pre(z)
    scanned, _ = block.core(tokens, orders, labels)
    return [
        blocks.skip_gate_proj(y, u, tokens.gate, block.ssm.d_skip, block.w_out)
        for y, u in scanned
    ]


def recorded(parents, run):
    """``autodiff.checkpoint`` without the checkpoint: ``run``'s ops recorded
    on the tape, node by node."""
    return run(None, False)[0]


def _inputs(op: str, shape, seed=0):
    """The op's parents as arrays, and its output shape, at a token shape
    (batch, tokens, d_model); the scan width is 2 * d_model and the step
    size's rank ceil(d_model / 16), as in the model."""
    rng = np.random.default_rng(seed)
    b, c, d = shape
    out_shape = (b, c, d)
    if op == "layer_norm":
        arrays = [rng.normal(size=shape), rng.uniform(0.5, 1.5, size=d), rng.normal(size=d)]
    elif op == "skip_gate_proj":
        arrays = [rng.normal(size=(b, c, 2 * d)) for _ in range(3)]
        arrays += [rng.normal(size=2 * d), rng.normal(size=(2 * d, d)) / d]
    elif op == "gelu_mlp":
        arrays = [rng.normal(size=shape), rng.normal(size=(d, 2 * d)) / d]
        arrays += [rng.normal(size=2 * d), rng.normal(size=(2 * d, d)) / d, rng.normal(size=d)]
    elif op == "mse":
        arrays = [rng.normal(size=shape), rng.normal(size=shape)]
        out_shape = ()
    elif op == "silu_proj":
        arrays = [rng.normal(size=shape), rng.normal(size=(d, 2 * d)) / np.sqrt(d)]
        out_shape = (b, c, 2 * d)
    elif op == "linear":
        arrays = [rng.normal(size=shape), rng.normal(size=(d, d)) / np.sqrt(d), rng.normal(size=d)]
    elif op.startswith("head_proj"):
        arrays = [rng.normal(size=shape), rng.normal(size=(d, HORIZON)) / np.sqrt(d)]
        arrays.append(rng.normal(size=HORIZON))
        out_shape = (b, HORIZON, c)
    elif op.startswith("residual_sum"):
        # two views and the residual, or one view and the residual
        arrays = [rng.normal(size=shape) for _ in range(3 if op == "residual_sum" else 2)]
    else:
        rank = -(-d // 16)
        arrays = [rng.normal(size=(b, c, rank)), rng.normal(size=(rank, 2 * d))]
        arrays.append(rng.normal(size=2 * d))
        out_shape = (b, c, 2 * d)
    return arrays, out_shape


def _affine(x):
    """The instance norm's (mu, sd) for tokens ``x`` [B, C, K]: [B, 1, C]
    constants, drawn from ``x``'s shape alone."""
    b, c, _ = x.shape
    rng = np.random.default_rng(11)
    return rng.normal(size=(b, 1, c)), rng.uniform(0.5, 2.0, size=(b, 1, c))


OPS = {
    "layer_norm": (ad.layer_norm, composed_layer_norm),
    "skip_gate_proj": (ad.skip_gate_proj, composed_skip_gate_proj),
    "gelu_mlp": (ad.gelu_mlp, composed_gelu_mlp),
    "silu_proj": (ad.silu_proj, composed_silu_proj),
    "softplus_proj": (ad.softplus_proj, composed_softplus_proj),
    "linear": (ad.linear, composed_linear),
    "head_proj": (
        lambda x, w, b: ad.head_proj(x, w, b, _affine(x.data)),
        lambda x, w, b: composed_head_proj(x, w, b, _affine(x.data)),
    ),
    "head_proj_no_affine": (ad.head_proj, composed_head_proj),
    "residual_sum": (
        lambda v1, v2, z: ad.residual_sum((v1, v2), z),
        lambda v1, v2, z: composed_residual_sum((v1, v2), z),
    ),
    "residual_sum_one": (
        lambda v, z: ad.residual_sum((v,), z),
        lambda v, z: composed_residual_sum((v,), z),
    ),
    "mse": (ls.mse, composed_mse),
}


def _run(fn, arrays, flags, g):
    """Value and parents' gradients of sum(fn(...) * g)."""
    parents = [Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]
    out = fn(*parents)
    if out.requires_grad:
        ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
    return out.data, [p.grad for p in parents]


def _bits(a):
    return None if a is None else (a.shape, a.tobytes())


class TestSameBitsAsComposed:
    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("op", OPS)
    def test_value_and_every_gradient_at_workload_shapes(self, op, shape):
        fused, composed = OPS[op]
        arrays, out_shape = _inputs(op, shape)
        g = np.random.default_rng(1).normal(size=out_shape)
        flags = [True] * len(arrays)
        got_value, got_grads = _run(fused, arrays, flags, g)
        want_value, want_grads = _run(composed, arrays, flags, g)
        assert _bits(got_value) == _bits(want_value)
        for got, want in zip(got_grads, want_grads):
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("op", OPS)
    def test_each_subset_of_parents_taking_gradients(self, op):
        # a frozen parent gets no gradient, and the others are unchanged
        fused, composed = OPS[op]
        arrays, out_shape = _inputs(op, (3, 5, 4), seed=2)
        g = np.random.default_rng(3).normal(size=out_shape)
        for flags in itertools.product((False, True), repeat=len(arrays)):
            got_value, got_grads = _run(fused, arrays, flags, g)
            want_value, want_grads = _run(composed, arrays, flags, g)
            assert _bits(got_value) == _bits(want_value), flags
            assert [_bits(t) for t in got_grads] == [_bits(t) for t in want_grads], flags

    def test_zeros_in_the_upstream_gradient_and_gain(self):
        # exact zeros make signed zeros inside the vjp; what leaves it is
        # still the composed graph's bits
        arrays, out_shape = _inputs("layer_norm", (4, 3, 6), seed=4)
        arrays[1][::2] = 0.0
        arrays[1][1] = -1.0
        g = np.random.default_rng(5).normal(size=out_shape)
        g[0] = 0.0
        g[1, :, ::2] = -0.0
        flags = [True] * 3
        got = _run(ad.layer_norm, arrays, flags, g)
        want = _run(composed_layer_norm, arrays, flags, g)
        assert _bits(got[0]) == _bits(want[0])
        assert [_bits(t) for t in got[1]] == [_bits(t) for t in want[1]]

    def test_mse_with_zero_differences_and_a_zero_upstream_gradient(self):
        # d = +0 where pred equals target and -0 where -0 meets +0; a -0
        # upstream gradient makes every product a signed zero
        pred, target = _inputs("mse", (4, 3, 6), seed=8)[0]
        pred[0] = target[0]
        pred[1, 0], target[1, 0] = -0.0, 0.0
        for g in (np.random.default_rng(9).normal(), 0.0, -0.0):
            got = _run(ls.mse, [pred, target], [True, True], np.array(g))
            want = _run(composed_mse, [pred, target], [True, True], np.array(g))
            assert _bits(got[0]) == _bits(want[0])
            assert [_bits(t) for t in got[1]] == [_bits(t) for t in want[1]], g

    @pytest.mark.parametrize(
        "direction, conv",
        [("uni", False), ("bi", False), ("uni", True)],
        ids=["uni", "bi", "uni-conv"],
    )
    def test_model_gradients_equal_the_composed_model(self, direction, conv, monkeypatch):
        # two views share u and gate through two post stages, pre feeds u to
        # the scan, its projections and the skip term, and each layer chains
        # LayerNorm, MLP, LayerNorm: every parameter's gradient must equal the
        # composed model's. With the conv, u's projection stays a plain matmul
        def grads(model):
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(3, 8, 5)))
            pred, pairs = model.forecast(x)
            loss = ad.tsum(ad.mul(pred, pred))
            for z1, z2 in pairs:
                d = ad.sub(z1, z2)
                loss = ad.add(loss, ad.tsum(ad.mul(d, d)))
            ad.backward(loss)
            return float(loss.data), [(n, _bits(t.grad)) for n, t in model.param_items()]

        cfg = md.ModelConfig(
            lookback=8, horizon=4, n_channels=5, d_model=6, n_layers=2, d_state=4,
            direction=direction, conv=conv,
        )
        fused = grads(md.SORMambaModel(cfg, seed=3))
        monkeypatch.setattr(blocks.CDMambaBlock, "forward_orders", recorded_block)
        monkeypatch.setattr(md, "checkpoint", recorded)
        monkeypatch.setattr(md, "layer_norm", composed_layer_norm)
        monkeypatch.setattr(md, "gelu_mlp", composed_gelu_mlp)
        monkeypatch.setattr(md, "linear", composed_linear)
        monkeypatch.setattr(md, "head_proj", composed_head_proj)
        monkeypatch.setattr(md, "residual_sum", composed_residual_sum)
        monkeypatch.setattr(blocks, "skip_gate_proj", composed_skip_gate_proj)
        monkeypatch.setattr(blocks, "silu_proj", composed_silu_proj)
        monkeypatch.setattr(ssm, "softplus_proj", composed_softplus_proj)
        assert fused == grads(md.SORMambaModel(cfg, seed=3))


class TestFiniteDifference:
    @pytest.mark.parametrize("op", OPS)
    def test_every_parent(self, op):
        fused, _ = OPS[op]
        arrays, out_shape = _inputs(op, (2, 3, 4), seed=6)
        g = Tensor(np.random.default_rng(7).normal(size=out_shape))
        for i in range(len(arrays)):
            parents = [Tensor(a) for a in arrays]

            def f(t, i=i, parents=parents):
                args = list(parents)
                args[i] = t
                return ad.tsum(ad.mul(fused(*args), g))

            assert ad.check_gradients(f, Tensor(arrays[i])) < 1e-7, (op, i)


def _kept_bytes(fn, parents):
    """Bytes that stay allocated once ``fn(*parents)`` has returned, and its
    output."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*parents)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return kept, out


# the Tensor, its parent tuple, the closure and its cells
OBJECT_SLACK = 8 * 1024


class TestKeptMemory:
    """After a recorded forward, a fused op holds its output and only what
    its vjp is documented to keep: layer_norm two [..., 1] arrays, head_proj
    its [B, 1, C] scale, mse the difference, every other op nothing more."""

    SHAPE = (8, 137, 64)

    def _extra(self, op, parents):
        rows = self.SHAPE[0] * self.SHAPE[1]
        if op == "layer_norm":
            return 2 * rows * 8
        if op == "head_proj":
            return rows * 8
        if op == "mse":
            return parents[0].data.nbytes
        return 0

    @pytest.mark.parametrize("op", OPS)
    def test_recorded_forward_keeps_only_what_the_vjp_reads(self, op):
        fused, _ = OPS[op]
        arrays, _ = _inputs(op, self.SHAPE)
        parents = [Tensor(a, requires_grad=True) for a in arrays]
        kept, out = _kept_bytes(fused, parents)
        assert out.requires_grad
        assert kept <= out.data.nbytes + self._extra(op, parents) + OBJECT_SLACK

    @pytest.mark.parametrize("op", OPS)
    def test_no_grad_forward_keeps_only_its_output(self, op):
        fused, _ = OPS[op]
        arrays, _ = _inputs(op, self.SHAPE)
        parents = [Tensor(a, requires_grad=True) for a in arrays]
        with ad.no_grad():
            kept, out = _kept_bytes(fused, parents)
        assert not out.requires_grad
        assert kept <= out.data.nbytes + OBJECT_SLACK

    def test_recorded_pre_keeps_its_outputs_and_no_pre_activation(self):
        # a block's pre at train-solar's token shape: u, gate and delta, and
        # the narrow b_t, c_t and low-rank input of delta; no sigmoid and no
        # pre-activation
        batch, tokens, d_model = self.SHAPE
        cfg = md.ModelConfig(lookback=8, horizon=4, n_channels=tokens, d_model=d_model)
        block = blocks.CDMambaBlock(
            d_model, cfg.d_inner, cfg.d_state, cfg.resolved_dt_rank, np.random.default_rng(0)
        )
        z = Tensor(np.random.default_rng(1).normal(size=self.SHAPE), requires_grad=True)
        kept, out = _kept_bytes(block.pre, [z])
        delta, b_t, c_t = out.scan_in
        wide = batch * tokens * cfg.d_inner * 8
        low = batch * tokens * cfg.resolved_dt_rank * 8
        # A = -exp(a_log) and the exp it was taken from, [d_inner, d_state]
        a = 2 * out.a.data.nbytes
        assert delta.requires_grad and out.u.requires_grad and out.gate.requires_grad
        allowed = 3 * wide + b_t.data.nbytes + c_t.data.nbytes + low + a
        assert kept <= allowed + 8 * OBJECT_SLACK

    def test_recorded_absolute_keeps_only_its_output(self):
        # the l1 consistency term's |z1 - z2|: the vjp rebuilds the sign from
        # its parent, so the forward keeps no sign array
        z = Tensor(np.random.default_rng(2).normal(size=self.SHAPE), requires_grad=True)
        kept, out = _kept_bytes(ad.absolute, [z])
        assert out.requires_grad
        assert kept <= out.data.nbytes + OBJECT_SLACK

    @pytest.mark.parametrize("conv", [False, True], ids=["no-conv", "conv"])
    @pytest.mark.parametrize("orders", [1, 2], ids=["one-walk", "two-walks"])
    def test_recorded_block_keeps_only_z_the_scans_and_its_outputs(self, conv, orders):
        # z is the op's parent and already held; the op keeps each walk's y
        # and its outputs, and none of pre's outputs or the conv's taps
        batch, tokens, d_model = self.SHAPE
        block = blocks.CDMambaBlock(
            d_model, 2 * d_model, 16, 4, np.random.default_rng(0), conv_kernel=4 if conv else 0
        )
        z = Tensor(np.random.default_rng(1).normal(size=self.SHAPE), requires_grad=True)
        walks = (None, np.arange(tokens)[::-1])[:orders]
        with ad.no_grad():  # the scan kernels' workspace lives on
            block.forward_orders(z, walks)
        kept, outs = _kept_bytes(lambda z: block.forward_orders(z, walks), [z])
        assert all(out.requires_grad for out in outs)
        ys = orders * batch * tokens * 2 * d_model * 8
        assert kept <= ys + sum(out.data.nbytes for out in outs) + 4 * OBJECT_SLACK

    def test_recorded_tail_keeps_nothing_but_its_output(self):
        # the views and z are the op's parents and already held; the views'
        # sum, both LayerNorms and the MLP live only in its backward
        batch, tokens, d_model = self.SHAPE
        cfg = md.ModelConfig(lookback=8, horizon=4, n_channels=tokens, d_model=d_model)
        layer = md._Layer(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        parents = [Tensor(rng.normal(size=self.SHAPE), requires_grad=True) for _ in range(3)]
        kept, out = _kept_bytes(
            lambda v1, v2, z: md.SORMambaModel._tail(layer, [v1, v2], z), parents
        )
        assert out.requires_grad
        assert kept <= out.data.nbytes + 4 * OBJECT_SLACK


MIB = 2**20


class TestVjpMemory:
    """What a vjp allocates on top of what it is handed, and what the loss
    keeps for its vjp."""

    def test_second_skip_gate_proj_vjp_holds_at_most_three_full_size_arrays(self):
        # two views' post stages share u, the gate, d_skip and w, so the
        # second vjp adds into their gradients. The skipped sum, its gated
        # product and the gated product's gradient are live at once; the
        # gate's gradient and g_s are written into two of them (4.34 MiB
        # when each was a fresh array, 3.27 now)
        rng = np.random.default_rng(12)
        shape, d_out = (8, 137, 128), 64
        y1, y2, u, gate = (
            Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(4)
        )
        d_skip = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        w = Tensor(rng.normal(size=(shape[-1], d_out)) / shape[-1], requires_grad=True)
        out1 = ad.skip_gate_proj(y1, u, gate, d_skip, w)
        out2 = ad.skip_gate_proj(y2, u, gate, d_skip, w)
        g = rng.normal(size=out1.shape)
        out2._vjp(g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out1._vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / MIB <= 3.5

    def test_mse_against_data_keeps_only_the_difference(self):
        # a data target (the batch's y) is read in the forward only
        rng = np.random.default_rng(13)
        pred = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
        target = rng.normal(size=(4, 3, 5))
        out = ls.mse(pred, target)
        held = [
            c.cell_contents
            for c in out._vjp.__closure__
            if isinstance(c.cell_contents, np.ndarray)
        ]
        assert len(held) == 1
        np.testing.assert_array_equal(held[0], pred.data - target)


def _model_grads(cfg, twice=False, rng_seed=7):
    """The forecast, the training loss and every gradient (the parameters'
    and the input's) of one ``forecast`` and ``total_loss`` on seeded data,
    the views drawn from ``rng_seed``, after one ``backward`` or two."""
    model = md.SORMambaModel(cfg, seed=7)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, cfg.lookback, cfg.n_channels)), requires_grad=True)
    target = rng.normal(size=(3, cfg.horizon, cfg.n_channels))
    pred, pairs = model.forecast(x, rng=np.random.default_rng(rng_seed))
    loss = ls.total_loss(pred, target, pairs, cfg.reg_weight, cfg.reg_metric).total
    for _ in range(2 if twice else 1):
        ad.backward(loss)
    assert pred.grad is None and all(z.grad is None for pair in pairs for z in pair)
    grads = [(n, _bits(t.grad)) for n, t in model.param_items()] + [("x", _bits(x.grad))]
    return _bits(pred.data), _bits(loss.data), grads, pairs


def _variant_config(**overrides):
    kw = dict(
        lookback=16, horizon=8, n_channels=5, d_model=8, n_layers=2, d_state=4,
        reg_weight=0.1, conv_kernel=3,
    )
    kw.update(overrides)
    return md.ModelConfig(**kw)


class TestCheckpointedBlock:
    """A recorded block is one op that keeps z, the scans' y and its outputs,
    and rebuilds the rest in its backward: the model's value and every
    gradient must equal those of the three stages recorded node by node."""

    @pytest.mark.parametrize("direction", blocks.DIRECTIONS)
    @pytest.mark.parametrize("conv", [False, True], ids=["no-conv", "conv"])
    @pytest.mark.parametrize("order_mode", blocks.ORDER_MODES)
    @pytest.mark.parametrize("discretization", ssm.DISCRETIZATIONS)
    def test_model_value_and_every_gradient_equal_the_recorded_stages(
        self, direction, conv, order_mode, discretization, monkeypatch
    ):
        cfg = _variant_config(
            direction=direction, conv=conv, order_mode=order_mode, discretization=discretization
        )
        got = _model_grads(cfg)[:3]
        monkeypatch.setattr(blocks.CDMambaBlock, "forward_orders", recorded_block)
        assert got == _model_grads(cfg)[:3]

    @pytest.mark.parametrize("direction", blocks.DIRECTIONS)
    @pytest.mark.parametrize("conv", [False, True], ids=["no-conv", "conv"])
    @pytest.mark.parametrize("rng_seed", [0, 5], ids=["identity-twice", "swap-twice"])
    def test_merged_walks_equal_the_recorded_stages(self, direction, conv, rng_seed, monkeypatch):
        # random-pair at two channels draws [0, 1] twice from seed 0 and
        # [1, 0] twice from seed 5: one walk serves both views, and under
        # uni both views are its one output
        cfg = _variant_config(
            n_channels=2, n_layers=1, direction=direction, conv=conv, order_mode="random-pair"
        )
        *got, pairs = _model_grads(cfg, rng_seed=rng_seed)
        ((z1, z2),) = pairs
        assert (z1 is z2) == (direction == "uni")
        monkeypatch.setattr(blocks.CDMambaBlock, "forward_orders", recorded_block)
        assert got == list(_model_grads(cfg, rng_seed=rng_seed)[:3])

    @pytest.mark.parametrize("direction", blocks.DIRECTIONS)
    @pytest.mark.parametrize("conv", [False, True], ids=["no-conv", "conv"])
    def test_second_backward_adds_the_same_gradients_again(self, direction, conv, monkeypatch):
        # the op's backward rebuilds its sub-tape on every call, so a second
        # backward on one loss adds each leaf's shares again, in the same
        # order as the recorded stages. Under bi every parameter and the
        # input take one share per backward, which doubles exactly; under
        # uni a shared block's parameters take one share per view, and
        # (s + c1) + c2 need not be 2 s, so there the recorded stages' bits
        # are the reference
        cfg = _variant_config(direction=direction, conv=conv)
        once = _model_grads(cfg)[2]
        twice = _model_grads(cfg, twice=True)[2]
        monkeypatch.setattr(blocks.CDMambaBlock, "forward_orders", recorded_block)
        assert twice == _model_grads(cfg, twice=True)[2]
        if direction == "bi":
            for (name, one), (_, two) in zip(once, twice):
                if one is not None:  # the side heads take no gradient
                    assert (2 * np.frombuffer(one[1])).tobytes() == two[1], name


class TestCheckpointedTail:
    """A recorded layer tail (the views' sum with the residual, LayerNorm,
    the MLP, LayerNorm) is one op that keeps nothing and records its ops
    again in its backward: the model's value and every gradient must equal
    those of the tail recorded op by op."""

    @pytest.mark.parametrize("reg_metric", ls.REG_METRICS)
    @pytest.mark.parametrize("direction", blocks.DIRECTIONS)
    @pytest.mark.parametrize("conv", [False, True], ids=["no-conv", "conv"])
    @pytest.mark.parametrize("order_mode", blocks.ORDER_MODES)
    @pytest.mark.parametrize("discretization", ssm.DISCRETIZATIONS)
    def test_model_value_and_every_gradient_equal_the_recorded_tail(
        self, direction, conv, order_mode, discretization, reg_metric, monkeypatch
    ):
        cfg = _variant_config(
            direction=direction, conv=conv, order_mode=order_mode,
            discretization=discretization, reg_metric=reg_metric,
        )
        got = _model_grads(cfg)[:3]
        monkeypatch.setattr(md, "checkpoint", recorded)
        assert got == _model_grads(cfg)[:3]

    @pytest.mark.parametrize("reg_weight", [0.0, 0.1])
    @pytest.mark.parametrize("two_view", [True, False], ids=["two-view", "one-view"])
    def test_with_and_without_the_penalty_and_with_one_view(self, reg_weight, two_view, monkeypatch):
        # without the penalty the views take gradient through the tail
        # alone; with one view the tail sums one view and z
        cfg = _variant_config(reg_weight=reg_weight, two_view=two_view)
        got = _model_grads(cfg)[:3]
        monkeypatch.setattr(md, "checkpoint", recorded)
        assert got == _model_grads(cfg)[:3]

    @pytest.mark.parametrize("direction", blocks.DIRECTIONS)
    def test_second_backward_adds_the_same_gradients_again(self, direction, monkeypatch):
        # the tail's backward records its ops again on every call
        cfg = _variant_config(direction=direction)
        twice = _model_grads(cfg, twice=True)[2]
        monkeypatch.setattr(md, "checkpoint", recorded)
        assert twice == _model_grads(cfg, twice=True)[2]
