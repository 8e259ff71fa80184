"""Block and encoder tests: shapes, parameter accounting, causality, views."""

import numpy as np
import pytest

from sormamba import autodiff as ad
from sormamba import blocks as bl
from sormamba import scan_kernels
from sormamba.autodiff import Tensor, backward, mul, tsum
from sormamba.losses import total_loss
from sormamba.model import ModelConfig, SORMambaModel


def _rng(seed=0):
    return np.random.default_rng(seed)


def make_block(conv, d_model=6, d_inner=12, d_state=4, dt_rank=2, seed=0, kernel=4):
    return bl.CDMambaBlock(
        d_model, d_inner, d_state, dt_rank, _rng(seed), conv_kernel=kernel if conv else 0
    )


def make_config(**overrides):
    # d_inner = expand * d_model = 12
    kw = dict(lookback=8, horizon=3, n_channels=5, d_model=6, d_state=4, dt_rank=2)
    kw.update(overrides)
    return ModelConfig(**kw)


class TestBlockForward:
    def test_output_shape(self):
        for conv in (False, True):
            block = make_block(conv)
            z = Tensor(_rng(1).normal(size=(3, 5, 6)))
            out = block(z)
            assert out.shape == (3, 5, 6)
            assert np.all(np.isfinite(out.data))

    def test_causal_along_token_axis(self):
        # zeroing tokens after position k must not change outputs at <= k
        for conv in (False, True):
            block = make_block(conv, seed=3)
            x = _rng(4).normal(size=(2, 7, 6))
            full = block(Tensor(x)).data
            for k in (0, 3, 5):
                trunc = x.copy()
                trunc[:, k + 1 :, :] = 0.0
                out = block(Tensor(trunc)).data
                np.testing.assert_array_equal(out[:, : k + 1], full[:, : k + 1])

    def test_conv_matches_reference(self):
        block = make_block(True, kernel=3, seed=5)
        u = _rng(6).normal(size=(2, 6, 12))
        got = block._conv(Tensor(u)).data
        w = block.w_conv.data
        b = block.b_conv.data
        k = block.conv_kernel
        want = np.zeros_like(u)
        for t in range(u.shape[1]):
            want[:, t] = b
            for j in range(k):
                src = t - (k - 1 - j)
                if src >= 0:
                    want[:, t] += w[j] * u[:, src]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gradients_reach_all_parameters(self):
        for conv in (False, True):
            block = make_block(conv, seed=7)
            z = Tensor(_rng(8).normal(size=(2, 4, 6)), requires_grad=True)
            backward(tsum(mul(block(z), block(z))))
            for name, t in block.param_items():
                assert t.grad is not None, f"no gradient for {name}"
                assert np.any(t.grad != 0.0), f"zero gradient for {name}"
            assert z.grad is not None

    def test_negative_conv_kernel_rejected(self):
        with pytest.raises(ValueError, match="conv_kernel"):
            bl.CDMambaBlock(6, 12, 4, 2, _rng(0), conv_kernel=-1)


def _size(obj, prefix=""):
    """Scalars in the parameters of ``obj`` whose names start with ``prefix``."""
    return sum(t.size for name, t in obj.param_items() if name.startswith(prefix))


class TestParameterAccounting:
    def test_block_count_formula(self):
        d, di, n, r = 6, 12, 4, 2
        block = make_block(False, d, di, n, r)
        in_proj, ssm, out_proj = 2 * d * di, 3 * di * n + 2 * di + 2 * di * r, di * d
        assert _size(block, "in_proj.") == in_proj
        assert _size(block, "ssm.") == ssm
        assert _size(block, "out_proj") == out_proj
        assert _size(block, "conv.") == 0
        assert _size(block) == in_proj + ssm + out_proj

    def test_conv_delta_is_exact(self):
        for kernel in (2, 4, 7):
            with_conv = make_block(True, kernel=kernel)
            delta = _size(with_conv) - _size(make_block(False))
            assert delta == 12 * (kernel + 1)
            assert _size(with_conv, "conv.") == 12 * (kernel + 1)

    def test_bi_is_exactly_double_uni(self):
        uni = bl.DirectionalEncoderCD(make_config(direction="uni"), _rng(0))
        bi = bl.DirectionalEncoderCD(make_config(direction="bi"), _rng(0))
        assert _size(bi) == 2 * _size(uni)
        assert len(uni.blocks) == 1
        assert len(bi.blocks) == 2

    def test_large_config_reference_counts(self):
        # the published large-channel configuration: d_model 512, expand 2,
        # state 32, dt rank 32, two layers
        d, di, n, r = 512, 1024, 32, 32
        per_block = _size(make_block(False, d, di, n, r))
        assert per_block == 1_738_752
        assert 2 * per_block == 3_477_504          # two layers, uni
        assert 2 * 2 * per_block == 6_955_008      # two layers, bi

    def test_encoder_sizes_come_from_the_config(self):
        # d_inner = expand * d_model, dt_rank = ceil(d_model / 16) when unset
        cfg = make_config(d_model=20, expand=3, dt_rank=None, conv=True, conv_kernel=2)
        shapes = dict(bl.DirectionalEncoderCD(cfg, _rng(0)).param_items())
        assert shapes["block0.in_proj.x"].shape == (20, 60)
        assert shapes["block0.conv.weight"].shape == (2, 60)
        assert shapes["block0.ssm.w_dt_down"].shape == (60, 2)
        assert shapes["block0.out_proj"].shape == (60, 20)


# The checkpoint contract: every parameter name and shape, in registry order.
_BLOCK_ITEMS = [
    ("in_proj.x", (6, 12)),
    ("in_proj.gate", (6, 12)),
    ("ssm.a_log", (12, 4)),
    ("ssm.d_skip", (12,)),
    ("ssm.w_dt_down", (12, 2)),
    ("ssm.w_dt_up", (2, 12)),
    ("ssm.b_dt", (12,)),
    ("ssm.w_b", (12, 4)),
    ("ssm.w_c", (12, 4)),
    ("out_proj", (12, 6)),
]
_CONV_ITEMS = [("conv.weight", (3, 12)), ("conv.bias", (12,))]
_LAYER_ITEMS = [
    ("ln1.gain", (6,)),
    ("ln1.bias", (6,)),
    ("mlp.w1", (6, 12)),
    ("mlp.b1", (12,)),
    ("mlp.w2", (12, 6)),
    ("mlp.b2", (6,)),
    ("ln2.gain", (6,)),
    ("ln2.bias", (6,)),
]
_HEAD_ITEMS = [
    ("head.w", (6, 3)),
    ("head.b", (3,)),
    ("ccm.w", (6, 6)),
    ("ccm.b", (6,)),
    ("rec.w", (6, 8)),
    ("rec.b", (8,)),
]


@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("conv", [False, True])
def test_param_items_names_shapes_and_order(direction, conv):
    cfg = make_config(direction=direction, conv=conv, conv_kernel=3)
    block = _BLOCK_ITEMS[:2] + (_CONV_ITEMS if conv else []) + _BLOCK_ITEMS[2:]
    want = [("embed.w", (8, 6)), ("embed.b", (6,))]
    for i in range(1 if direction == "uni" else 2):
        want += [(f"layer0.enc.block{i}.{n}", s) for n, s in block]
    want += [(f"layer0.{n}", s) for n, s in _LAYER_ITEMS] + _HEAD_ITEMS
    got = [(n, t.shape) for n, t in SORMambaModel(cfg, seed=0).param_items()]
    assert got == want


def _pair(enc, z, rng=None):
    """Both views' outputs on z in its own token order."""
    return enc.forward_orderings(z, {0: None}, rng)[0]


def _two_call_pair(enc, z, rng):
    """Each view as its own block call on gathered tokens, put back after."""
    outs = []
    for block, view in zip(enc.blocks * 2, enc._views(rng)):
        if view is None:
            outs.append(block(z))
        else:
            out = block(ad.take_axis(z, view, axis=1))
            outs.append(ad.take_axis(out, np.argsort(view), axis=1))
    return outs


def _assert_pair_matches_two_calls(enc, n_tokens, rng_seed, weight_seeds=(2, 3)):
    """``_pair`` against ``_two_call_pair`` under the views ``_rng(rng_seed)``
    draws, each view's output weighted by ``_rng(seed)`` of ``weight_seeds``
    in the objective: values bit for bit, gradients up to reduction order."""
    z = Tensor(_rng(1).normal(size=(3, n_tokens, 6)), requires_grad=True)
    weights = [Tensor(_rng(seed).normal(size=(3, n_tokens, 6))) for seed in weight_seeds]
    tensors = [t for _, t in enc.param_items()] + [z]
    results = []
    for pair in (_pair, _two_call_pair):
        for t in tensors:
            t.grad = None
        outs = pair(enc, z, _rng(rng_seed))
        backward(tsum(mul(outs[0], weights[0])) + tsum(mul(outs[1], weights[1])))
        results.append(([o.data for o in outs], [t.grad.copy() for t in tensors]))
    (shared, shared_grads), (ref, ref_grads) = results
    for got, want in zip(shared, ref):
        assert got.tobytes() == want.tobytes()
    names = [n for n, _ in enc.param_items()] + ["z"]
    for name, got, want in zip(names, shared_grads, ref_grads):
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want)), name


@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("conv", [False, True])
@pytest.mark.parametrize("order_mode", bl.ORDER_MODES)
@pytest.mark.parametrize("discretization", ["euler-b", "zoh-exact"])
def test_shared_stages_match_two_block_calls(direction, conv, order_mode, discretization):
    # forward_orderings shares the per-token stages between the views
    cfg = make_config(
        n_channels=7, direction=direction, conv=conv, conv_kernel=3,
        order_mode=order_mode, discretization=discretization,
    )
    _assert_pair_matches_two_calls(bl.DirectionalEncoderCD(cfg, _rng(0)), 7, 4)


@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("conv", [False, True])
@pytest.mark.parametrize(
    "n_tokens, order_mode, rng_seed",
    [
        (2, "random-pair", 0),  # draws [0, 1] twice
        (2, "random-pair", 5),  # draws [1, 0] twice
        (1, "random-reverse", 4),  # [0] and its mirror [0]
    ],
)
def test_coinciding_views_match_two_block_calls(direction, conv, n_tokens, order_mode, rng_seed):
    # views with equal orders are one walk under uni: one scan, one output
    # that both views share; under bi each view still has its own block.
    # Both views get one weight: the shared output's backward then starts
    # from w + w = 2w, exact, where distinct weights would add a rounding
    # the two block calls never make
    cfg = make_config(
        n_channels=n_tokens, direction=direction, conv=conv, conv_kernel=3, order_mode=order_mode
    )
    enc = bl.DirectionalEncoderCD(cfg, _rng(0))
    v1, v2 = enc._views(_rng(rng_seed))
    assert np.array_equal(v1, v2)
    z = Tensor(_rng(1).normal(size=(3, n_tokens, 6)))
    y1, y2 = _pair(enc, z, _rng(rng_seed))
    assert (y1 is y2) == (direction == "uni")
    _assert_pair_matches_two_calls(enc, n_tokens, rng_seed, weight_seeds=(2, 2))


def _token_gathers(monkeypatch) -> list:
    """The index lists of the blocks' token gathers from now on."""
    gathered = []
    take_axis = bl.take_axis

    def recording(a, indices, axis):
        if axis == 1:  # token gathers; axis 0 picks the conv's filter rows
            gathered.append(np.asarray(indices).tolist())
        return take_axis(a, indices, axis)

    monkeypatch.setattr(bl, "take_axis", recording)
    return gathered


@pytest.mark.parametrize("two_view", [True, False])
def test_the_given_order_is_never_gathered(monkeypatch, two_view):
    # with the conv on, only a reordered walk gathers tokens and puts them
    # back: under fixed-reverse the reversed walk does, and the identity
    # view, and the one view of a one-view model, gather nothing
    cfg = make_config(n_channels=5, conv=True, conv_kernel=3, n_layers=2, two_view=two_view)
    model = SORMambaModel(cfg, seed=0)
    gathered = _token_gathers(monkeypatch)
    model.forecast(Tensor(_rng(2).normal(size=(3, 8, 5))))
    # per layer: u gathered, then y and u put back
    reverse = [4, 3, 2, 1, 0]
    assert gathered == ([reverse] * 3 * cfg.n_layers if two_view else [])


def test_an_identity_ordering_is_never_gathered(monkeypatch):
    # the analysis passes the given order as np.arange(C); its identity walk
    # gathers nothing either, and only the reversed walk does
    cfg = make_config(n_channels=5, conv=True, conv_kernel=3, n_layers=2)
    model = SORMambaModel(cfg, seed=0)
    gathered = _token_gathers(monkeypatch)
    model.forecast_orderings(Tensor(_rng(2).normal(size=(3, 8, 5))), [np.arange(5)])
    assert gathered == [[4, 3, 2, 1, 0]] * 3 * cfg.n_layers


@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("conv", [False, True])
def test_each_scan_runs_once_forward_and_once_backward(monkeypatch, direction, conv):
    # a block's backward rebuilds its scans around the kept y, so it runs
    # no scan forward: every walk is scanned once each way. Per layer, the
    # one shared block scans both views in one call without a conv and one
    # call per view with it; bi runs one call per view's block
    calls = {"scan_forward": 0, "scan_backward": 0}

    def counted(name, kernel):
        def run(*args):
            calls[name] += 1
            return kernel(*args)

        return run

    for name in calls:
        monkeypatch.setattr(scan_kernels, name, counted(name, getattr(scan_kernels, name)))
    cfg = ModelConfig(
        lookback=16, horizon=4, n_channels=5, d_model=8, n_layers=2, direction=direction,
        conv=conv, reg_weight=0.1,
    )
    model = SORMambaModel(cfg, seed=0)
    x = _rng(3).normal(size=(2, 16, 5))
    pred, pairs = model.forecast(Tensor(x))
    loss = total_loss(pred, _rng(4).normal(size=(2, 4, 5)), pairs, cfg.reg_weight, cfg.reg_metric)
    want = 2 if direction == "uni" and not conv else 4
    assert calls == {"scan_forward": want, "scan_backward": 0}
    backward(loss.total)
    assert calls == {"scan_forward": want, "scan_backward": want}


class TestDirectionalEncoder:
    def make(self, direction="uni", order_mode="fixed-reverse", seed=0, n_tokens=5):
        cfg = make_config(n_channels=n_tokens, direction=direction, order_mode=order_mode)
        return bl.DirectionalEncoderCD(cfg, _rng(seed))

    def test_fixed_reverse_views(self):
        enc = self.make()
        z = Tensor(_rng(1).normal(size=(2, 5, 6)))
        z1, z2 = _pair(enc, z)
        np.testing.assert_array_equal(z1.data, enc.blocks[0](z).data)
        rev = np.arange(5)[::-1]
        manual = ad.take_axis(enc.blocks[0](ad.take_axis(z, rev, 1)), rev, 1)
        np.testing.assert_array_equal(z2.data, manual.data)

    def test_random_modes_deterministic_without_rng(self):
        for mode in ("fixed-random", "random-pair", "random-reverse"):
            enc = self.make(order_mode=mode)
            z = Tensor(_rng(4).normal(size=(2, 5, 6)))
            a1, a2 = _pair(enc, z)
            b1, b2 = _pair(enc, z)
            np.testing.assert_array_equal(a1.data, b1.data)
            np.testing.assert_array_equal(a2.data, b2.data)

    def test_random_pair_uses_rng_when_given(self):
        enc = self.make(order_mode="random-pair", n_tokens=16)
        z = Tensor(_rng(5).normal(size=(1, 16, 6)))
        a1, _ = _pair(enc, z, _rng(10))
        b1, _ = _pair(enc, z, _rng(11))
        assert not np.array_equal(a1.data, b1.data)

    def test_random_reverse_views_are_mirrors(self):
        enc = self.make(order_mode="random-reverse", n_tokens=8)
        rng = _rng(6)
        v1, v2 = enc._views(rng)
        np.testing.assert_array_equal(v2, v1[::-1])

    def test_bi_uses_independent_blocks(self):
        enc = self.make(direction="bi")
        z = Tensor(_rng(7).normal(size=(2, 5, 6)))
        z1, z2 = _pair(enc, z)
        backward(tsum(z1 + z2))
        for name, t in enc.param_items():
            assert t.grad is not None, f"no gradient for {name}"
        b0 = enc.blocks[0].w_in_x.data
        b1 = enc.blocks[1].w_in_x.data
        assert not np.array_equal(b0, b1)

    def test_shape_and_mode_validation(self):
        # ModelConfig is the one place that checks direction and order_mode
        with pytest.raises(ValueError, match="direction"):
            self.make(direction="tri")
        with pytest.raises(ValueError, match="order_mode"):
            self.make(order_mode="sorted")
        enc = self.make()
        with pytest.raises(ValueError, match="expected"):
            _pair(enc, Tensor(np.zeros((2, 4, 6))))
