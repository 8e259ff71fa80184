"""Block and encoder tests: shapes, parameter accounting, causality, views."""

import numpy as np
import pytest

from sormamba import autodiff as ad
from sormamba import blocks as bl
from sormamba.autodiff import Tensor, backward, mul, tsum


def _rng(seed=0):
    return np.random.default_rng(seed)


def make_block(conv, d_model=6, d_inner=12, d_state=4, dt_rank=2, seed=0, kernel=4):
    return bl.build_block(
        d_model, d_inner, d_state, dt_rank, _rng(seed), conv=conv, conv_kernel=kernel
    )


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
        got = block._pre_scan(Tensor(u)).data
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
            assert delta == bl.conv_removal_saving(12, kernel)
            assert _size(with_conv, "conv.") == 12 * (kernel + 1)

    def test_bi_is_exactly_double_uni(self):
        kw = dict(d_model=6, n_tokens=5, d_inner=12, d_state=4, dt_rank=2)
        uni = bl.DirectionalEncoderCD(direction="uni", rng=_rng(0), **kw)
        bi = bl.DirectionalEncoderCD(direction="bi", rng=_rng(0), **kw)
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


class TestDirectionalEncoder:
    def make(self, direction="uni", order_mode="fixed-reverse", seed=0, n_tokens=5):
        return bl.DirectionalEncoderCD(
            d_model=6,
            n_tokens=n_tokens,
            direction=direction,
            rng=_rng(seed),
            d_inner=12,
            d_state=4,
            dt_rank=2,
            order_mode=order_mode,
        )

    def test_fixed_reverse_views(self):
        enc = self.make()
        z = Tensor(_rng(1).normal(size=(2, 5, 6)))
        z1, z2 = enc.forward_pair(z)
        np.testing.assert_array_equal(z1.data, enc.blocks[0](z).data)
        rev = np.arange(5)[::-1]
        manual = ad.take_axis(enc.blocks[0](ad.take_axis(z, rev, 1)), rev, 1)
        np.testing.assert_array_equal(z2.data, manual.data)

    def test_apply_view_realigns_permutation(self):
        # with a token-local stub block, permuting then unpermuting is exact
        scale = Tensor(np.full((1, 1, 6), 2.0))
        stub = lambda t: mul(t, scale)
        z = Tensor(_rng(2).normal(size=(3, 5, 6)))
        perm = _rng(3).permutation(5)
        out = bl.DirectionalEncoderCD._apply_view(stub, z, perm)
        np.testing.assert_array_equal(out.data, 2.0 * z.data)

    def test_random_modes_deterministic_without_rng(self):
        for mode in ("fixed-random", "random-pair", "random-reverse"):
            enc = self.make(order_mode=mode)
            z = Tensor(_rng(4).normal(size=(2, 5, 6)))
            a1, a2 = enc.forward_pair(z)
            b1, b2 = enc.forward_pair(z)
            np.testing.assert_array_equal(a1.data, b1.data)
            np.testing.assert_array_equal(a2.data, b2.data)

    def test_random_pair_uses_rng_when_given(self):
        enc = self.make(order_mode="random-pair", n_tokens=16)
        z = Tensor(_rng(5).normal(size=(1, 16, 6)))
        a1, _ = enc.forward_pair(z, rng=_rng(10))
        b1, _ = enc.forward_pair(z, rng=_rng(11))
        assert not np.array_equal(a1.data, b1.data)

    def test_random_reverse_views_are_mirrors(self):
        enc = self.make(order_mode="random-reverse", n_tokens=8)
        rng = _rng(6)
        v1, v2 = enc._views(rng)
        np.testing.assert_array_equal(v2, v1[::-1])

    def test_bi_uses_independent_blocks(self):
        enc = self.make(direction="bi")
        z = Tensor(_rng(7).normal(size=(2, 5, 6)))
        z1, z2 = enc.forward_pair(z)
        backward(tsum(z1 + z2))
        for name, t in enc.param_items():
            assert t.grad is not None, f"no gradient for {name}"
        b0 = enc.blocks[0].w_in_x.data
        b1 = enc.blocks[1].w_in_x.data
        assert not np.array_equal(b0, b1)

    def test_shape_and_mode_validation(self):
        with pytest.raises(ValueError, match="direction"):
            self.make(direction="tri")
        with pytest.raises(ValueError, match="order_mode"):
            self.make(order_mode="sorted")
        enc = self.make()
        with pytest.raises(ValueError, match="expected"):
            enc.forward_pair(Tensor(np.zeros((2, 4, 6))))
