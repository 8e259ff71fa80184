"""Objective tests with independent oracles and frozen constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sormamba import losses as ls
from sormamba import model as md
from sormamba.autodiff import Tensor, backward, check_gradients, mul, sub, tmean, tsum


class TestPointMetrics:
    def test_mse_oracle(self):
        pred = Tensor(np.array([0.0, 0.0]))
        assert float(ls.mse(pred, np.array([1.0, 3.0])).data) == 5.0
        assert ls.mse_np(np.zeros(2), np.array([1.0, 3.0])) == 5.0

    def test_tensor_and_numpy_agree(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert float(ls.mse(Tensor(a), b).data) == pytest.approx(ls.mse_np(a, b), abs=1e-15)


class TestRegDistance:
    def test_l2_l1_against_numpy(self):
        rng = np.random.default_rng(1)
        z1, z2 = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        got = float(ls.reg_distance(Tensor(z1), Tensor(z2), "l2").data)
        assert got == pytest.approx(np.mean((z1 - z2) ** 2), abs=1e-15)
        got = float(ls.reg_distance(Tensor(z1), Tensor(z2), "l1").data)
        assert got == pytest.approx(np.mean(np.abs(z1 - z2)), abs=1e-15)

    def test_cosine_extremes(self):
        z = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)))
        same = float(ls.reg_distance(z, z, "cosine").data)
        assert same == pytest.approx(0.0, abs=1e-9)
        flipped = float(ls.reg_distance(z, Tensor(-z.data), "cosine").data)
        assert flipped == pytest.approx(2.0, abs=1e-9)
        zero = Tensor(np.zeros((2, 3, 4)))
        assert float(ls.reg_distance(zero, z, "cosine").data) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_metric(self):
        z = Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(ValueError, match="metric"):
            ls.reg_distance(z, z, "chebyshev")


class TestTotalLoss:
    def test_frozen_arithmetic_oracle(self):
        # forecast 1.0, penalties 0.2 and 0.3, weight 0.1 -> 1.05
        pred = Tensor(np.array([1.0]))
        target = np.array([0.0])
        k = np.sqrt(0.2 * 12 / 2.0)  # mean over 12 entries of (z1-z2)^2
        z1 = Tensor(np.zeros((1, 3, 4)))
        z2a = Tensor(np.full((1, 3, 4), np.sqrt(0.2)))
        z2b = Tensor(np.full((1, 3, 4), np.sqrt(0.3)))
        report = ls.total_loss(pred, target, [(z1, z2a), (z1, z2b)], reg_weight=0.1)
        assert float(report.forecast.data) == 1.0
        assert report.consistency_values() == pytest.approx([0.2, 0.3], abs=1e-12)
        assert float(report.total.data) == pytest.approx(1.05, abs=1e-12)

    def test_zero_weight_total_is_forecast_object(self):
        pred = Tensor(np.random.default_rng(3).normal(size=(2, 3)))
        z = Tensor(np.random.default_rng(4).normal(size=(1, 2, 3)))
        z2 = Tensor(np.random.default_rng(5).normal(size=(1, 2, 3)))
        report = ls.total_loss(pred, np.zeros((2, 3)), [(z, z2)], reg_weight=0.0)
        assert report.total is report.forecast
        assert len(report.consistency) == 1

    def test_total_matches_manual_sum_exactly(self):
        rng = np.random.default_rng(6)
        pred = Tensor(rng.normal(size=(2, 4)))
        pairs = [
            (Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 3, 4))))
            for _ in range(3)
        ]
        lam = 0.1
        report = ls.total_loss(pred, np.zeros((2, 4)), pairs, reg_weight=lam)
        regs = report.consistency_values()
        manual = float(report.forecast.data) + lam * ((regs[0] + regs[1]) + regs[2])
        assert float(report.total.data) == manual  # bitwise, same operation order


class TestPearson:
    def test_frozen_pair_oracle(self):
        # frozen eps-free value; the regularized denominator sits ~1.4e-8 below
        x = np.array([[1.0, 2.0, 4.0], [1.0, 3.0, 5.0]])
        r = ls.pearson_matrix_np(x)
        assert r[0, 1] == pytest.approx(0.9819805060619659, abs=1e-6)
        np.testing.assert_allclose(r, np.corrcoef(x), atol=1e-6)
        assert r[0, 0] == 1.0 and r[1, 1] == 1.0

    def test_differentiable_matches_numpy(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 8))
        got = ls.pearson_matrix(Tensor(z)).data
        np.testing.assert_allclose(got, ls.pearson_matrix_np(z), atol=1e-10)

    def test_batched_shape(self):
        z = Tensor(np.random.default_rng(8).normal(size=(3, 4, 6)))
        assert ls.pearson_matrix(z).shape == (3, 4, 4)

    def test_constant_row_is_finite(self):
        x = np.vstack([np.ones(6), np.arange(6.0)])
        r = ls.pearson_matrix_np(x)
        assert np.all(np.isfinite(r))
        assert abs(r[0, 1]) < 1e-4
        rt = ls.pearson_matrix(Tensor(x)).data
        assert np.all(np.isfinite(rt))

    def test_gradient_is_correct_and_finite(self):
        x0 = Tensor(np.random.default_rng(9).normal(size=(3, 5)), requires_grad=True)
        err = check_gradients(lambda t: tsum(ls.pearson_matrix(t)), x0)
        assert err < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(0.1, 50.0),
        shift=st.floats(-20.0, 20.0),
        seed=st.integers(0, 2**16),
    )
    def test_affine_invariance(self, scale, shift, seed):
        x = np.random.default_rng(seed).normal(size=(3, 12))
        r0 = ls.pearson_matrix_np(x)
        r1 = ls.pearson_matrix_np(scale * x + shift)
        np.testing.assert_allclose(r1, r0, atol=1e-6)


class TestCCM:
    def test_identity_vs_ones_oracle(self):
        # embeddings whose correlation matrix is the 2x2 identity, against
        # an all-ones target: squared gaps are the two off-diagonal ones
        z = np.zeros((1, 2, 4))
        z[0, 0] = [1.0, -1.0, 1.0, -1.0]
        z[0, 1] = [1.0, 1.0, -1.0, -1.0]
        loss = ls.ccm_loss(Tensor(z), np.ones((2, 2)))
        assert float(loss.data) == pytest.approx(0.5, abs=1e-9)

    def test_perfect_match_is_zero(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(2, 3, 16))
        targets = ls.pearson_matrix(Tensor(z)).data
        loss0 = ls.ccm_loss(Tensor(z[:1]), targets[0])
        assert float(loss0.data) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="target shape"):
            ls.ccm_loss(Tensor(np.zeros((1, 3, 4))), np.ones((2, 2)))

    def test_gradients_flow(self):
        z = Tensor(np.random.default_rng(11).normal(size=(2, 3, 6)), requires_grad=True)
        backward(ls.ccm_loss(z, np.eye(3)))
        assert z.grad is not None and np.any(z.grad != 0)

    def test_matches_the_broadcast_copy_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(4, 5, 7))
        target = ls.pearson_matrix_np(rng.normal(size=(5, 30)))
        got_z = Tensor(z, requires_grad=True)
        got = ls.ccm_loss(got_z, target)
        backward(got)
        want_z = Tensor(z, requires_grad=True)
        r_z = ls.pearson_matrix(want_z)
        d = sub(r_z, Tensor(np.broadcast_to(target, r_z.shape).copy()))
        want = tmean(mul(d, d))
        backward(want)
        assert got.data.tobytes() == want.data.tobytes()
        assert got_z.grad.tobytes() == want_z.grad.tobytes()

    def test_global_corr_from_series(self):
        series = np.random.default_rng(12).normal(size=(50, 4))
        r = ls.global_corr(series)
        assert r.shape == (4, 4)
        np.testing.assert_allclose(r, np.corrcoef(series.T), atol=1e-6)


def tiny_model(seed=0, **kw):
    base = dict(lookback=8, horizon=4, n_channels=3, d_model=6, n_layers=1,
                d_state=4, dt_rank=2)
    base.update(kw)
    return md.SORMambaModel(md.ModelConfig(**base), seed=seed)


class TestReconstructionPretexts:
    def test_row_mask_properties(self):
        rng = np.random.default_rng(13)
        mask = ls.make_row_mask(16, 10, 0.5, rng)
        assert mask.shape == (16, 10)
        counts = mask.sum(axis=1)
        np.testing.assert_array_equal(counts, np.full(16, 5))
        with pytest.raises(ValueError, match="ratio"):
            ls.make_row_mask(2, 10, 0.0, rng)

    def test_row_mask_never_degenerate(self):
        rng = np.random.default_rng(14)
        for ratio in (0.05, 0.95):
            mask = ls.make_row_mask(8, 4, ratio, rng)
            assert np.all(mask.sum(axis=1) >= 1)
            assert np.all(mask.sum(axis=1) <= 3)

    def test_masked_loss_runs_and_differs_from_full(self):
        model = tiny_model()
        x = Tensor(np.random.default_rng(15).normal(size=(4, 8, 3)))
        masked = ls.masked_modeling_loss(model, x, 0.5, np.random.default_rng(16))
        full = ls.reconstruction_loss(model, x)
        assert np.isfinite(masked.data) and float(masked.data) > 0
        assert float(masked.data) != float(full.data)

    def test_pretext_gradients_skip_forecast_head(self):
        model = tiny_model()
        x = Tensor(np.random.default_rng(17).normal(size=(2, 8, 3)))
        backward(ls.masked_modeling_loss(model, x, 0.5, np.random.default_rng(18)))
        named = dict(model.param_items())
        assert named["rec.w"].grad is not None
        assert named["head.w"].grad is None
        assert named["ccm.w"].grad is None
