"""Unit and property tests for the reverse-mode core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sormamba import autodiff as ad
from sormamba.autodiff import Tensor


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_softplus_at_zero_is_log_two(self):
        out = ad.softplus(Tensor(0.0))
        assert out.data == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_softplus_large_negative_does_not_underflow_to_nan(self):
        out = ad.softplus(Tensor(np.array([-800.0, 800.0])))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == pytest.approx(800.0)

    def test_silu_matches_x_times_sigmoid(self):
        x = _rng().normal(size=(4, 3))
        got = ad.silu(Tensor(x)).data
        want = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_add_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4,\)"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))

    def test_broadcast_gradient_sums_over_batch(self):
        a = Tensor(_rng().normal(size=(5, 3)), requires_grad=True)
        b = Tensor(_rng(1).normal(size=(3,)), requires_grad=True)
        out = ad.tsum(ad.mul(a, b))
        ad.backward(out)
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0), atol=1e-12)

    def test_div_gradients(self):
        err = ad.check_gradients(
            lambda t: ad.tsum(ad.div(t, Tensor(np.array([2.0, -3.0, 0.5])))),
            Tensor(np.array([1.0, 2.0, 3.0])),
        )
        assert err < 1e-6

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = ad.tsum(ad.mul(x, x))
        ad.backward(loss)
        first = x.grad.copy()
        loss2 = ad.tsum(ad.mul(x, x))
        ad.backward(loss2)
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_backward_rejects_vector_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))


def _masked_sigmoid(x):
    """The boolean-mask form ``_sigmoid_val`` replaced, kept as its oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _same_bits(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.int64), want[~nan].view(np.int64)
    )


class TestHotPathBitIdentity:
    def test_sigmoid_matches_masked_form(self):
        edge = np.array([
            0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0,
            800.0, -800.0, np.inf, -np.inf, np.nan,
        ])
        for x in (edge, _rng(20).normal(size=(8, 21, 16)) * 50):
            got = ad._sigmoid_val(x)
            want = _masked_sigmoid(x)
            assert np.array_equal(got, want, equal_nan=True)
            assert _same_bits(got, want)

    def test_exprel_out_buffer_and_series_branch(self):
        cases = [
            np.array([0.0, 1e-9, -1e-9, 2.0, -3.0]),
            np.array([-1e-9, -0.5, -2.0]),  # the series is reached at the max
            np.array([1e-9, 0.5, 2.0]),  # and here at the min
            np.array([np.nan, 0.0, -4.0]),  # a NaN must not hide the 0
            -_rng(21).uniform(0.01, 3.0, size=(3, 4, 5)),  # nothing small
        ]
        for x in cases:
            buf = np.empty_like(x)
            got = ad.exprel(x, out=buf)
            assert got is buf
            assert _same_bits(got, ad.exprel(x))
            small = np.abs(x) < 1e-8
            xs = x[small]
            np.testing.assert_array_equal(got[small], 1.0 + 0.5 * xs + xs * xs / 6.0)
            assert np.all(np.isfinite(got[~np.isnan(x)]))

    def test_softplus_value_same_with_and_without_recording(self):
        x = _rng(22).normal(size=(4, 6)) * 30
        leaf = Tensor(x, requires_grad=True)
        recorded = ad.softplus(leaf)
        with ad.no_grad():
            plain = ad.softplus(leaf)
        assert recorded.requires_grad and not plain.requires_grad
        assert _same_bits(plain.data, recorded.data)
        ad.backward(ad.tsum(recorded))
        assert _same_bits(leaf.grad, _masked_sigmoid(x))

    def test_first_gradient_does_not_alias_upstream(self):
        # add's vjp hands one array to both parents
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        out = ad.add(p, p)
        ad.backward(ad.tsum(out))
        assert not np.shares_memory(p.grad, out.grad)
        np.testing.assert_array_equal(out.grad, [1.0, 1.0])
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])

    def test_first_gradient_of_negative_zero_is_positive_zero(self):
        t = Tensor(np.ones(2), requires_grad=True)
        ad.accumulate(t, np.array([-0.0, 3.0]))
        assert not np.signbit(t.grad[0])


class TestFiniteDifference:
    @pytest.mark.parametrize(
        "fn",
        [ad.exp, ad.softplus, ad.sigmoid, ad.silu, ad.gelu, ad.absolute, ad.neg],
        ids=lambda f: f.__name__,
    )
    def test_unary_ops(self, fn):
        x = Tensor(_rng(3).normal(size=(2, 5)) * 2.0 + 0.1)
        err = ad.check_gradients(lambda t: ad.tsum(fn(t)), x)
        assert err < 1e-6

    def test_expm1_over_x_away_from_zero(self):
        x = Tensor(_rng(4).uniform(-3.0, -0.5, size=(6,)))
        err = ad.check_gradients(lambda t: ad.tsum(ad.expm1_over_x(t)), x)
        assert err < 1e-6

    def test_expm1_over_x_on_0d_input(self):
        x = Tensor(0.0, requires_grad=True)
        out = ad.expm1_over_x(x)
        assert out.data.shape == () and out.data == 1.0
        ad.backward(out)
        assert x.grad == 0.5

    def test_expm1_over_x_value_near_zero_hits_series_limit(self):
        out = ad.expm1_over_x(Tensor(np.array([0.0, 1e-12, -1e-12])))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-11)

    def test_matmul_against_triple_loop(self):
        rng = _rng(5)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = ad.matmul(Tensor(a), Tensor(b)).data
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matmul_gradients_batched(self):
        rng = _rng(6)
        b = Tensor(rng.normal(size=(4, 2)))
        x = Tensor(rng.normal(size=(2, 3, 4)))
        err = ad.check_gradients(lambda t: ad.tsum(ad.matmul(t, b)), x)
        assert err < 1e-6

    def test_matmul_broadcast_weight_gradient(self):
        rng = _rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 2)))
        err = ad.check_gradients(lambda t: ad.tsum(ad.matmul(x, t)), w)
        assert err < 1e-6

    def test_h_outside_range_rejected(self):
        with pytest.raises(ValueError, match="1e-3"):
            ad.check_gradients(lambda t: ad.tsum(t), Tensor(np.ones(2)), h=1e-2)

    def test_nonfinite_probe_raises(self):
        x = Tensor(np.array([0.0]))
        with pytest.raises(FloatingPointError), np.errstate(divide="ignore"):
            ad.check_gradients(lambda t: ad.log(t), x)


class TestShapeOps:
    def test_take_axis_reversed_indices_involution_and_grad(self):
        x = Tensor(_rng(8).normal(size=(2, 5, 3)), requires_grad=True)
        rev = np.arange(5)[::-1]
        twice = ad.take_axis(ad.take_axis(x, rev, 1), rev, 1)
        np.testing.assert_array_equal(twice.data, x.data)
        weights = Tensor(_rng(9).normal(size=(2, 5, 3)))
        loss = ad.tsum(ad.mul(ad.take_axis(x, rev, 1), weights))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, np.flip(weights.data, axis=1), atol=1e-15)

    def test_take_axis_gradient_matches_add_at(self):
        # the scatter gradient against the accumulate-at form it replaced
        rng = _rng(23)
        shape = (3, 4, 5)
        cases = [(rng.permutation(shape[axis]), axis) for axis in range(3)]
        cases += [(np.array([2]), 0), (np.array([-1, 0]), 2)]
        for idx, axis in cases:
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            out = ad.take_axis(x, idx, axis)
            g = rng.normal(size=out.shape)
            g.flat[::3] = -0.0  # backward never hands a vjp -0; call it directly
            sel = [slice(None)] * 3
            sel[axis] = idx
            want = np.zeros(shape)
            np.add.at(want, tuple(sel), g)
            out._vjp(g)
            assert _same_bits(x.grad, 0.0 + want)
            out._vjp(g)
            assert _same_bits(x.grad, 0.0 + want + want)

    def test_take_axis_rejects_repeated_positions(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        for idx in ([0, 0], [1, 2, 1], [-1, 3]):
            with pytest.raises(ValueError, match="repeat"):
                ad.take_axis(x, np.array(idx), axis=1)

    def test_shift_axis_forward(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = ad.shift_axis(x, 1, axis=1)
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 2.0]])

    def test_shift_axis_gradient(self):
        x = Tensor(_rng(10).normal(size=(2, 6)))
        err = ad.check_gradients(
            lambda t: ad.tsum(ad.mul(ad.shift_axis(t, 2, axis=1), Tensor(np.arange(12.0).reshape(2, 6)))),
            x,
        )
        assert err < 1e-6

    def test_take_axis_permutation_gradient_is_inverse_scatter(self):
        perm = np.array([2, 0, 1])
        x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        out = ad.take_axis(x, perm, axis=1)
        np.testing.assert_array_equal(out.data, [[3.0, 1.0, 2.0]])
        loss = ad.tsum(ad.mul(out, Tensor(np.array([[10.0, 20.0, 30.0]]))))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [[20.0, 30.0, 10.0]])

    def test_swapaxes_and_reshape_grads(self):
        x = Tensor(_rng(11).normal(size=(2, 3, 4)))
        err = ad.check_gradients(
            lambda t: ad.tsum(ad.mul(ad.swapaxes(t, 1, 2), Tensor(np.ones((2, 4, 3))))), x
        )
        assert err < 1e-9


class TestLayerNorm:
    def test_two_point_example(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        out = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_default_eps_close_to_unit(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        out = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_gradient(self):
        gain = Tensor(_rng(12).normal(size=(5,)))
        bias = Tensor(_rng(13).normal(size=(5,)))
        x = Tensor(_rng(14).normal(size=(3, 5)))
        err = ad.check_gradients(
            lambda t: ad.tsum(ad.layer_norm(t, gain, bias)), x
        )
        assert err < 1e-5

    def test_gain_bias_gradients(self):
        x = Tensor(_rng(15).normal(size=(3, 5)))
        gain = Tensor(_rng(16).normal(size=(5,)))
        err = ad.check_gradients(
            lambda t: ad.tsum(ad.layer_norm(x, t, Tensor(np.zeros(5)))), gain
        )
        assert err < 1e-5


finite_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


class TestProperties:
    @given(finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_ops_produce_finite_values(self, x):
        t = Tensor(x)
        for fn in (ad.exp, ad.softplus, ad.sigmoid, ad.silu, ad.gelu):
            assert np.all(np.isfinite(fn(t).data))

    @given(finite_arrays, finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_add_commutes(self, a, b):
        if a.shape != b.shape:
            return
        x, y = Tensor(a), Tensor(b)
        np.testing.assert_array_equal(ad.add(x, y).data, ad.add(y, x).data)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 5), st.integers(2, 5)),
            elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_take_axis_reversed_indices_is_involution(self, x):
        t = Tensor(x)
        rev = np.arange(x.shape[0])[::-1]
        np.testing.assert_array_equal(
            ad.take_axis(ad.take_axis(t, rev, 0), rev, 0).data, x
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_gradients_reach_every_used_leaf(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = ad.tmean(ad.silu(ad.mul(a, b)))
        ad.backward(loss)
        assert a.grad is not None and a.grad.shape == a.data.shape
        assert b.grad is not None and b.grad.shape == b.data.shape
