"""Unit and property tests for the reverse-mode core."""

import math
import re
import tracemalloc

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

    def test_second_backward_on_one_graph_doubles_the_leaf_gradient(self):
        # interior gradients are released after use, so the second call does
        # not add onto what the first left in them
        x = Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)
        y = ad.exp(ad.mul(x, x))
        loss = ad.tsum(ad.mul(y, y))
        ad.backward(loss)
        first = x.grad.copy()
        ad.backward(loss)
        assert x.grad.tobytes() == (2.0 * first).tobytes()
        assert y.grad is None and loss.grad is None

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div], ids=lambda f: f.__name__)
    def test_constant_operand_of_a_binary_op_takes_no_gradient(self, op):
        rng = _rng(24)
        x = rng.normal(size=(4, 3))
        c = rng.uniform(0.5, 2.0, size=(3,))
        g = rng.normal(size=(4, 3))
        for left in (True, False):
            leaf, const = Tensor(x, requires_grad=True), Tensor(c)
            out = op(leaf, const) if left else op(const, leaf)
            ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
            assert const.grad is None
            both = Tensor(x, requires_grad=True), Tensor(c, requires_grad=True)
            out = op(*both) if left else op(*both[::-1])
            ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
            assert _same_bits(leaf.grad, both[0].grad)

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

    def test_exprel_grad_buffers_keep_the_closed_form(self):
        x = np.concatenate([[0.0, 1e-5, -1e-5, 2.0, -3.0], -_rng(23).uniform(0.01, 3.0, 20)])
        buf, scratch = np.empty_like(x), np.empty_like(x)
        got = ad.exprel_grad(x, out=buf, scratch=scratch)
        assert got is buf
        assert _same_bits(got, ad.exprel_grad(x))
        small = np.abs(x) < 1e-4
        xs, xl = x[small], x[~small]
        np.testing.assert_array_equal(got[small], 0.5 + xs / 3.0 + xs * xs / 8.0)
        assert _same_bits(got[~small], (np.exp(xl) * (xl - 1.0) + 1.0) / (xl * xl))

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
        # add's vjp hands one array to both parents: each leaf's first
        # gradient is its own array
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        q = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = ad.add(p, q)
        ad.backward(ad.tsum(out))
        assert not np.shares_memory(p.grad, q.grad)
        np.testing.assert_array_equal(p.grad, [1.0, 1.0])
        np.testing.assert_array_equal(q.grad, [1.0, 1.0])
        p.grad += 1.0
        np.testing.assert_array_equal(q.grad, [1.0, 1.0])

    def test_first_gradient_of_negative_zero_is_positive_zero(self):
        t = Tensor(np.ones(2), requires_grad=True)
        ad.accumulate(t, np.array([-0.0, 3.0]))
        assert not np.signbit(t.grad[0])


class TestAccumulate:
    """``accumulate`` is the one entry of every gradient: it sums a broadcast
    gradient down to its node's shape, leading axes first, then each
    size-1 axis in turn."""

    CASES = [
        pytest.param((5, 3), (3,), lambda g: g.sum(axis=0), id="5x3-to-3"),
        pytest.param((5, 3), (1, 3), lambda g: g.sum(axis=0, keepdims=True), id="5x3-to-1x3"),
        pytest.param(
            (2, 4, 3),
            (4, 1),
            lambda g: g.sum(axis=0).sum(axis=1, keepdims=True),
            id="2x4x3-to-4x1",
        ),
    ]

    @pytest.mark.parametrize("g_shape, shape, reduce", CASES)
    @pytest.mark.parametrize("view", [False, True], ids=["array", "broadcast-view"])
    def test_broadcast_gradient_is_summed_down(self, g_shape, shape, reduce, view):
        rng = _rng(31)
        if view:
            g = np.broadcast_to(rng.normal(size=g_shape[-1]), g_shape)
            assert not g.flags.writeable
        else:
            g = rng.normal(size=g_shape)
        t = Tensor(np.zeros(shape), requires_grad=True)
        ad.accumulate(t, g)
        want = np.add(0.0, reduce(g))
        assert t.grad.shape == shape and t.grad.tobytes() == want.tobytes()
        assert t.grad.flags.writeable and not np.shares_memory(t.grad, g)

    @pytest.mark.parametrize(
        "g_shape, shape",
        [((1, 3), (4, 3)), ((3,), (4, 1)), ((2, 3), (3, 2))],
        ids=["1x3-to-4x3", "3-to-4x1", "2x3-to-3x2"],
    )
    def test_gradient_that_does_not_reduce_is_rejected(self, g_shape, shape):
        t = Tensor(np.zeros(shape), requires_grad=True)
        both = rf"{re.escape(str(g_shape))}.*{re.escape(str(shape))}"
        with pytest.raises(ValueError, match=both):
            ad.accumulate(t, np.ones(g_shape))
        assert t.grad is None

    def test_parent_without_gradient_is_untouched(self):
        t = Tensor(np.zeros((2, 3)))
        ad.accumulate(t, np.ones((5, 2, 3)))
        assert t.grad is None and not t.data.any()

    def test_second_contribution_adds_in_place(self):
        rng = _rng(32)
        t = Tensor(np.zeros((1, 3)), requires_grad=True)
        g1, g2 = rng.normal(size=(1, 3)), rng.normal(size=(5, 3))
        ad.accumulate(t, g1)
        buf = t.grad
        ad.accumulate(t, g2)
        assert t.grad is buf
        assert buf.tobytes() == (g1 + g2.sum(axis=0, keepdims=True)).tobytes()

    def test_backward_of_a_leaf_loss_twice_leaves_two(self):
        x = Tensor(np.array(1.5), requires_grad=True)
        ad.backward(x)
        ad.backward(x)
        assert x.grad.shape == () and x.grad == 2.0


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


# [B, S, K] @ [K, N] at the etth1 in_proj, solar and weather projections
WEIGHT_PRODUCTS = [(32, 7, 128, 256), (8, 137, 64, 128), (64, 21, 64, 128)]


def _lhs(shape, layout, rng):
    """A [B, S, K] operand, C-contiguous or a transposed view of [S, B, K]."""
    b, s, k = shape
    if layout == "contiguous":
        return rng.normal(size=(b, s, k))
    return np.swapaxes(rng.normal(size=(s, b, k)), 0, 1)


class TestWeightMatmul:
    """A product with a 2-D right operand runs as flat GEMMs over the
    flattened leading axes; the batched right operand keeps numpy's loop."""

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    @pytest.mark.parametrize("shape", WEIGHT_PRODUCTS, ids=lambda s: "x".join(map(str, s)))
    def test_forward_is_numpys_stacked_product_bit_for_bit(self, shape, layout):
        rng = _rng(30)
        a = _lhs(shape[:3], layout, rng)
        assert a.flags.c_contiguous == (layout == "contiguous")
        w = rng.normal(size=shape[2:])
        got = ad.matmul(Tensor(a), Tensor(w, requires_grad=True)).data
        assert _same_bits(got, np.matmul(a, w))

    @pytest.mark.parametrize("shape", WEIGHT_PRODUCTS, ids=lambda s: "x".join(map(str, s)))
    def test_gradients_match_the_batched_formula(self, shape):
        rng = _rng(31)
        a = Tensor(rng.normal(size=shape[:3]), requires_grad=True)
        w = Tensor(rng.normal(size=shape[2:]), requires_grad=True)
        g = rng.normal(size=shape[:2] + shape[3:])
        ad.backward(ad.tsum(ad.mul(ad.matmul(a, w), Tensor(g))))
        want_a = np.matmul(g, w.data.T)
        want_w = np.matmul(np.swapaxes(a.data, -1, -2), g).sum(axis=0)
        for got, want in ((a.grad, want_a), (w.grad, want_w)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gradients_pass_the_finite_difference_check(self):
        rng = _rng(32)
        a = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)))
        g = Tensor(rng.normal(size=(2, 3, 5)))
        assert ad.check_gradients(lambda t: ad.tsum(ad.mul(ad.matmul(t, w), g)), a) < 1e-8
        assert ad.check_gradients(lambda t: ad.tsum(ad.mul(ad.matmul(a, t), g)), w) < 1e-8

    def test_constant_operand_takes_no_gradient(self):
        rng = _rng(33)
        x, w = rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6))
        data, weight = Tensor(x), Tensor(w, requires_grad=True)
        ad.backward(ad.tsum(ad.matmul(data, weight)))
        assert data.grad is None
        assert _same_bits(weight.grad, x.reshape(15, 4).T @ np.ones((15, 6)))
        data, weight = Tensor(x, requires_grad=True), Tensor(w)
        ad.backward(ad.tsum(ad.matmul(data, weight)))
        assert weight.grad is None
        assert _same_bits(data.grad, (np.ones((15, 6)) @ w.T).reshape(3, 5, 4))

    def test_batched_right_operand_matches_a_per_sample_loop(self):
        rng = _rng(34)
        a = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
        g = rng.normal(size=(3, 5, 6))
        out = ad.matmul(a, b)
        ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
        for i in range(3):
            assert _same_bits(out.data[i], a.data[i] @ b.data[i])
            np.testing.assert_allclose(a.grad[i], g[i] @ b.data[i].T, rtol=1e-12, atol=0)
            np.testing.assert_allclose(b.grad[i], a.data[i].T @ g[i], rtol=1e-12, atol=0)

    def test_weight_gradient_builds_no_per_sample_stack(self):
        # a [32, 128, 256] float64 stack of per-sample weight gradients is
        # 8 MiB; the flat GEMM's backward holds a few [224, *] arrays
        rng = _rng(35)
        x = Tensor(rng.normal(size=(32, 7, 128)), requires_grad=True)
        w = Tensor(rng.normal(size=(128, 256)), requires_grad=True)
        loss = ad.tsum(ad.matmul(x, w))
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad.shape == (128, 256)
        assert peak < 32 * 128 * 256 * 8


class TestShapeOps:
    def test_mean_backward_twice_leaves_an_owned_writeable_grad(self):
        # tmean hands accumulate a read-only broadcast view of its gradient
        x = Tensor(_rng(5).normal(size=(4, 3)), requires_grad=True)
        ad.backward(ad.tmean(ad.tmean(x, axis=1)))
        once = x.grad.copy()
        ad.backward(ad.tmean(ad.tmean(x, axis=1)))
        assert x.grad.flags.writeable and x.grad.flags.owndata
        np.testing.assert_array_equal(x.grad, 2 * once)

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

    def test_unstack_gives_views_and_routes_gradients_to_slots(self):
        x = Tensor(_rng(12).normal(size=(3, 2, 4)), requires_grad=True)
        stacked = ad.mul(x, Tensor(np.full((3, 2, 4), 2.0)))
        parts = ad.unstack(stacked)
        assert len(parts) == 3
        for i, part in enumerate(parts):
            assert np.shares_memory(part.data, stacked.data)
            np.testing.assert_array_equal(part.data, stacked.data[i])
        # the middle part is unused: its slot of the gradient stays zero
        weights = [Tensor(_rng(13 + i).normal(size=(2, 4))) for i in range(3)]
        ad.backward(ad.tsum(ad.mul(parts[0], weights[0])) + ad.tsum(ad.mul(parts[2], weights[2])))
        want = 2.0 * np.stack([weights[0].data, np.zeros((2, 4)), weights[2].data])
        np.testing.assert_array_equal(x.grad, want)

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

    @pytest.mark.parametrize("offset", [3, 4])
    def test_shift_axis_past_the_axis_is_all_zero(self, offset):
        # a conv kernel wider than the token axis shifts by offset >= n
        x = Tensor(_rng(14).normal(size=(2, 3, 2)), requires_grad=True)
        out = ad.shift_axis(x, offset, axis=1)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 2)))
        ad.backward(ad.tsum(ad.mul(out, Tensor(_rng(15).normal(size=(2, 3, 2))))))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3, 2)))

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
