"""Discretization oracles, the fused discretize-and-scan op, and its
agreement with the naive per-step scan."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from sormamba import autodiff as ad
from sormamba import scan_kernels
from sormamba.autodiff import Tensor
from sormamba.ssm import (
    DISCRETIZATIONS,
    SSMParams,
    discretize,
    init_ssm_params,
    naive_scan,
    projections,
    scan_core,
    selective_scan,
)


def make_params(dim=6, state=4, dt_rank=2, seed=0, mode="euler-b"):
    return init_ssm_params(dim, state, dt_rank, np.random.default_rng(seed), mode=mode)


class TestDiscretize:
    def test_scalar_zoh_closed_form(self):
        # one step of a = -1, delta = 0.5, b = 2
        delta = Tensor(np.full((1, 1, 1), 0.5))
        a = Tensor(np.full((1, 1), -1.0))
        b_t = Tensor(np.full((1, 1, 1), 2.0))
        a_bar, b_bar = discretize(delta, a, b_t, "zoh-exact")
        assert a_bar.data.reshape(()) == pytest.approx(math.exp(-0.5), abs=1e-12)
        want = (math.exp(-0.5) - 1.0) / (-0.5) * 0.5 * 2.0
        assert b_bar.data.reshape(()) == pytest.approx(want, abs=1e-12)
        assert b_bar.data.reshape(()) == pytest.approx(0.786939, abs=1e-6)

    def test_scalar_euler_closed_form(self):
        delta = Tensor(np.full((1, 1, 1), 0.5))
        a = Tensor(np.full((1, 1), -1.0))
        b_t = Tensor(np.full((1, 1, 1), 2.0))
        a_bar, b_bar = discretize(delta, a, b_t, "euler-b")
        assert a_bar.data.reshape(()) == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert b_bar.data.reshape(()) == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_a_limit_matches_euler(self):
        # as a -> 0 the exact input factor collapses to delta * b
        delta = Tensor(np.full((1, 1, 1), 0.5))
        a = Tensor(np.full((1, 1), -1e-12))
        b_t = Tensor(np.full((1, 1, 1), 2.0))
        a_bar, b_bar = discretize(delta, a, b_t, "zoh-exact")
        assert a_bar.data.reshape(()) == pytest.approx(1.0, abs=1e-9)
        assert b_bar.data.reshape(()) == pytest.approx(1.0, abs=1e-9)

    def test_random_entries_match_closed_form_elementwise(self):
        rng = np.random.default_rng(2)
        delta = rng.uniform(1e-3, 0.5, size=(2, 3, 4))
        a = -rng.uniform(0.1, 3.0, size=(4, 5))
        b_t = rng.normal(size=(2, 3, 5))
        a_bar, b_bar = discretize(
            Tensor(delta), Tensor(a), Tensor(b_t), "zoh-exact"
        )
        da = delta[..., None] * a
        np.testing.assert_allclose(a_bar.data, np.exp(da), atol=1e-12)
        want_b = (np.exp(da) - 1.0) / da * (delta[..., None] * b_t[:, :, None, :])
        np.testing.assert_allclose(b_bar.data, want_b, atol=1e-9)

    def test_unknown_mode_rejected(self):
        delta = Tensor(np.ones((1, 1, 1)))
        with pytest.raises(ValueError, match="discretization"):
            discretize(delta, Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1, 1))), "zoh")

    def test_transition_factors_lie_in_unit_interval(self):
        params = make_params()
        assert np.all(-np.exp(params.a_log.data) < 0.0)
        rng = np.random.default_rng(3)
        delta = Tensor(rng.uniform(1e-3, 1.0, size=(2, 4, 6)))
        a = Tensor(-np.exp(params.a_log.data))
        b_t = Tensor(rng.normal(size=(2, 4, 4)))
        a_bar, _ = discretize(delta, a, b_t, "euler-b")
        assert np.all(a_bar.data > 0.0) and np.all(a_bar.data < 1.0)


def _scan_inputs(rng, batch, steps, dim, state):
    """Positive step sizes, a strictly negative A, and free B_t, C_t, x."""
    return (
        Tensor(rng.uniform(0.05, 0.8, size=(batch, steps, dim))),
        Tensor(-rng.uniform(0.3, 2.0, size=(dim, state))),
        Tensor(rng.normal(size=(batch, steps, state))),
        Tensor(rng.normal(size=(batch, steps, state))),
        Tensor(rng.normal(size=(batch, steps, dim))),
    )


class TestScanCore:
    def test_two_step_hand_computed(self):
        # delta = 1, A = -ln 2 -> A_bar = 0.5; B_bar = delta * B_t = 1
        delta = Tensor(np.ones((1, 2, 1)))
        a = Tensor(np.full((1, 1), -math.log(2.0)))
        b_t = Tensor(np.ones((1, 2, 1)))
        c_t = Tensor(np.ones((1, 2, 1)))
        x = Tensor(np.array([[[1.0], [2.0]]]))
        y = scan_core(delta, a, b_t, c_t, x, "euler-b")[0]
        np.testing.assert_allclose(y.data.reshape(-1), [1.0, 2.5], atol=1e-15)

    def test_gradient_against_finite_differences(self):
        # wrt each of delta, A, B_t, C_t and x, from one step to ten
        for mode, steps in itertools.product(DISCRETIZATIONS, (1, 2, 7, 10)):
            inputs = _scan_inputs(np.random.default_rng(5 + steps), 2, steps, 3, 2)
            weights = Tensor(np.random.default_rng(6).normal(size=(2, steps, 3)))
            for i, target in enumerate(inputs):

                def f(t, i=i):
                    args = list(inputs)
                    args[i] = t
                    return ad.tsum(ad.mul(scan_core(*args, mode)[0], weights))

                err = ad.check_gradients(f, target)
                assert err < 1e-6, (mode, steps, i, err)

    def test_zero_step_size_takes_the_zoh_series_value(self):
        # delta = 0 makes delta A exactly 0, where (e^x - 1) / x is 0 / 0 and
        # the series gives 1; a tile's bound min(delta) min|A| is then 0 (or
        # underflows), so the kernel must still search it for small entries
        delta, a, b_t, c_t, x = (t.data for t in _scan_inputs(np.random.default_rng(12), 3, 5, 4, 2))
        delta[:, 2] = 0.0
        delta[:, 3] = 5e-324
        delta[1] = 0.0
        y = scan_kernels.scan_forward(delta, a, b_t, c_t, x, "zoh-exact")[0]
        a_bar, b_bar = (
            t.data for t in discretize(Tensor(delta), Tensor(a), Tensor(b_t), "zoh-exact")
        )
        h = np.zeros(a_bar.shape[:1] + a_bar.shape[2:])
        want = np.empty_like(y)
        for k in range(delta.shape[1]):
            h = a_bar[:, k] * h + b_bar[:, k] * x[:, k, :, None]
            want[:, k] = np.einsum("bdn,bn->bd", h, c_t[:, k])
        assert np.all(y[1] == 0.0)
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_exact_zeros_keep_the_broadcast_multiply_bits(self, mode, monkeypatch):
        # the kernels build delta A, the input term dx B and the seed gy C of
        # the gradient wrt the states as einsum outer products, which write a
        # -0 product as +0; broadcast multiplies keep the sign. With exact
        # zeros (of both signs) in delta, x, B_t and gy, y and all five
        # gradients keep the broadcast multiplies' bits
        delta, a, b_t, c_t, x = (
            t.data for t in _scan_inputs(np.random.default_rng(13), 3, 6, 4, 3)
        )
        delta[0, 1] = 0.0
        delta[1, :, 2] = 0.0
        x[0, 2] = 0.0
        x[1] = -0.0
        x[2, :, 1] = -0.0
        b_t[0, 4] = 0.0
        b_t[2, 1, 0] = -0.0
        gy = np.random.default_rng(14).normal(size=(2,) + x.shape)
        gy[0, 0] = 0.0
        gy[1, 1, :, 3] = -0.0
        gy[:, 2] = -0.0
        outer = []

        class BroadcastOuter:
            """numpy, with the kernels' outer-product einsums done as the
            broadcast multiplies they replaced."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def einsum(subscripts, p, q, out=None):
                if subscripts == "srd,nd->srnd":
                    outer.append(subscripts)
                    return np.multiply(p[:, :, None, :], q, out=out)
                if subscripts == "srd,srn->srnd":
                    outer.append(subscripts)
                    return np.multiply(p[:, :, None, :], q[:, :, :, None], out=out)
                return np.einsum(subscripts, p, q, out=out)

        def results(orders):
            y = scan_kernels.scan_forward(delta, a, b_t, c_t, x, mode, orders)
            g = gy[: len(orders)]
            grads = scan_kernels.scan_backward(delta, a, b_t, c_t, x, mode, g, orders)
            return [v.tobytes() for v in (*y, *grads)]

        for orders in ((None,), (None, np.arange(6)[::-1])):
            got = results(orders)
            with monkeypatch.context() as mp:
                mp.setattr(scan_kernels, "np", BroadcastOuter())
                want = results(orders)
            assert got == want, orders
        # the reference did run both kinds of broadcast multiply
        assert set(outer) == {"srd,nd->srnd", "srd,srn->srnd"}

    def test_unknown_mode_rejected(self):
        inputs = _scan_inputs(np.random.default_rng(8), 1, 2, 1, 1)
        with pytest.raises(ValueError, match="discretization"):
            scan_core(*inputs, "zoh")


def _scan_results(inputs, mode):
    """Forward and backward of the kernels, as arrays: y and the five
    gradients."""
    (y,) = scan_kernels.scan_forward(*inputs, mode)
    gy = np.random.default_rng(9).normal(size=y.shape)
    return (y,) + scan_kernels.scan_backward(*inputs, mode, (gy,))


class TestScanTiles:
    # 7 rows, 10 steps, dim 3, state 2: 60 elements per row of the states
    # of one walk, so the cap sets the rows per tile
    SHAPE = (7, 10, 3, 2)
    TILINGS = {1: 1 << 40, 2: 60 * 4, 3: 60 * 3, 7: 1}  # tiles: cap

    def test_tile_rows_follow_the_shapes(self):
        # weather, etth1 and solar scans: (batch, walks * S * N * D) ->
        # rows; with one order, 32 etth1 rows run in 16 tiles of 2, and the
        # others in one-row tiles
        assert scan_kernels._tile_rows(64, 21 * 16 * 128) == 1
        assert scan_kernels._tile_rows(32, 7 * 16 * 256) == 2
        assert scan_kernels._tile_rows(8, 137 * 16 * 128) == 1
        # with two orders: one row per tile
        for batch, steps, dim in ((64, 21, 128), (32, 7, 256), (8, 137, 128)):
            assert scan_kernels._tile_rows(batch, 2 * steps * 16 * dim) == 1
        for tiles, cap in self.TILINGS.items():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scan_kernels, "_TILE_ELEMS", cap)
                rows = scan_kernels._tile_rows(7, 60)
            assert math.ceil(7 / rows) == tiles  # 7 | 3+4 | 2+2+3 | 1 x 7

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_tiles_match_one_tile(self, mode, monkeypatch):
        batch, steps, dim, state = self.SHAPE
        inputs = [t.data for t in _scan_inputs(np.random.default_rng(10), batch, steps, dim, state)]
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", self.TILINGS[1])
        want = _scan_results(inputs, mode)
        for tiles in (2, 3, 7):
            monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", self.TILINGS[tiles])
            got = _scan_results(inputs, mode)
            # y and the gradients wrt delta, B_t, C_t and x
            for i in (0, 1, 3, 4, 5):
                assert got[i].shape == want[i].shape
                assert got[i].tobytes() == want[i].tobytes(), (tiles, i)
            # the gradient wrt A sums over the batch, tile by tile
            g_a, want_a = got[2], want[2]
            assert np.max(np.abs(g_a - want_a)) <= 1e-14 * np.max(np.abs(want_a)), tiles

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_gradient_against_finite_differences_in_tiles(self, mode, monkeypatch):
        # one-row tiles over a batch of 3
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", 1)
        inputs = _scan_inputs(np.random.default_rng(11), 3, 7, 3, 2)
        weights = Tensor(np.random.default_rng(12).normal(size=(3, 7, 3)))
        for i, target in enumerate(inputs):

            def f(t, i=i):
                args = list(inputs)
                args[i] = t
                return ad.tsum(ad.mul(scan_core(*args, mode)[0], weights))

            err = ad.check_gradients(f, target)
            assert err < 1e-6, (mode, i, err)

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_tiled_scan_matches_naive_reference(self, mode, monkeypatch):
        # 5 rows in tiles of 1, 2 and 2
        params = make_params(mode=mode, seed=13)
        x = Tensor(np.random.default_rng(14).normal(size=(5, 9, 6)))
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", 2 * 9 * 4 * 6)
        fused = selective_scan(x, params).data
        np.testing.assert_allclose(fused, naive_scan(x, params), atol=1e-12, rtol=0)

    def test_workspace_memory_at_the_weather_shape(self):
        # [B, S, D, N] = [64, 21, 128, 16], zoh-exact: one call's traced peak,
        # inputs excluded
        inputs = [t.data for t in _scan_inputs(np.random.default_rng(15), 64, 21, 128, 16)]
        gy = np.ones((64, 21, 128))
        peaks = []
        for call in (
            lambda: scan_kernels.scan_forward(*inputs, "zoh-exact"),
            lambda: scan_kernels.scan_backward(*inputs, "zoh-exact", (gy,)),
        ):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 16.0, peaks
        assert peaks[1] <= 32.0, peaks


def _in_thread(fn):
    """``fn()`` run in a new thread, which starts with an empty workspace."""
    results = []
    thread = threading.Thread(target=lambda: results.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert results, "the scan raised in its thread"
    return results[0]


def _workspace_buffers():
    return list(vars(scan_kernels._workspace).values())


class TestScanWorkspace:
    # with a cap of 1024 elements per tile of states, SMALL runs in one tile
    # of 7 rows of 10 steps and LARGE in three tiles of 3 rows of 17 steps;
    # every LARGE buffer is bigger than the SMALL one of its role
    CAP = 1024
    SMALL = (7, 10, 3, 2)
    LARGE = (9, 17, 5, 4)

    def _inputs(self, shape, seed):
        return [t.data for t in _scan_inputs(np.random.default_rng(seed), *shape)]

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_reuse_after_a_larger_call_gives_the_same_bytes(self, mode, monkeypatch):
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", self.CAP)
        other = next(m for m in DISCRETIZATIONS if m != mode)
        small, large = self._inputs(self.SMALL, 30), self._inputs(self.LARGE, 31)

        def small_large_small():
            first = _scan_results(small, mode)  # grows the empty workspace
            _scan_results(large, other)  # grows it again
            return first, _scan_results(small, mode)  # reuses part of it

        first, again = _in_thread(small_large_small)
        assert [r.tobytes() for r in again] == [r.tobytes() for r in first]

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_outputs_share_no_memory_with_the_workspace(self, mode, monkeypatch):
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", self.CAP)
        # y and the five gradients
        results = _scan_results(self._inputs(self.LARGE, 32), mode)
        assert len(results) == 6
        buffers = _workspace_buffers()
        assert buffers
        for i, r in enumerate(results):
            assert not any(np.shares_memory(r, b) for b in buffers), i

    def test_a_thread_scans_in_its_own_workspace(self, monkeypatch):
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", self.CAP)
        inputs = self._inputs(self.LARGE, 33)
        want = _scan_results(inputs, "zoh-exact")
        got, buffers = _in_thread(
            lambda: (_scan_results(inputs, "zoh-exact"), _workspace_buffers())
        )
        assert [r.tobytes() for r in got] == [r.tobytes() for r in want]
        mine = _workspace_buffers()
        assert buffers and not any(np.shares_memory(a, b) for a in buffers for b in mine)

    def test_roles_start_at_distinct_page_offsets(self):
        # a zoh-exact backward uses all nine roles
        inputs = self._inputs(self.LARGE, 34)

        def page_offsets():
            _scan_results(inputs, "zoh-exact")
            return [b.ctypes.data % 4096 for b in _workspace_buffers()]

        offsets = _in_thread(page_offsets)
        assert len(offsets) == len(scan_kernels._ROLES)
        assert len(set(offsets)) == len(offsets), offsets

    @pytest.mark.parametrize(
        "shape, mode, train, walks, expected",
        [
            # train-etth1: one-row tiles of 7 steps, N * D = 4096; da,
            # a_bar, bx and g_da [7, 1, 16, 256], hs [2, 8, 1, 16, 256], gh
            # [2, 7, 1, 16, 256] and dx [7, 1, 256]
            (
                (32, 7, 256, 16), "euler-b", True, 2,
                8 * (4 * 7 * 4096 + 2 * 8 * 4096 + 2 * 7 * 4096 + 7 * 256),
            ),
            # train-solar: the same roles at 137 steps, N * D = 2048
            (
                (8, 137, 128, 16), "euler-b", True, 2,
                8 * (4 * 137 * 2048 + 2 * 138 * 2048 + 2 * 137 * 2048 + 137 * 128),
            ),
            # the solar shape with one order (two_view: false): still
            # one-row tiles, with one walk's hs and gh
            (
                (8, 137, 128, 16), "euler-b", True, 1,
                8 * (4 * 137 * 2048 + 138 * 2048 + 137 * 2048 + 137 * 128),
            ),
            # analyze-weather, forward only: da, a_bar, bx and the zoh factor
            # [21, 1, 16, 128], hs [1, 22, 1, 16, 128] and dx [21, 1, 128]
            (
                (64, 21, 128, 16), "zoh-exact", False, 2,
                8 * (4 * 21 * 2048 + 22 * 2048 + 21 * 128),
            ),
        ],
        ids=["train-etth1", "train-solar", "solar-one-order", "analyze-weather"],
    )
    def test_workspace_at_the_workload_shapes(self, shape, mode, train, walks, expected):
        # one call with ``walks`` orders in a fresh thread, forward and, for
        # a training step, backward: the workspace holds exactly what the
        # layout needs (1.83, 17.29, 12.99 and 1.68 MiB), each role with a
        # 4 KiB margin for its page offset
        inputs = self._inputs(shape, 35)
        orders = (None, np.arange(shape[1])[::-1])[:walks]

        def step():
            y = scan_kernels.scan_forward(*inputs, mode, orders)
            if train:
                scan_kernels.scan_backward(*inputs, mode, y, orders)
            return [(b.nbytes, b.base.nbytes) for b in _workspace_buffers()]

        sizes = _in_thread(step)
        assert sum(n for n, _ in sizes) == expected
        assert all(raw == n + 4096 for n, raw in sizes)

    def test_a_warm_call_allocates_no_workspace(self):
        # the weather shape of test_workspace_memory_at_the_weather_shape;
        # after one forward and backward, a call's traced peak is its outputs
        # plus at most four [rows, N, D] arrays per tile (the readout and the
        # contractions' temporaries), less than one [S, rows, N, D] buffer,
        # and the buffers numpy's ufuncs take for strided operands
        batch, steps, dim, state = 64, 21, 128, 16
        rng = np.random.default_rng(15)
        inputs = [t.data for t in _scan_inputs(rng, batch, steps, dim, state)]
        gy = np.ones((batch, steps, dim))
        scan_kernels.scan_forward(*inputs, "zoh-exact")
        scan_kernels.scan_backward(*inputs, "zoh-exact", (gy,))
        rows = scan_kernels._tile_rows(batch, steps * state * dim)
        per_tile = 4 * rows * state * dim * 8 + 3 * np.getbufsize() * 8
        for call in (
            lambda: scan_kernels.scan_forward(*inputs, "zoh-exact"),
            lambda: scan_kernels.scan_backward(*inputs, "zoh-exact", (gy,)),
        ):
            tracemalloc.start()
            try:
                outputs = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= sum(o.nbytes for o in outputs) + per_tile, peak


class TestScanOrder:
    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_order_matches_gather_scan_scatter(self, mode, monkeypatch):
        # 7 rows in tiles of 2, 2 and 3
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", 60 * 3)
        assert scan_kernels._tile_rows(7, 10 * 3 * 2) == 3
        delta, a, b_t, c_t, x = (t.data for t in _scan_inputs(np.random.default_rng(20), 7, 10, 3, 2))
        gy = np.random.default_rng(21).normal(size=x.shape)
        for order in (np.arange(10)[::-1], np.random.default_rng(22).permutation(10)):
            inverse = np.argsort(order)
            y = scan_kernels.scan_forward(delta, a, b_t, c_t, x, mode, (order,))
            got = scan_kernels.scan_backward(delta, a, b_t, c_t, x, mode, (gy,), (order,))
            g_delta, g_b, g_c, g_x = (v[:, order] for v in (delta, b_t, c_t, x))
            want_y = scan_kernels.scan_forward(g_delta, a, g_b, g_c, g_x, mode)
            want = scan_kernels.scan_backward(g_delta, a, g_b, g_c, g_x, mode, (gy[:, order],))
            assert y[0].tobytes() == want_y[0][:, inverse].tobytes()
            # delta, B_t, C_t and x are put back in token order
            for i in (0, 2, 3, 4):
                assert got[i].tobytes() == want[i][:, inverse].tobytes(), i
            # A is shared: its gradient sums over the tokens, in token order
            # here and in scan order there
            assert np.max(np.abs(got[1] - want[1])) <= 1e-14 * np.max(np.abs(want[1]))

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_gradient_against_finite_differences_with_order(self, mode, monkeypatch):
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", 1)
        inputs = _scan_inputs(np.random.default_rng(23), 3, 7, 3, 2)
        weights = Tensor(np.random.default_rng(24).normal(size=(3, 7, 3)))
        order = np.random.default_rng(25).permutation(7)
        for i, target in enumerate(inputs):

            def f(t, i=i):
                args = list(inputs)
                args[i] = t
                return ad.tsum(ad.mul(scan_core(*args, mode, (order,))[0], weights))

            err = ad.check_gradients(f, target)
            assert err < 1e-6, (mode, i, err)

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_ordered_scan_matches_naive_reference(self, mode, monkeypatch):
        # the per-tile delta * x of the fused scan against the per-step loop
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", 2 * 9 * 4 * 6)
        params = make_params(mode=mode, seed=26)
        x = Tensor(np.random.default_rng(27).normal(size=(5, 9, 6)))
        order = np.random.default_rng(28).permutation(9)
        delta, b_t, c_t = projections(x, params)
        a = ad.neg(ad.exp(params.a_log))
        y = scan_core(delta, a, b_t, c_t, x, mode, (order,))[0].data + x.data * params.d_skip.data
        want = naive_scan(x.data[:, order], params)[:, np.argsort(order)]
        np.testing.assert_allclose(y, want, atol=1e-12, rtol=0)

    def test_order_must_permute_the_steps(self):
        inputs = _scan_inputs(np.random.default_rng(29), 1, 4, 2, 2)
        for order in ([0, 1, 2], [0, 1, 1, 3], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match="permutation"):
                scan_core(*inputs, "euler-b", (np.array(order),))

    def test_non_integer_order_is_refused(self):
        # converting to an index type once truncated [0.5, 1.7, 2.2, 3.9]
        # to the identity and scanned it as such
        inputs = _scan_inputs(np.random.default_rng(31), 1, 4, 2, 2)
        for order in ([0.5, 1.7, 2.2, 3.9], [3.0, 2.0, 1.0, 0.0]):
            with pytest.raises(ValueError, match="order is not a permutation of 4 steps"):
                scan_core(*inputs, "euler-b", (np.array(order),))

    def test_nan_reports_the_scanned_step(self):
        inputs = _scan_inputs(np.random.default_rng(30), 1, 6, 2, 2)
        inputs[4].data[0, 3, 0] = np.nan
        order = np.array([5, 3, 0, 1, 2, 4])
        # token 3 is scanned second
        with pytest.raises(FloatingPointError, match="step 1"):
            scan_core(*inputs, "euler-b", (order,))
        # with several orders, the first view whose output is non-finite
        for orders, message in (
            ((order, None), "in view 0 became non-finite at step 1"),
            ((None, order), "in view 0 became non-finite at step 3"),
        ):
            with pytest.raises(FloatingPointError, match=message):
                scan_core(*inputs, "euler-b", orders)


def _two_orders(name, steps, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(steps)
    return {
        "fixed-reverse": (None, np.arange(steps)[::-1]),
        "random-pair": (perm, rng.permutation(steps)),
        "random-reverse": (perm, perm[::-1]),
    }[name]


class TestScanOrders:
    """Several orders in one kernel call: the factors of all the tokens are
    computed once and walked by every order."""

    # 7 rows, 10 steps, dim 3, state 2: a row of the sequence holds 60
    # elements, 120 for the two walks' states. Tile budget -> tiles
    SHAPE = (7, 10, 3, 2)
    CAPS = {1 << 40: 1, 240: 4, 360: 3, 1: 7}
    ORDERS = ("fixed-reverse", "random-pair", "random-reverse")

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    @pytest.mark.parametrize("orders", ORDERS)
    def test_each_order_matches_a_single_order_call(self, mode, orders, monkeypatch):
        batch, steps, dim, state = self.SHAPE
        inputs = [t.data for t in _scan_inputs(np.random.default_rng(40), *self.SHAPE)]
        orders = _two_orders(orders, steps, 41)
        gy = np.random.default_rng(42).normal(size=(2, batch, steps, dim))
        want_y, want = [], None
        for v, order in enumerate(orders):
            y = scan_kernels.scan_forward(*inputs, mode, (order,))
            grads = scan_kernels.scan_backward(*inputs, mode, gy[v : v + 1], (order,))
            want_y.append(y[0])
            want = grads if want is None else [w + g for w, g in zip(want, grads)]
        for cap, tiles in self.CAPS.items():
            monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", cap)
            row = 2 * steps * dim * state
            assert math.ceil(batch / scan_kernels._tile_rows(batch, row)) == tiles
            y = scan_kernels.scan_forward(*inputs, mode, orders)
            got = scan_kernels.scan_backward(*inputs, mode, gy, orders)
            assert [v.tobytes() for v in y] == [v.tobytes() for v in want_y], cap
            for i, (g, w) in enumerate(zip(got, want, strict=True)):
                assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (cap, i)

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    @pytest.mark.parametrize("cap", [2 * 432, 215])
    def test_each_order_matches_naive_reference(self, mode, cap, monkeypatch):
        # 5 rows, 9 steps, dim 6, state 4: tiles of 1, 2 and 2 rows, or of
        # one row
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", cap)
        params = make_params(mode=mode, seed=43)
        x = Tensor(np.random.default_rng(44).normal(size=(5, 9, 6)))
        delta, b_t, c_t = projections(x, params)
        a = ad.neg(ad.exp(params.a_log))
        for name in self.ORDERS:
            orders = _two_orders(name, 9, 45)
            ys = scan_core(delta, a, b_t, c_t, x, mode, orders)
            assert len(ys) == 2
            for y, order in zip(ys, orders, strict=True):
                order = np.arange(9) if order is None else order
                want = naive_scan(x.data[:, order], params)[:, np.argsort(order)]
                got = y.data + x.data * params.d_skip.data
                np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    @pytest.mark.parametrize("cap", [1 << 40, 2 * 84, 1])
    def test_gradient_against_finite_differences_with_two_orders(self, mode, cap, monkeypatch):
        # two random orders (random-pair); one tile, tiles of 1 and 2 rows,
        # and one-row tiles
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", cap)
        inputs = _scan_inputs(np.random.default_rng(46), 3, 7, 3, 2)
        weights = [Tensor(np.random.default_rng(seed).normal(size=(3, 7, 3))) for seed in (47, 48)]
        orders = _two_orders("random-pair", 7, 49)
        for i, target in enumerate(inputs):

            def f(t, i=i):
                args = list(inputs)
                args[i] = t
                y1, y2 = scan_core(*args, mode, orders)
                return ad.tsum(ad.mul(y1, weights[0])) + ad.tsum(ad.mul(y2, weights[1]))

            err = ad.check_gradients(f, target)
            assert err < 1e-6, (mode, cap, i, err)

    def test_tiles_split_the_batch_evenly_at_the_weather_shape(self, monkeypatch):
        batch, steps, dim, state = 64, 21, 128, 16
        delta, x = np.zeros((batch, steps, dim)), np.zeros((batch, steps, dim))
        a, b_t = np.zeros((dim, state)), np.zeros((batch, steps, state))
        orders = (None, np.arange(steps)[::-1])
        scan = scan_kernels._Scan(delta, a, b_t, x, "zoh-exact", orders)
        assert scan.tiles == [slice(i, i + 1) for i in range(batch)]
        # a budget of 3 rows per tile: 22 tiles of 3 or 2 rows, not 21 of 3
        # and 1 of 1
        monkeypatch.setattr(scan_kernels, "_TILE_ELEMS", 1 << 18)
        scan = scan_kernels._Scan(delta, a, b_t, x, "zoh-exact", orders)
        assert len(scan.tiles) == 22
        sizes = [t.stop - t.start for t in scan.tiles]
        assert sorted(sizes) == [2] * 2 + [3] * 20
        assert [t.start for t in scan.tiles[1:]] == [t.stop for t in scan.tiles[:-1]]
        assert scan.tiles[0].start == 0 and scan.tiles[-1].stop == batch

    def test_two_order_memory_at_the_weather_shape(self):
        # zoh-exact, no gradient: the traced peak from an empty workspace, and
        # once warm, y plus at most four [rows, N, D] arrays per tile and the
        # buffers numpy's ufuncs take for strided operands (three operands of
        # np.getbufsize() elements)
        batch, steps, dim, state = 64, 21, 128, 16
        inputs = [t.data for t in _scan_inputs(np.random.default_rng(51), batch, steps, dim, state)]
        orders = (None, np.arange(steps)[::-1])

        def peaks():
            found = []
            for _ in range(2):
                tracemalloc.start()
                try:
                    y = scan_kernels.scan_forward(*inputs, "zoh-exact", orders)
                    found.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return sum(v.nbytes for v in y), found

        y_bytes, (cold, warm) = _in_thread(peaks)
        rows = scan_kernels._tile_rows(batch, 2 * steps * state * dim)
        assert cold / 2**20 <= 10.0, cold
        ufunc_buffers = 3 * np.getbufsize() * 8
        assert warm <= y_bytes + 4 * rows * state * dim * 8 + ufunc_buffers, warm

    def test_orders_must_be_permutations_and_not_empty(self):
        inputs = _scan_inputs(np.random.default_rng(53), 1, 4, 2, 2)
        with pytest.raises(ValueError, match="permutation"):
            scan_core(*inputs, "euler-b", (None, np.array([0, 1, 1, 3])))
        with pytest.raises(ValueError, match="no order"):
            scan_core(*inputs, "euler-b", ())

    def test_output_gradients_must_match_the_orders(self):
        inputs = [t.data for t in _scan_inputs(np.random.default_rng(52), 2, 4, 3, 2)]
        orders = (None, np.arange(4)[::-1])
        y = scan_kernels.scan_forward(*inputs, "euler-b", orders)
        with pytest.raises(ValueError, match="2 orders"):
            scan_kernels.scan_backward(*inputs, "euler-b", y[:1], orders)

    @pytest.mark.parametrize("mode", DISCRETIZATIONS)
    def test_outputs_are_arrays_of_their_own_and_an_unused_one_adds_zeros(self, mode):
        # each order's y is an array of its own, so a reader can let one go
        # and keep the other; an output that no gradient reaches scans back
        # zeros, as one whose gradient is all zeros does
        rng = np.random.default_rng(53)
        inputs = [Tensor(t.data, requires_grad=True) for t in _scan_inputs(rng, 3, 6, 3, 2)]
        orders = (None, np.arange(6)[::-1])
        weights = Tensor(rng.normal(size=(3, 6, 3)))

        def grads(second):
            for t in inputs:
                t.grad = None
            y1, y2 = scan_core(*inputs, mode, orders)
            assert not np.shares_memory(y1.data, y2.data)
            loss = ad.tsum(ad.mul(y1, weights))
            if second:
                loss = loss + ad.tsum(ad.mul(y2, Tensor(np.zeros((3, 6, 3)))))
            ad.backward(loss)
            return [t.grad.tobytes() for t in inputs]

        assert grads(False) == grads(True)

    def test_overflow_in_one_view_names_that_view(self):
        # A > 0 so the factors grow: token 2's exp(705) overflows the large
        # state it meets when scanned last, and not the zero state it meets
        # when scanned first
        delta = Tensor(np.array([1.0, 1.0, 705.0]).reshape(1, 3, 1))
        a = Tensor(np.ones((1, 1)))
        b_t = c_t = Tensor(np.ones((1, 3, 1)))
        x = Tensor(np.array([1e10, 1.0, 1.0]).reshape(1, 3, 1))
        first = np.array([2, 0, 1])
        ys = scan_core(delta, a, b_t, c_t, x, "euler-b", (first,))
        assert np.all(np.isfinite(ys[0].data))
        for orders, view in (((None, first), 0), ((first, None), 1)):
            message = f"in view {view} became non-finite at step 2"
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=message):
                scan_core(delta, a, b_t, c_t, x, "euler-b", orders)


class TestSelectiveScan:
    @pytest.mark.parametrize("mode", ["euler-b", "zoh-exact"])
    def test_matches_naive_reference(self, mode):
        params = make_params(mode=mode, seed=11)
        x = Tensor(np.random.default_rng(12).normal(size=(3, 9, 6)))
        fused = selective_scan(x, params).data
        reference = naive_scan(x, params)
        np.testing.assert_allclose(fused, reference, atol=1e-12, rtol=0)

    def test_shape_contract(self):
        params = make_params()
        y = selective_scan(Tensor(np.zeros((2, 5, 6))), params)
        assert y.shape == (2, 5, 6)
        with pytest.raises(ValueError, match="expected"):
            selective_scan(Tensor(np.zeros((2, 5, 7))), params)

    def test_gradient_end_to_end(self):
        params = make_params(dim=4, state=3, dt_rank=2, seed=13)
        x = Tensor(np.random.default_rng(14).normal(size=(2, 5, 4)))
        err = ad.check_gradients(
            lambda t: ad.tmean(selective_scan(t, params)), x
        )
        assert err < 1e-5

    def test_parameter_gradients(self):
        params = make_params(dim=4, state=3, dt_rank=2, seed=15)
        x = Tensor(np.random.default_rng(16).normal(size=(2, 5, 4)))
        for target in (params.a_log, params.w_b, params.w_c, params.b_dt, params.d_skip):
            err = _param_gradient_error(params, target, x)
            assert err < 1e-5, target.shape

    def test_causality_of_scan(self):
        # output at step k must not change when later steps change
        params = make_params(seed=17)
        rng = np.random.default_rng(18)
        x1 = rng.normal(size=(1, 8, 6))
        x2 = x1.copy()
        x2[:, 5:] = rng.normal(size=(1, 3, 6))
        y1 = naive_scan(x1, params)
        y2 = naive_scan(x2, params)
        np.testing.assert_allclose(y1[:, :5], y2[:, :5], atol=1e-15)
        assert not np.allclose(y1[:, 5:], y2[:, 5:])

    def test_reversal_equivariance_fails_with_input_dependent_step(self):
        # input-dependent delta breaks reverse(scan(reverse(x))) == scan(x);
        # the asymmetry is the point of selectivity, so assert the gap.
        params = make_params(seed=19)
        x = np.random.default_rng(20).normal(size=(1, 10, 6))
        direct = naive_scan(x, params)
        flipped = naive_scan(x[:, ::-1].copy(), params)[:, ::-1]
        assert np.abs(direct - flipped).max() > 1e-6

    def test_nan_input_reports_step_index(self):
        params = make_params(seed=21)
        x = np.zeros((1, 6, 6))
        x[0, 3, 0] = np.nan
        with pytest.raises(FloatingPointError, match="step 3"):
            naive_scan(x, params)

    @pytest.mark.parametrize("mode", ["euler-b", "zoh-exact"])
    def test_nan_input_reports_step_index_on_fused_path(self, mode):
        params = make_params(seed=21, mode=mode)
        x = np.zeros((1, 6, 6))
        x[0, 3, 0] = np.nan
        with pytest.raises(FloatingPointError, match="step 3"):
            selective_scan(Tensor(x), params)


def _param_gradient_error(params: SSMParams, target: Tensor, x: Tensor) -> float:
    """Finite-difference check for one parameter tensor of the layer."""

    def f(t: Tensor) -> Tensor:
        swapped = SSMParams(
            a_log=t if target is params.a_log else params.a_log,
            d_skip=t if target is params.d_skip else params.d_skip,
            w_dt_down=t if target is params.w_dt_down else params.w_dt_down,
            w_dt_up=t if target is params.w_dt_up else params.w_dt_up,
            b_dt=t if target is params.b_dt else params.b_dt,
            w_b=t if target is params.w_b else params.w_b,
            w_c=t if target is params.w_c else params.w_c,
            mode=params.mode,
        )
        return ad.tmean(selective_scan(x, swapped))

    return ad.check_gradients(f, target)
