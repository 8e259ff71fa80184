"""Fused discretize-and-scan kernels for the selective scan.

The scan is the one genuinely sequential loop in the model. Per token step
k, elementwise over [batch, dim, state] slabs:

    A_bar_k = exp(delta_k A)
    B_bar_k = delta_k B_k                                  (euler-b)
            = (exp(delta_k A) - 1) / (delta_k A) delta_k B_k  (zoh-exact)
    h_k     = A_bar_k * h_{k-1} + B_bar_k * x_k
    y_k     = sum_n C_k[n] * h_k[:, n]

A call scans the tokens once per order in a tuple of V orders. Each order
is an index vector over the S tokens (None: the tokens in turn): step k of
its recurrence reads token ``order[k]``, and its y (y[v], one [B, S, D]
array per order) and its share of every gradient are written back to that
token, so results come out in the tokens' own order and no reordered copy of
an input is made. Each order's y is an array of its own, so a caller that
reads them one at a time can drop each once read. The orders share every
input; the scan is the one order-dependent part of a block.

Every call has one layout. Per batch tile, the discretized factors of all S
tokens (delta A, exp(delta A), the input term delta x B and, for zero-order
hold, its factor) are computed once, in token order. Each order then walks
them from the zero state, step k reading position ``order[k]`` and writing
its state there. Nothing is kept between the forward and the backward: the
backward recomputes the factors and every walk's states. Its reverse loop
forms, per step, exp(delta A) times the gradient wrt the state, which is
what flows back to the state before it; times that state, it is the step's
gradient wrt delta A, summed over the walks in token order as the loop goes.
The walks' gradients wrt the states (d loss / d (delta x B) before the
zero-order-hold factor) are summed in token order, and then the
zero-order-hold chain and the contractions for the gradients wrt x, delta,
B_t and A run once per tile. This is the fusion and recomputation design of
Mamba's ``selective_scan_fn`` (Gu & Dao 2023, arXiv 2312.00752, section
3.3) in numpy: the factors are built in a small workspace and consumed
there, never held for a whole call.

Shapes: delta and x [B, S, D], a [D, N], b_t and c_t [B, S, N]. Inside, the
step axis leads and dim is last ([S, rows, N, D] per tile), so one step's
slab is contiguous and the broadcasts run along the long axis.

Batch rows never interact, so each call walks the batch in equal tiles of
rows. The tile size follows from the array shapes alone: the fewest tiles
that keep the states of all V walks (V * S * N * D elements per row) within
``_TILE_ELEMS`` elements (512 KiB, near cache size), at least one row each,
split as evenly as whole rows allow. Two orders run in one-row tiles at
every benchmark shape.
Every 4-D array of a call (delta A, exp(delta A), the input term, the
zero-order-hold factor that ``exprel`` writes in place, the states, and the
backward's gradients wrt the states and their products) is a view of one
workspace sized for one tile: S * N * D elements per role and tile row, V
times that for the states and their gradients in a backward. It is reused
by every tile. The workspace is kept per thread for the life of the
process, one flat buffer per role that grows when a call needs more than it
holds and never shrinks, so later calls reuse it: on these sizes a fresh
array costs more in page faults than the arithmetic written into it, and
memory handed back to the OS after each call is faulted in again on the
next. Each role starts at its own offset within a 4 KiB page (``_buffer``).
The workspace holds 1.8 MiB after a train-etth1 step, 17.3 MiB after a
train-solar step and 1.7 MiB after an analyze-weather step. Outputs are
fresh arrays, written straight into the results (one y per order), and
never share memory with the workspace.
Tiling leaves every value bit for bit as a single tile computes it, except
the gradient wrt A, which sums over the batch and so depends on the tile
count by reduction order. Each order's y is bit for bit what a call with
that order alone gives; the gradients of a call with several orders are
the sum of the single-order ones up to reduction order.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .autodiff import exprel, exprel_grad

# Elements of one tile's states for all its walks: 512 KiB of float64, near
# cache size. On a 2-vCPU x86 box with one BLAS thread (min of 9 calls), one
# layer's two-order forward and backward ran in one-row tiles in 12.9 ms at
# the etth1 shape and 69.8 ms at the weather shape, against 13.7 and 72-74
# ms in the 4- and 3-row tiles of a 2 MiB budget.
_TILE_ELEMS = 1 << 16


def _tile_rows(batch, row_elems):
    """Rows per batch tile when one row of the walks' states holds
    ``row_elems`` elements: the fewest tiles within ``_TILE_ELEMS``, at
    least one row each, cut as evenly as whole rows allow; the largest tile
    holds this many rows."""
    count = max(1, -(-batch // max(1, _TILE_ELEMS // max(1, row_elems))))
    return -(-batch // count)


_workspace = threading.local()
_ROLES = ("da", "a_bar", "bx", "hs", "dx", "factor", "dxb", "gh", "g_da")
# Bytes between the roles' start offsets within a 4 KiB page: nine cache
# lines, so the nine roles start at nine distinct offsets.
_STAGGER = 576
_PAGE = 4096


def _buffer(role, shape):
    """A ``shape`` view of this thread's workspace buffer for ``role``,
    grown (never shrunk) when the call needs more than it holds.

    Each role starts at its own offset within a 4 KiB page. The allocator
    maps buffers this large at one and the same offset within a page, and
    slabs at equal offsets that one step reads and writes together collide
    in the L1 cache and in the CPU's 4 KiB load-store alias check, which
    cost ~7-12% of the kernels' time at the benchmark's shapes."""
    need = math.prod(shape)
    flat = getattr(_workspace, role, None)
    if flat is None or flat.size < need:
        raw = np.empty(need + _PAGE // 8)
        shift = (_ROLES.index(role) * _STAGGER - raw.ctypes.data) % _PAGE // 8
        flat = raw[shift : shift + need]
        setattr(_workspace, role, flat)
    return flat[:need].reshape(shape)


class _StepViews(NamedTuple):
    """Per-step [rows, N, D] slabs of the workspace at one tile height:
    ``a_bar``, ``bx`` and ``g_da`` hold one per position, ``hs`` one list
    of S + 1 per kept walk and ``gh`` one list of S per walk; ``g_da`` and
    ``gh`` are None in a forward."""

    a_bar: list
    bx: list
    hs: list
    gh: list | None
    g_da: list | None


class _Scan:
    """Step-major views of the inputs, the batch tiles, each order's steps,
    and views of the workspace for one call: buffers [S, tile rows, N, D].

    ``walks`` lists each order's positions in step order; walk v's step k
    reads position ``walks[v][k]`` of the factors. The step loops index
    lists of per-step slabs (``step_views``), built once per call and tile
    height, instead of slicing the buffers at every step.
    """

    def __init__(self, delta, a, b_t, x, mode, orders, backward=False):
        self.zoh = mode == "zoh-exact"
        self.delta, self.b_t, self.x = (np.swapaxes(v, 0, 1) for v in (delta, b_t, x))
        self.a_t = a.T
        steps, batch, dim = self.x.shape
        self.state = self.a_t.shape
        self.walks = [list(range(steps)) if o is None else o.tolist() for o in orders]
        rows = _tile_rows(batch, len(orders) * steps * a.size)
        count = -(-batch // max(rows, 1))
        # cut evenly: tile sizes differ by at most one row, none above rows
        self.tiles = [slice(t * batch // count, (t + 1) * batch // count) for t in range(count)]
        shape = (steps, rows) + self.state
        self.da, self.a_bar, self.bx = (_buffer(role, shape) for role in ("da", "a_bar", "bx"))
        # the backward keeps every walk's states; the forward reads out each
        # walk's before the next
        kept = len(orders) if backward else 1
        self.hs = _buffer("hs", (kept, steps + 1) + shape[1:])
        self.dx = _buffer("dx", (steps, rows, dim))
        self.factor = _buffer("factor", shape) if self.zoh else None
        # min |A|: times a tile's least step size, a lower bound on |delta A|
        self.a_abs_min = np.min(np.abs(a), initial=np.inf) if self.zoh else None
        # the input term before the zero-order-hold factor: the forward
        # scales it in place, the backward reads it again
        self.dxb = _buffer("dxb", shape) if self.zoh and backward else self.bx
        self.gh = _buffer("gh", (len(orders),) + shape) if backward else None
        self.g_da = _buffer("g_da", shape) if backward else None
        self._step_views = {}

    def step_views(self, r):
        """The workspace's per-step slabs at tile height ``r``, built on the
        first tile of that height."""
        views = self._step_views.get(r)
        if views is None:

            def slabs(buf):
                return None if buf is None else list(buf[:, :r])

            views = self._step_views[r] = _StepViews(
                slabs(self.a_bar),
                slabs(self.bx),
                [slabs(h) for h in self.hs],
                None if self.gh is None else [slabs(g) for g in self.gh],
                slabs(self.g_da),
            )
        return views

    def factors(self, tile):
        """The factors of every token for the rows in ``tile``, into the
        buffers' [:, :rows]. ``t_delta``, ``t_b`` and ``t_x`` are the tile's
        inputs [S, rows, ...] and ``dx`` their delta * x. Returns rows."""
        self.t_delta, self.t_b, self.t_x = (v[:, tile] for v in (self.delta, self.b_t, self.x))
        r = tile.stop - tile.start
        da, a_bar, bx = self.da[:, :r], self.a_bar[:, :r], self.bx[:, :r]
        dx = np.multiply(self.t_delta, self.t_x, out=self.dx[:, :r])
        np.einsum("srd,nd->srnd", self.t_delta, self.a_t, out=da)
        np.exp(da, out=a_bar)
        np.einsum("srd,srn->srnd", dx, self.t_b, out=self.dxb[:, :r])
        if self.zoh:
            # a bound clear of exprel's series range spares it two reductions
            # over da; a NaN or underflowed step size leaves the full search
            bound = np.min(self.t_delta, initial=np.inf) * self.a_abs_min
            factor = exprel(da, out=self.factor[:, :r], abs_min=bound)
            np.multiply(self.dxb[:, :r], factor, out=bx)
        return r

    def recur(self, steps, views, i=0):
        """States of one walk over ``steps`` (positions in step order) from
        the zero state, into kept walk ``i``'s slabs of ``views``: zero in
        slot 0 and the state after position j in slot j + 1."""
        a_bar, bx, hs = views.a_bar, views.bx, views.hs[i]
        prev = hs[0]
        prev.fill(0.0)
        for j in steps:
            h = hs[j + 1]
            np.multiply(a_bar[j], prev, out=h)
            h += bx[j]
            prev = h


def _matvec(m, v, out=None):
    """``m @ v`` over the last two axes of ``m`` [..., P, Q] and ``v``
    [..., Q]: [..., P], into ``out`` when given."""
    dst = None if out is None else out[..., None]
    return np.matmul(m, v[..., None], out=dst)[..., 0]


def scan_forward(delta, a, b_t, c_t, x, mode, orders=(None,)):
    """Run the recurrence once per order; returns a list of V arrays, y[v]
    [B, S, D] for order v.

    ``orders`` holds V index vectors over S (None: the tokens in turn); for
    order v, step k reads token ``orders[v][k]`` and writes y[v] there. Each
    y is its own array, so a caller can let one go while it keeps the others.
    """
    scan = _Scan(delta, a, b_t, x, mode, orders)
    c_t = np.swapaxes(c_t, 0, 1)
    ys = [np.empty(x.shape) for _ in orders]
    y_steps = [np.swapaxes(y, 0, 1) for y in ys]
    for tile in scan.tiles:
        r = scan.factors(tile)
        views = scan.step_views(r)
        hs = scan.hs[0, :, :r]
        for v, steps in enumerate(scan.walks):
            scan.recur(steps, views)
            readout = np.matmul(c_t[:, tile][:, :, None, :], hs[1:])
            y_steps[v][:, tile] = readout[:, :, 0, :]
    return ys


def scan_backward(delta, a, b_t, c_t, x, mode, gy, orders=(None,)):
    """Vector-Jacobian product wrt (delta, a, b_t, c_t, x), recomputing the
    factors and states tile by tile from the zero state; ``gy``, V arrays
    [B, S, D], and ``orders`` are the gradients of the forward's ys and its
    orders.

    The walks sum their per-token gradients wrt the states and wrt delta A
    in token order; the zero-order-hold chain and the contractions then run
    once per tile.
    """
    if len(gy) != len(orders):
        raise ValueError(f"scan_backward: {len(gy)} output gradients for {len(orders)} orders")
    scan = _Scan(delta, a, b_t, x, mode, orders, backward=True)
    c_t, gy = np.swapaxes(c_t, 0, 1), [np.swapaxes(g, 0, 1) for g in gy]
    g_delta, g_b, g_c, g_x = [np.empty(v.shape) for v in (delta, b_t, b_t, x)]
    # step-major views, which the parts below are written into
    g_x_s, g_delta_s, g_b_s, g_c_s = (np.swapaxes(g, 0, 1) for g in (g_x, g_delta, g_b, g_c))
    g_a_t = np.zeros(scan.state)
    # the walks after the first build each step's d loss / d (delta A) here
    # before adding it to the first walk's
    term = np.empty(scan.gh.shape[2:]) if len(orders) > 1 else None
    for tile in scan.tiles:
        r = scan.factors(tile)
        views = scan.step_views(r)
        # per-step slabs (lists) of a_bar, g_da and the walk's hs and gh
        a_bar_s, g_da_s = views.a_bar, views.g_da
        c_b = c_t[:, tile]
        term_r = None if term is None else term[:r]
        for i, steps in enumerate(scan.walks):
            hs_s, gh_s = views.hs[i], views.gh[i]
            scan.recur(steps, views, i)
            t_gy = gy[i][:, tile]
            # d loss / d h_k: its own readout plus what flows back from step
            # k+1, a_bar[k+1] * gh[k+1]; times the state entering step k+1,
            # that product is step k+1's d loss / d (delta A). Walk 0 writes
            # it into g_da, the others add theirs through term
            np.einsum("srd,srn->srnd", t_gy, c_b, out=scan.gh[i, :, :r])
            for k in range(len(steps) - 2, -1, -1):
                s0, s1 = steps[k], steps[k + 1]
                prod = g_da_s[s1] if i == 0 else term_r
                np.multiply(a_bar_s[s1], gh_s[s1], out=prod)
                np.add(gh_s[s0], prod, out=gh_s[s0])
                prod *= hs_s[s0 + 1]
                if i:
                    np.add(g_da_s[s1], prod, out=g_da_s[s1])
            # the first step enters from the zero state
            states = scan.hs[i, 1:, :r]
            if i == 0:
                g_da_s[steps[0]].fill(0.0)
                g_c_b = _matvec(states, t_gy, g_c_s[:, tile])
            else:
                g_c_b += _matvec(states, t_gy)
        a_bar, g_da, gh = scan.a_bar[:, :r], scan.g_da[:, :r], scan.gh[0, :, :r]
        # the walks' gradients wrt the states, summed into walk 0's
        for i in range(1, len(scan.walks)):
            gh += scan.gh[i, :, :r]
        if scan.zoh:
            # a_bar and bx are not read again for this tile; they take the
            # factor's derivative and its intermediate
            da, bx = scan.da[:, :r], scan.bx[:, :r]
            grad = exprel_grad(da, out=a_bar, scratch=bx, exp_x=a_bar)
            grad *= gh
            grad *= scan.dxb[:, :r]
            g_da += grad
            gh *= scan.factor[:, :r]
        # gh is now d loss / d (delta x B) elementwise
        s = np.matmul(scan.t_b[:, :, None, :], gh)[:, :, 0, :]
        np.multiply(scan.t_delta, s, out=g_x_s[:, tile])
        g_delta_t = np.multiply(scan.t_x, s, out=g_delta_s[:, tile])
        g_delta_t += np.einsum("lbnd,nd->lbd", g_da, scan.a_t)
        _matvec(gh, scan.dx[:, :r], g_b_s[:, tile])
        g_a_t += np.einsum("lbnd,lbd->nd", g_da, scan.t_delta)
    return g_delta, np.ascontiguousarray(g_a_t.T), g_b, g_c, g_x
