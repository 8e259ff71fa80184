"""Fused discretize-and-scan kernels for the selective scan.

The scan is the one genuinely sequential loop in the model. Per token step
k, elementwise over [batch, dim, state] slabs:

    A_bar_k = exp(delta_k A)
    B_bar_k = delta_k B_k                                  (euler-b)
            = (exp(delta_k A) - 1) / (delta_k A) delta_k B_k  (zoh-exact)
    h_k     = A_bar_k * h_{k-1} + B_bar_k * x_k
    y_k     = sum_n C_k[n] * h_k[:, n]

The discretized factors and the states are never held for the whole
sequence. The steps are walked in segments of ceil(sqrt(S)) steps, and a
segment's factors and states live only while it is processed. When a
gradient will be taken, the forward keeps one checkpoint per segment: the
state entering it. The backward walks the segments in reverse, recomputes
each one's factors and states from its checkpoint, and accumulates the
gradients wrt delta, A, B_t, C_t and x. This is the fusion and
recomputation design of Mamba's ``selective_scan_fn`` (Gu & Dao 2023,
arXiv 2312.00752, section 3.3) in numpy: O(sqrt(S)) slabs of memory instead
of O(S), for one extra pass over the factors.

Shapes: delta and x [B, S, D], a [D, N], b_t and c_t [B, S, N]. Inside, the
step axis leads and dim is last ([L, B, N, D] per segment), so one step's
slab is contiguous and the broadcasts run along the long axis.

Batch rows never interact, so each call walks the batch in equal tiles of
rows, all segments of one tile before the next. The tile size follows from
the array shapes alone: the fewest tiles that keep one segment buffer
within ``_TILE_ELEMS`` elements (2 MiB), split as evenly as whole rows
allow. Every 4-D array of a call (delta A, exp(delta A), the input term,
the zero-order-hold factor that ``exprel`` writes in place, the states,
and the backward's gradients wrt the states and their products) is a view
of one workspace sized for one tile and reused by every tile and segment.
The workspace is kept per thread for the life of the process, one flat
buffer per role that grows when a call needs more than it holds and never
shrinks, so later calls reuse it: on these sizes a fresh array costs more
in page faults than the arithmetic written into it, and memory handed back
to the OS after each call is faulted in again on the next. Each role
starts at its own offset within a 4 KiB page (``_buffer``). The workspace
holds 9.6 MiB after a train-etth1 step, 9.2 MiB after a train-solar step
and 9.1 MiB after an analyze-weather step. Outputs are fresh arrays,
written straight into the [B, ...] results, and never share memory with
the workspace.
Tiling leaves every value bit for bit as a single tile computes it, except
the gradient wrt A, which sums over the batch and so depends on the tile
count by reduction order.

The steps may be walked in any order: with ``order``, an index vector over
the S tokens, step k of the recurrence reads token ``order[k]``, and y and
every gradient are written back to that token. A segment gathers only its
own [n, rows, D] slices of the inputs, so scanning a reordering of the
tokens makes no reordered copy of them, and the results come out in the
tokens' own order. The scan is the one order-dependent part of a block; two
orderings of the same tokens share every input. ``delta * x`` is formed per
segment, into the workspace, like the 4-D buffers.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .autodiff import exprel, exprel_grad

# Elements of one segment buffer of a batch tile: 2 MiB of float64, the
# size of a per-core L2 cache, so a tile's buffers are reused while cached.
_TILE_ELEMS = 1 << 18


def _tile_rows(batch, row_elems):
    """Rows per batch tile when one row of a segment buffer holds
    ``row_elems`` elements: the fewest equal tiles within ``_TILE_ELEMS``,
    at least one row each."""
    count = max(1, -(-batch // max(1, _TILE_ELEMS // max(1, row_elems))))
    return -(-batch // count)


_workspace = threading.local()
_ROLES = ("da", "a_bar", "bx", "hs", "dx", "factor", "dxb", "gh", "work")
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


class _Scan:
    """Step-major views of the inputs, the segments and batch tiles, and
    views of the workspace for one call: buffers [segment, tile rows, N, D]."""

    def __init__(self, delta, a, b_t, x, mode, order, backward=False):
        self.zoh = mode == "zoh-exact"
        self.delta, self.b_t, self.x = (np.swapaxes(v, 0, 1) for v in (delta, b_t, x))
        self.order = order
        self.a_t = a.T
        steps, batch, dim = self.x.shape
        self.state = self.a_t.shape
        size = math.isqrt(max(steps - 1, 0)) + 1  # ceil(sqrt(steps))
        self.segments = [slice(s0, min(s0 + size, steps)) for s0 in range(0, steps, size)]
        rows = _tile_rows(batch, size * a.size)
        self.tiles = [slice(b0, min(b0 + rows, batch)) for b0 in range(0, batch, max(rows, 1))]
        shape = (size, rows) + self.state
        self.da, self.a_bar, self.bx = (_buffer(role, shape) for role in ("da", "a_bar", "bx"))
        self.hs = _buffer("hs", (size + 1,) + shape[1:])
        self.dx = _buffer("dx", (size, rows, dim))
        self.factor = _buffer("factor", shape) if self.zoh else None
        # the input term before the zero-order-hold factor: the forward
        # scales it in place, the backward reads it again
        self.dxb = _buffer("dxb", shape) if self.zoh and backward else self.bx
        self.gh, self.work = (
            (_buffer("gh", shape), _buffer("work", shape)) if backward else (None, None)
        )

    def run(self, seg, tile, h0):
        """Factors and states [h0, h_1, ..., h_n] of the steps in ``seg`` for
        the rows in ``tile``, starting from state ``h0`` [rows, N, D]; the
        buffers hold them in [:n + 1, :rows]. ``seg_delta``, ``seg_b`` and
        ``seg_x`` are the segment's inputs [n, rows, ...] in step order, and
        ``dx`` their delta * x. Returns (tokens, n, rows): what the steps
        index in the [S, ...] inputs, a slice or the segment's part of
        ``order``."""
        tokens = seg if self.order is None else self.order[seg]
        n, r = seg.stop - seg.start, tile.stop - tile.start
        da, a_bar, bx, hs = self.da[:n, :r], self.a_bar[:n, :r], self.bx[:n, :r], self.hs[:, :r]
        self.seg_delta, self.seg_b, self.seg_x = (
            v[tokens, tile] for v in (self.delta, self.b_t, self.x)
        )
        dx = np.multiply(self.seg_delta, self.seg_x, out=self.dx[:n, :r])
        np.multiply(self.seg_delta[:, :, None, :], self.a_t, out=da)
        np.exp(da, out=a_bar)
        np.multiply(dx[:, :, None, :], self.seg_b[:, :, :, None], out=self.dxb[:n, :r])
        if self.zoh:
            np.multiply(self.dxb[:n, :r], exprel(da, out=self.factor[:n, :r]), out=bx)
        hs[0] = h0
        for k in range(n):
            np.multiply(a_bar[k], hs[k], out=hs[k + 1])
            hs[k + 1] += bx[k]
        return tokens, n, r


def scan_forward(delta, a, b_t, c_t, x, mode, keep_checkpoints, order=None):
    """Run the recurrence; returns (y [B, S, D], checkpoints).

    The checkpoints, [segments, B, N, D], are the states entering each
    segment; with ``keep_checkpoints`` false none are kept (shape [0, ...]).
    With ``order`` (an index vector over S), step k reads token ``order[k]``
    and writes y there.
    """
    scan = _Scan(delta, a, b_t, x, mode, order)
    c_t = np.swapaxes(c_t, 0, 1)
    count = len(scan.segments) if keep_checkpoints else 0
    checkpoints = np.empty((count, x.shape[0]) + scan.state)
    y = np.empty(x.shape)
    y_steps = np.swapaxes(y, 0, 1)
    for tile in scan.tiles:
        h = np.zeros((tile.stop - tile.start,) + scan.state)
        for j, seg in enumerate(scan.segments):
            if keep_checkpoints:
                checkpoints[j, tile] = h
            at, n, r = scan.run(seg, tile, h)
            y_steps[at, tile] = np.matmul(c_t[at, tile][:, :, None, :], scan.hs[1 : n + 1, :r])[:, :, 0, :]
            h = scan.hs[n, :r]
    return y, checkpoints


def scan_backward(delta, a, b_t, c_t, x, mode, checkpoints, gy, order=None):
    """Vector-Jacobian product wrt (delta, a, b_t, c_t, x), recomputing the
    states segment by segment from the forward's checkpoints; ``order`` is
    the forward's."""
    scan = _Scan(delta, a, b_t, x, mode, order, backward=True)
    c_t, gy = np.swapaxes(c_t, 0, 1), np.swapaxes(gy, 0, 1)
    grads = g_delta, g_b, g_c, g_x = [np.empty(v.shape) for v in (delta, b_t, b_t, x)]
    g_delta_s, g_b_s, g_c_s, g_x_s = (np.swapaxes(g, 0, 1) for g in grads)
    g_a_t = np.zeros(scan.state)
    for tile in scan.tiles:
        # d loss / d h entering the segment after this one, through its steps
        carry = np.zeros((tile.stop - tile.start,) + scan.state)
        for seg, h0 in zip(reversed(scan.segments), checkpoints[::-1, tile], strict=True):
            at, n, r = scan.run(seg, tile, h0)
            a_bar, hs = scan.a_bar[:n, :r], scan.hs[: n + 1, :r]
            gh, work = scan.gh[:n, :r], scan.work[:n, :r]
            seg_gy = gy[at, tile]
            # d loss / d h_k: its own readout plus what flows back from step k+1
            np.multiply(seg_gy[:, :, None, :], c_t[at, tile][:, :, :, None], out=gh)
            gh[-1] += carry
            for k in range(n - 2, -1, -1):
                np.multiply(a_bar[k + 1], gh[k + 1], out=work[k])
                gh[k] += work[k]
            np.multiply(a_bar[0], gh[0], out=carry)
            g_c_s[at, tile] = np.matmul(hs[1:], seg_gy[:, :, :, None])[..., 0]
            # d loss / d (delta A)
            np.multiply(gh, hs[:-1], out=work)
            work *= a_bar
            if scan.zoh:
                # bx and a_bar are not read again for this segment; they take
                # the factor's derivative and its intermediate
                grad = exprel_grad(scan.da[:n, :r], out=scan.bx[:n, :r], scratch=a_bar)
                grad *= gh
                grad *= scan.dxb[:n, :r]
                work += grad
                gh *= scan.factor[:n, :r]
            # gh is now d loss / d (delta x B) elementwise
            s = np.matmul(scan.seg_b[:, :, None, :], gh)[:, :, 0, :]
            g_x_s[at, tile] = scan.seg_delta * s
            g_delta_s[at, tile] = scan.seg_x * s + np.einsum("lbnd,nd->lbd", work, scan.a_t)
            g_b_s[at, tile] = np.matmul(gh, scan.dx[:n, :r, :, None])[..., 0]
            g_a_t += np.einsum("lbnd,lbd->nd", work, scan.seg_delta)
    return g_delta, np.ascontiguousarray(g_a_t.T), g_b, g_c, g_x
