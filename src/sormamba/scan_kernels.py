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
its recurrence reads token ``order[k]``, and its y (y[v] of a [V, B, S, D]
result) and its share of every gradient are written back to that token, so
results come out in the tokens' own order and no reordered copy of an input
is made. The orders share every input; the scan is the one order-dependent
part of a block.

The work is done in blocks. A block is a set of tokens whose discretized
factors (delta A, exp(delta A), the input term delta x B and, for
zero-order hold, its factor) are computed once, in the block's order, plus
one walk per order: the positions in the block that its steps read. The
layout follows from the shapes alone:

* Shared: with more than one order, when one batch row of the whole
  sequence (S * N * D elements) fits within ``_SHARED_ELEMS``, every order
  walks one block of all S tokens in token order, reading ``a_bar[order[k]]``
  and writing its states at those positions. The factors are computed once
  for all the orders. No checkpoints are kept: the backward recomputes the
  block from the zero state. This holds at the weather, etth1 and solar
  shapes.
* Segmented: otherwise (one order, or rows above the budget, such as
  Traffic's 862 tokens), each order walks its own segments of
  ceil(sqrt(S)) steps, one block each, gathered in step order, carrying its
  state from one segment to the next. When a gradient will be taken, the
  forward keeps one checkpoint per segment, the state entering it, and the
  backward walks the segments in reverse, recomputing each one's factors
  and states from its checkpoint: O(sqrt(S)) slabs of memory instead of
  O(S), for one extra pass over the factors.

Both layouts run the same recurrence loop over a block. The backward runs
each walk's forward and reverse recurrence. Its reverse loop forms, per
step, exp(delta A) times the gradient wrt the state, which is what flows
back to the state before it; times that state, it is the step's gradient
wrt delta A, summed over the walks in token order as the loop goes. The
walks' gradients wrt the states (d loss / d (delta x B) before the
zero-order-hold factor) are summed in token order, and then the
zero-order-hold chain and the contractions for the gradients wrt x, delta,
B_t and A run once per block. This is the fusion and recomputation design
of Mamba's ``selective_scan_fn`` (Gu & Dao 2023, arXiv 2312.00752, section
3.3) in numpy: the factors are built in a small workspace and consumed
there, never held for a whole call.

Shapes: delta and x [B, S, D], a [D, N], b_t and c_t [B, S, N]. Inside, the
step axis leads and dim is last ([L, B, N, D] per block), so one step's
slab is contiguous and the broadcasts run along the long axis.

Batch rows never interact, so each call walks the batch in equal tiles of
rows, all blocks of one tile before the next. The tile size follows from
the array shapes alone: the fewest tiles that keep one block's buffers for
all its walks (one segment, or V copies of the whole sequence) within
``_TILE_ELEMS`` elements (512 KiB, near cache size), at least one row
each, split as evenly as whole rows allow. A shared block at the
benchmark's shapes runs in one-row tiles.
Every 4-D array of a call (delta A, exp(delta A), the input term, the
zero-order-hold factor that ``exprel`` writes in place, the states, and the
backward's gradients wrt the states and their products) is a view of one
workspace sized for one tile and reused by every tile and block. The
workspace is kept per thread for the life of the process, one flat buffer
per role that grows when a call needs more than it holds and never shrinks,
so later calls reuse it: on these sizes a fresh array costs more in page
faults than the arithmetic written into it, and memory handed back to the
OS after each call is faulted in again on the next. Each role starts at its
own offset within a 4 KiB page (``_buffer``). The workspace holds 1.8
MiB after a train-etth1 step, 17.3 MiB after a train-solar step (whose
shared block holds all 137 steps) and 1.7 MiB after an analyze-weather
step. Outputs are fresh arrays, written straight into the [V, B, ...]
results, and never share memory with the workspace.
Tiling leaves every value bit for bit as a single tile computes it, except
the gradient wrt A, which sums over the batch and so depends on the tile
count by reduction order. Each order's y is bit for bit what a call with
that order alone gives; the gradients of a call with several orders are
the sum of the single-order ones up to reduction order.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .autodiff import exprel, exprel_grad

# Elements of one block's buffers for all its walks in a batch tile: 512
# KiB of float64, near cache size. On a 2-vCPU x86 box with one BLAS thread
# (min of 9 calls), one layer's shared two-order forward and backward ran
# in one-row tiles in 12.9 ms at the etth1 shape and 69.8 ms at the
# weather shape, against 13.7 and 72-74 ms in the 4- and 3-row tiles of a
# 2 MiB budget; one-order calls in segments ran 10.0 / 23.8 / 52.4 ms at
# the etth1 / solar / weather shapes against 11.1 / 25.7 / 59.7 ms.
_TILE_ELEMS = 1 << 16

# Elements of one batch row of the whole sequence (S * N * D) up to which
# several orders share one block: 4 MiB of float64 per role. Solar's rows
# (137 * 16 * 128 = 280,576 elements) shared ran one layer's two-order
# forward and backward in 42.9 ms against 50.1 ms in segments (same box),
# and keep no checkpoints, for 17.3 MiB of workspace against 9.2 MiB; each
# further row per tile would add 17.3 MiB. A two-order backward at this
# budget holds ~34 MiB. At d_inner 128, rows of Traffic's or Electricity's
# 862 or 321 tokens stay segmented.
_SHARED_ELEMS = 1 << 19


def _tile_rows(batch, row_elems):
    """Rows per batch tile when one row of a segment buffer holds
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


def _shares_block(n_orders, steps, state_elems):
    """Whether ``n_orders`` walks over ``steps`` tokens share one block of
    all the tokens: more than one order, and one row of the whole sequence
    (``steps * state_elems`` elements, N * D per token) within
    ``_SHARED_ELEMS``."""
    return n_orders > 1 and steps * state_elems <= _SHARED_ELEMS


class _Scan:
    """Step-major views of the inputs, the blocks and batch tiles, and views
    of the workspace for one call: buffers [block, tile rows, N, D].

    ``blocks`` lists (tokens, walks): a block's tokens index the [S, ...]
    inputs (a slice or an index vector) and its factors are computed once,
    into buffer positions in that order; each walk (view, positions) runs one
    order's recurrence over them, step k reading position ``positions[k]``
    (None: the positions in turn). With ``shared`` there is one block of all
    the tokens in token order, walked once per order from the zero state;
    otherwise each order walks its own segments in turn, one block and one
    checkpoint each, carrying its state from one segment to the next.
    ``checkpoint_shape`` is that of the states a backward starts its blocks
    from: [blocks, B, N, D], or [0, B, N, D] for a shared block.
    """

    def __init__(self, delta, a, b_t, x, mode, orders, backward=False):
        self.zoh = mode == "zoh-exact"
        self.delta, self.b_t, self.x = (np.swapaxes(v, 0, 1) for v in (delta, b_t, x))
        self.a_t = a.T
        steps, batch, dim = self.x.shape
        self.state = self.a_t.shape
        self.shared = _shares_block(len(orders), steps, a.size)
        if self.shared:
            size, walks = steps, len(orders)
            self.blocks = [(slice(0, steps), list(enumerate(orders)))]
        else:
            size, walks = math.isqrt(max(steps - 1, 0)) + 1, 1  # ceil(sqrt(steps))
            segments = [slice(s0, min(s0 + size, steps)) for s0 in range(0, steps, size)]
            self.blocks = [
                (seg if order is None else order[seg], [(v, None)])
                for v, order in enumerate(orders)
                for seg in segments
            ]
        self.checkpoint_shape = (0 if self.shared else len(self.blocks), batch) + self.state
        # one buffer per walk of a block, for the states and their gradients
        rows = _tile_rows(batch, walks * size * a.size)
        count = -(-batch // max(rows, 1))
        # cut evenly: tile sizes differ by at most one row, none above rows
        self.tiles = [slice(t * batch // count, (t + 1) * batch // count) for t in range(count)]
        shape = (size, rows) + self.state
        self.da, self.a_bar, self.bx = (_buffer(role, shape) for role in ("da", "a_bar", "bx"))
        # the backward keeps every walk's states; the forward reads out each
        # walk's before the next
        kept = walks if backward else 1
        self.hs = _buffer("hs", (kept, size + 1) + shape[1:])
        self.dx = _buffer("dx", (size, rows, dim))
        self.factor = _buffer("factor", shape) if self.zoh else None
        # the input term before the zero-order-hold factor: the forward
        # scales it in place, the backward reads it again
        self.dxb = _buffer("dxb", shape) if self.zoh and backward else self.bx
        self.gh = _buffer("gh", (walks,) + shape) if backward else None
        self.g_da = _buffer("g_da", shape) if backward else None

    def factors(self, tokens, tile):
        """The factors of ``tokens`` for the rows in ``tile``, into the
        buffers' [:n, :rows] in the order of ``tokens``. ``seg_delta``,
        ``seg_b`` and ``seg_x`` are the block's inputs [n, rows, ...] and
        ``dx`` their delta * x. Returns (n, rows)."""
        self.seg_delta, self.seg_b, self.seg_x = (
            v[tokens, tile] for v in (self.delta, self.b_t, self.x)
        )
        n, r = len(self.seg_x), tile.stop - tile.start
        da, a_bar, bx = self.da[:n, :r], self.a_bar[:n, :r], self.bx[:n, :r]
        dx = np.multiply(self.seg_delta, self.seg_x, out=self.dx[:n, :r])
        np.multiply(self.seg_delta[:, :, None, :], self.a_t, out=da)
        np.exp(da, out=a_bar)
        np.multiply(dx[:, :, None, :], self.seg_b[:, :, :, None], out=self.dxb[:n, :r])
        if self.zoh:
            np.multiply(self.dxb[:n, :r], exprel(da, out=self.factor[:n, :r]), out=bx)
        return n, r

    def recur(self, steps, h0, hs):
        """States of one walk over the block's ``steps`` (positions in step
        order) from ``h0`` [rows, N, D] (None: zero): hs [n + 1, rows, N, D]
        holds h0 in slot 0 and the state after position j in slot j + 1.
        Returns the last state."""
        n, r = len(hs) - 1, hs.shape[1]
        a_bar, bx = self.a_bar[:n, :r], self.bx[:n, :r]
        hs[0] = 0.0 if h0 is None else h0
        prev = 0
        for j in steps:
            np.multiply(a_bar[j], hs[prev], out=hs[j + 1])
            hs[j + 1] += bx[j]
            prev = j + 1
        return hs[prev]


def _matvec(m, v, out=None):
    """``m @ v`` over the last two axes of ``m`` [..., P, Q] and ``v``
    [..., Q]: [..., P], into ``out`` when given."""
    dst = None if out is None else out[..., None]
    return np.matmul(m, v[..., None], out=dst)[..., 0]


def _steps(positions, n):
    """A walk's positions in step order, as a list of ints."""
    return list(range(n)) if positions is None else positions.tolist()


def scan_forward(delta, a, b_t, c_t, x, mode, keep_checkpoints, orders=(None,)):
    """Run the recurrence once per order; returns (y [V, B, S, D],
    checkpoints).

    ``orders`` holds V index vectors over S (None: the tokens in turn); for
    order v, step k reads token ``orders[v][k]`` and writes y[v] there. The
    checkpoints, [V * segments, B, N, D], are the states entering each
    order's segments; none are kept (shape [0, ...]) without
    ``keep_checkpoints``, or when the orders share one block, whose backward
    starts from the zero state.
    """
    scan = _Scan(delta, a, b_t, x, mode, orders)
    c_t = np.swapaxes(c_t, 0, 1)
    count = scan.checkpoint_shape[0] if keep_checkpoints else 0
    checkpoints = np.empty((count,) + scan.checkpoint_shape[1:])
    y = np.empty((len(orders),) + x.shape)
    y_steps = np.swapaxes(y, 1, 2)
    for tile in scan.tiles:
        # each order's state entering its next segment: a view of hs, read
        # by the next block, which continues the same order
        state = {}
        for j, (tokens, walks) in enumerate(scan.blocks):
            n, r = scan.factors(tokens, tile)
            hs = scan.hs[0, : n + 1, :r]
            for v, positions in walks:
                if count:
                    checkpoints[j, tile] = state.get(v, 0.0)
                state[v] = scan.recur(_steps(positions, n), state.get(v), hs)
                readout = np.matmul(c_t[tokens, tile][:, :, None, :], hs[1:])
                y_steps[v, tokens, tile] = readout[:, :, 0, :]
    return y, checkpoints


def scan_backward(delta, a, b_t, c_t, x, mode, checkpoints, gy, orders=(None,)):
    """Vector-Jacobian product wrt (delta, a, b_t, c_t, x), recomputing the
    states block by block from the forward's checkpoints (or from the zero
    state, for a shared block); ``gy`` [V, B, S, D] and ``orders`` are the
    forward's y's gradient and orders, and ``checkpoints`` must have the
    shape of the forward's, taken with ``keep_checkpoints``.

    The walks of a block sum their per-token gradients wrt the states and
    wrt delta A in token order; the zero-order-hold chain and the
    contractions then run once per block.
    """
    if len(gy) != len(orders):
        raise ValueError(f"scan_backward: {len(gy)} output gradients for {len(orders)} orders")
    scan = _Scan(delta, a, b_t, x, mode, orders, backward=True)
    if checkpoints.shape != scan.checkpoint_shape:
        raise ValueError(
            f"scan_backward: checkpoints of shape {checkpoints.shape}, but this"
            f" layout starts its blocks from {scan.checkpoint_shape}"
        )
    c_t, gy = np.swapaxes(c_t, 0, 1), [np.swapaxes(g, 0, 1) for g in gy]
    grads = g_delta, g_b, g_c, g_x = [np.empty(v.shape) for v in (delta, b_t, b_t, x)]
    # step-major views, in the order the parts below are built
    grads_s = [np.swapaxes(g, 0, 1) for g in (g_x, g_delta, g_b, g_c)]
    g_a_t = np.zeros(scan.state)
    # the reverse walk below meets one order's blocks first: they write the
    # gradients, and every other order's blocks add to them
    _, last_walks = scan.blocks[-1]
    writer, _ = last_walks[0]
    for tile in scan.tiles:
        # per order, d loss / d h entering the block after this one
        carry = {}
        for j in range(len(scan.blocks) - 1, -1, -1):
            tokens, walks = scan.blocks[j]
            n, r = scan.factors(tokens, tile)
            a_bar, g_da = scan.a_bar[:n, :r], scan.g_da[:n, :r]
            c_b = c_t[tokens, tile]
            h0 = None if scan.shared else checkpoints[j, tile]
            # the writer's blocks of consecutive tokens (the shared block's
            # one) write each part straight into its gradient's slice; the
            # others build it, then write or add it there
            direct = walks[0][0] == writer and isinstance(tokens, slice)
            dst = [g[tokens, tile] if direct else None for g in grads_s]
            for i, (v, positions) in enumerate(walks):
                steps = _steps(positions, n)
                hs, gh = scan.hs[i, : n + 1, :r], scan.gh[i, :n, :r]
                scan.recur(steps, h0, hs)
                seg_gy = gy[v][tokens, tile]
                # d loss / d h_k: its own readout plus what flows back from
                # step k+1, a_bar[k+1] * gh[k+1]; times the state entering
                # step k+1, that product is step k+1's d loss / d (delta A).
                # Walk 0 writes it into g_da, the others add theirs through
                # carry, which is free until the walk's first step
                np.multiply(seg_gy[:, :, None, :], c_b[:, :, :, None], out=gh)
                if v not in carry:
                    carry[v] = np.zeros((r,) + scan.state)
                gh[steps[-1]] += carry[v]
                for k in range(n - 2, -1, -1):
                    s0, s1 = steps[k], steps[k + 1]
                    term = g_da[s1] if i == 0 else carry[v]
                    np.multiply(a_bar[s1], gh[s1], out=term)
                    gh[s0] += term
                    term *= hs[s0 + 1]
                    if i:
                        g_da[s1] += term
                np.multiply(a_bar[steps[0]], gh[steps[0]], out=carry[v])
                # the first step enters from h0; several walks share a block
                # only from the zero state
                if h0 is not None:
                    np.multiply(carry[v], h0, out=g_da[steps[0]])
                elif i == 0:
                    g_da[steps[0]] = 0.0
                if i == 0:
                    g_c_b = _matvec(hs[1:], seg_gy, dst[3])
                else:
                    g_c_b += _matvec(hs[1:], seg_gy)
            # the walks' gradients wrt the states, summed into walk 0's
            gh = scan.gh[0, :n, :r]
            for i in range(1, len(walks)):
                gh += scan.gh[i, :n, :r]
            if scan.zoh:
                # a_bar and bx are not read again for this block; they take
                # the factor's derivative and its intermediate
                da, bx = scan.da[:n, :r], scan.bx[:n, :r]
                grad = exprel_grad(da, out=a_bar, scratch=bx, exp_x=a_bar)
                grad *= gh
                grad *= scan.dxb[:n, :r]
                g_da += grad
                gh *= scan.factor[:n, :r]
            # gh is now d loss / d (delta x B) elementwise
            s = np.matmul(scan.seg_b[:, :, None, :], gh)[:, :, 0, :]
            g_delta_b = np.multiply(scan.seg_x, s, out=dst[1])
            g_delta_b += np.einsum("lbnd,nd->lbd", g_da, scan.a_t)
            parts = (
                np.multiply(scan.seg_delta, s, out=dst[0]),
                g_delta_b,
                _matvec(gh, scan.dx[:n, :r], dst[2]),
                g_c_b,
            )
            if not direct:
                for g, part in zip(grads_s, parts):
                    if walks[0][0] == writer:
                        g[tokens, tile] = part
                    else:
                        g[tokens, tile] += part
            g_a_t += np.einsum("lbnd,lbd->nd", g_da, scan.seg_delta)
    return g_delta, np.ascontiguousarray(g_a_t.T), g_b, g_c, g_x
