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
slab is contiguous and the broadcasts run along the long axis. Segment
arrays (delta A, exp(delta A), the input term, the zero-order-hold factor
that ``exprel`` writes in place, and the states) are allocated once per
call and reused for every segment: on these sizes a fresh array costs more
in page faults than the arithmetic written into it.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import exprel, exprel_grad


class _Segments:
    """Step-major views of the inputs plus the buffers of one segment."""

    def __init__(self, delta, a, b_t, x, mode):
        self.zoh = mode == "zoh-exact"
        self.delta, self.b_t, self.x = (np.swapaxes(v, 0, 1) for v in (delta, b_t, x))
        self.dx = self.delta * self.x
        self.a_t = a.T
        steps, batch, dim = self.x.shape
        size = math.isqrt(max(steps - 1, 0)) + 1  # ceil(sqrt(steps))
        self.segments = [slice(s0, min(s0 + size, steps)) for s0 in range(0, steps, size)]
        shape = (size, batch, a.shape[1], dim)
        self.da, self.a_bar, self.bx = np.empty(shape), np.empty(shape), np.empty(shape)
        self.hs = np.empty((size + 1,) + shape[1:])
        self.factor = np.empty(shape) if self.zoh else None

    def run(self, seg, h0):
        """Factors and states [h0, h_1, ..., h_n] of the steps in ``seg``,
        starting from state ``h0`` [B, N, D]; returns n."""
        n = seg.stop - seg.start
        da, a_bar, bx, hs = self.da[:n], self.a_bar[:n], self.bx[:n], self.hs[: n + 1]
        np.multiply(self.delta[seg, :, None, :], self.a_t, out=da)
        np.exp(da, out=a_bar)
        # the input term B_bar * x, without the zero-order-hold factor
        np.multiply(self.dx[seg, :, None, :], self.b_t[seg, :, :, None], out=bx)
        if self.zoh:
            bx *= exprel(da, out=self.factor[:n])
        hs[0] = h0
        for k in range(n):
            np.multiply(a_bar[k], hs[k], out=hs[k + 1])
            hs[k + 1] += bx[k]
        return n


def scan_forward(delta, a, b_t, c_t, x, mode, keep_checkpoints):
    """Run the recurrence; returns (y [B, S, D], checkpoints).

    The checkpoints, [segments, B, N, D], are the states entering each
    segment; with ``keep_checkpoints`` false none are kept (shape [0, ...]).
    """
    segs = _Segments(delta, a, b_t, x, mode)
    c_t = np.swapaxes(c_t, 0, 1)
    state = segs.hs.shape[1:]
    checkpoints = np.empty(((len(segs.segments) if keep_checkpoints else 0),) + state)
    y = np.empty(segs.x.shape)
    h = np.zeros(state)
    for j, seg in enumerate(segs.segments):
        if keep_checkpoints:
            checkpoints[j] = h
        n = segs.run(seg, h)
        y[seg] = np.matmul(c_t[seg, :, None, :], segs.hs[1 : n + 1])[:, :, 0, :]
        h = segs.hs[n]
    return np.ascontiguousarray(np.swapaxes(y, 0, 1)), checkpoints


def scan_backward(delta, a, b_t, c_t, x, mode, checkpoints, gy):
    """Vector-Jacobian product wrt (delta, a, b_t, c_t, x), recomputing the
    states segment by segment from the forward's checkpoints."""
    segs = _Segments(delta, a, b_t, x, mode)
    c_t, gy = np.swapaxes(c_t, 0, 1), np.swapaxes(gy, 0, 1)
    g_delta, g_x = np.empty(segs.x.shape), np.empty(segs.x.shape)
    g_b, g_c = np.empty(segs.b_t.shape), np.empty(c_t.shape)
    g_a_t = np.zeros(segs.a_t.shape)
    gh_buf, work_buf = np.empty(segs.bx.shape), np.empty(segs.bx.shape)
    # d loss / d h entering the segment after this one, through its steps
    carry = np.zeros(checkpoints.shape[1:])
    for seg, h0 in zip(reversed(segs.segments), checkpoints[::-1], strict=True):
        n = segs.run(seg, h0)
        a_bar, hs, gh, work = segs.a_bar[:n], segs.hs[: n + 1], gh_buf[:n], work_buf[:n]
        # d loss / d h_k: its own readout plus what flows back from step k+1
        np.multiply(gy[seg, :, None, :], c_t[seg, :, :, None], out=gh)
        gh[-1] += carry
        for k in range(n - 2, -1, -1):
            np.multiply(a_bar[k + 1], gh[k + 1], out=work[k])
            gh[k] += work[k]
        np.multiply(a_bar[0], gh[0], out=carry)
        g_c[seg] = np.matmul(hs[1:], gy[seg, :, :, None])[..., 0]
        # d loss / d (delta A)
        np.multiply(gh, hs[:-1], out=work)
        work *= a_bar
        if segs.zoh:
            dxb = segs.dx[seg, :, None, :] * segs.b_t[seg, :, :, None]
            work += gh * exprel_grad(segs.da[:n]) * dxb
            gh *= segs.factor[:n]
        # gh is now d loss / d (delta x B) elementwise
        s = np.matmul(segs.b_t[seg, :, None, :], gh)[:, :, 0, :]
        g_x[seg] = segs.delta[seg] * s
        g_delta[seg] = segs.x[seg] * s + np.einsum("lbnd,nd->lbd", work, segs.a_t)
        g_b[seg] = np.matmul(gh, segs.dx[seg, :, :, None])[..., 0]
        g_a_t += np.einsum("lbnd,lbd->nd", work, segs.delta[seg])
    g_delta, g_b, g_c, g_x = (
        np.ascontiguousarray(np.swapaxes(g, 0, 1)) for g in (g_delta, g_b, g_c, g_x)
    )
    return g_delta, np.ascontiguousarray(g_a_t.T), g_b, g_c, g_x
