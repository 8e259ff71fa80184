"""Reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced. Every
differentiable operation stamps its output with a monotonically increasing
sequence id, so the graph doubles as an execution-ordered tape: ``backward``
walks the nodes reachable from the loss in exact reverse execution order and
feeds each node's accumulated gradient into its backward rule.

Design points:

* everything is float64, row-major; op outputs are fresh arrays, except
  that ``reshape`` and ``unstack`` give views of their input's value
* binary ops broadcast with numpy trailing-axis rules. ``Tensor`` has only
  the ``+`` and ``-`` operators; every other op is called by name
* every gradient enters a node through ``accumulate`` (``backward``'s seed
  too), which sums it over the node's broadcast axes and rejects one that
  does not reduce to the node's shape; only ``unstack`` writes into slots of
  its parent's gradient. A vjp builds a parent's gradient only when that
  parent requires one
* a product with a 2-D weight, ``[..., K] @ [K, N]``, is one GEMM over the
  flattened leading axes, and so are both of its gradients: the weight's
  is one ``[K, rows] @ [rows, N]`` product, with no per-sample stack to sum
* leaf gradients accumulate additively across uses and across repeated
  ``backward`` calls; callers zero them explicitly between steps. An
  interior node's gradient is dropped once it has been passed on
* a custom fused op (e.g. the selective-scan kernel) plugs in through
  ``from_op`` with a hand-derived vector-Jacobian product. LayerNorm, the
  skip/gate/out-projection after a scan and the GELU MLP are such ops: each
  keeps only its output, its parents and what its backward reads, recomputes
  the cheap elementwise intermediates there, and gives the composed graph's
  value and gradients bit for bit
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

__all__ = [
    "Tensor",
    "no_grad",
    "backward",
    "from_op",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "exp",
    "log",
    "sqrt",
    "absolute",
    "softplus",
    "sigmoid",
    "silu",
    "gelu",
    "expm1_over_x",
    "matmul",
    "tsum",
    "tmean",
    "reshape",
    "swapaxes",
    "shift_axis",
    "take_axis",
    "unstack",
    "layer_norm",
    "skip_gate_proj",
    "gelu_mlp",
    "check_gradients",
]

_SEQ = itertools.count()

_state = threading.local()


def _recording() -> bool:
    return getattr(_state, "recording", True)


class no_grad:
    """Context manager that disables graph recording (evaluation paths)."""

    def __enter__(self):
        self._prev = _recording()
        _state.recording = False
        return self

    def __exit__(self, *exc):
        _state.recording = self._prev
        return False


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode.

    ``data`` is the value, ``grad`` the accumulated gradient (None until
    backward first touches the node). Leaf tensors are created directly;
    op outputs carry parent references and a backward rule.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], None] | None = None
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    # the only operators; a scalar is wrapped as a constant tensor
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __repr__(self) -> str:
        grad = "grad" if self.requires_grad else "const"
        return f"Tensor(shape={self.data.shape}, {grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def from_op(
    value: np.ndarray,
    parents: Sequence[Tensor],
    vjp: Callable[[np.ndarray], None],
) -> Tensor:
    """Wrap ``value`` as the output of a differentiable op.

    ``vjp`` receives the upstream gradient and hands each parent's share to
    ``accumulate`` (only ``unstack`` writes into its parent's gradient).
    Recording is skipped when no parent needs a gradient or inside ``no_grad``.
    """
    out = Tensor(value)
    if needs_grad(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def needs_grad(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` is recorded, so its backward will run."""
    return _recording() and any(p.requires_grad for p in parents)


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, summed over the axes ``t`` was broadcast
    along; a ``g`` that does not reduce to ``t``'s shape raises."""
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    if g.shape != t.data.shape:
        raise ValueError(f"accumulate: gradient {g.shape} does not reduce to {t.data.shape}")
    if t.grad is None:
        # fresh, as add's vjp hands one g to both parents and sum/mean hand a
        # read-only broadcast view; 0 + g maps -0 to +0
        t.grad = np.add(0.0, g, out=np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (dim, g_dim) in enumerate(zip(shape, g.shape)):
        if dim == 1 and g_dim != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ValueError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")

    def vjp(g):
        accumulate(a, g)
        accumulate(b, g)

    return from_op(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")

    def vjp(g):
        accumulate(a, g)
        if b.requires_grad:
            accumulate(b, -g)

    return from_op(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")

    def vjp(g):
        if a.requires_grad:
            accumulate(a, g * b.data)
        if b.requires_grad:
            accumulate(b, g * a.data)

    return from_op(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "div")
    inv = 1.0 / b.data

    def vjp(g):
        if a.requires_grad:
            accumulate(a, g * inv)
        if b.requires_grad:
            accumulate(b, -g * a.data * inv * inv)

    return from_op(a.data * inv, (a, b), vjp)


# ---------------------------------------------------------------------------
# elementwise unary ops


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        accumulate(a, -g)

    return from_op(-a.data, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out_val = np.exp(a.data)

    def vjp(g):
        accumulate(a, g * out_val)

    return from_op(out_val, (a,), vjp)


def log(a: Tensor) -> Tensor:
    def vjp(g):
        accumulate(a, g / a.data)

    return from_op(np.log(a.data), (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    out_val = np.sqrt(a.data)

    def vjp(g):
        accumulate(a, g * (0.5 / out_val))

    return from_op(out_val, (a,), vjp)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def vjp(g):
        accumulate(a, g * sign)

    return from_op(np.abs(a.data), (a,), vjp)


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    e = np.abs(x, out=np.empty_like(x))  # an array even when x is 0-d
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _softplus_val(x: np.ndarray) -> np.ndarray:
    # max(x, 0) + log1p(exp(-|x|)) never overflows
    out = _exp_neg_abs(x)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def _sigmoid_val(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) at x >= 0, e^x / (1 + e^x) below; e = exp(-|x|) never overflows
    e = _exp_neg_abs(x)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def softplus(a: Tensor) -> Tensor:
    """softplus(x) = log(1 + e^x), evaluated overflow-safely."""
    # the gradient's sigmoid is built only when the backward will run
    sig = _sigmoid_val(a.data) if needs_grad((a,)) else None

    def vjp(g):
        accumulate(a, g * sig)

    return from_op(_softplus_val(a.data), (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    out_val = _sigmoid_val(a.data)

    def vjp(g):
        accumulate(a, g * out_val * (1.0 - out_val))

    return from_op(out_val, (a,), vjp)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), the gate nonlinearity."""
    sig = _sigmoid_val(a.data)

    def vjp(g):
        accumulate(a, g * sig * (1.0 + a.data * (1.0 - sig)))

    return from_op(a.data * sig, (a,), vjp)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error GELU: x * Phi(x)."""
    phi_cdf = _phi(a.data)

    def vjp(g):
        accumulate(a, _gelu_grad(g, a.data, phi_cdf))

    return from_op(a.data * phi_cdf, (a,), vjp)


def _phi(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF."""
    return 0.5 * (1.0 + _sp.erf(x * _INV_SQRT2))


def _gelu_grad(g: np.ndarray, x: np.ndarray, phi_cdf: np.ndarray) -> np.ndarray:
    """g times d/dx x * Phi(x), given Phi(x)."""
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (phi_cdf + x * pdf)


def _series_near_zero(x: np.ndarray, out: np.ndarray, tol: float, series) -> None:
    """Write ``series(x)`` into ``out`` where |x| < tol. The mask is built
    only when x's range reaches into (-tol, tol); fmin/fmax skip NaN."""
    if x.size and np.fmin.reduce(x, axis=None) < tol and np.fmax.reduce(x, axis=None) > -tol:
        small = np.abs(x) < tol
        out[small] = series(x[small])


def exprel(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(e^x - 1) / x elementwise, with the series limit at small |x|.

    With ``out`` (shaped like ``x``) the result is written there and
    ``out`` is returned, so a caller can reuse one buffer across calls.
    """
    if out is None:  # a 0-d input would otherwise come back as a scalar
        out = np.empty_like(x)
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, replaced below
        np.expm1(x, out=out)
        out /= x
    _series_near_zero(x, out, 1e-8, lambda xs: 1.0 + 0.5 * xs + xs * xs / 6.0)
    return out


def exprel_grad(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """d/dx (e^x - 1) / x elementwise, with the series limit at small |x|.

    ``out`` and ``scratch`` (shaped like ``x``) take the result and the
    intermediate, so a caller can reuse buffers across calls.
    """
    d = np.empty_like(x) if out is None else out
    t = np.empty_like(x) if scratch is None else scratch
    # 0/0 and c/0 only where |x| is small, replaced below
    with np.errstate(invalid="ignore", divide="ignore"):
        np.exp(x, out=d)
        d *= np.subtract(x, 1.0, out=t)
        d += 1.0
        d /= np.multiply(x, x, out=t)
    _series_near_zero(x, d, 1e-4, lambda xs: 0.5 + xs / 3.0 + xs * xs / 8.0)
    return d


def expm1_over_x(a: Tensor) -> Tensor:
    """(e^x - 1)/x elementwise, finite and smooth through x = 0.

    This is the zero-order-hold input factor: exp(dA) applied through one
    step integrates to this times dB.
    """

    def vjp(g):
        accumulate(a, g * exprel_grad(a.data))

    return from_op(exprel(a.data), (a,), vjp)


# ---------------------------------------------------------------------------
# matmul, reductions, shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul: operands must have ndim >= 2, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions disagree, {a.data.shape} @ {b.data.shape}"
        )

    if b.ndim == 2:

        def vjp(g):
            ga, gb = _flat_grads(g, a.data, b.data, a.requires_grad, b.requires_grad)
            accumulate(a, ga)
            accumulate(b, gb)

        return from_op(_flat(a.data, b.data), (a, b), vjp)

    def vjp(g):
        if a.requires_grad:
            accumulate(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return from_op(np.matmul(a.data, b.data), (a, b), vjp)


def _flat(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``[..., K] @ [K, N]`` as one GEMM over ``a``'s flattened leading axes,
    written through a 2-D view of a fresh ``[..., N]`` array, so the value
    owns its memory.

    Each output row is computed by the same GEMM kernel as in numpy's stacked
    loop, so the value is bit-identical at the model's shapes (numpy hands a
    one-column or one-row-per-sample product to gemv instead, which can
    round the last place differently).
    """
    k, n = w.shape
    out = np.empty((*a.shape[:-1], n))
    np.matmul(a.reshape(-1, k), w, out=out.reshape(-1, n))
    return out


def _flat_grads(g: np.ndarray, a: np.ndarray, w: np.ndarray, need_a: bool, need_w: bool):
    """The gradients wrt ``a`` and ``w`` of ``_flat(a, w)`` for upstream
    ``g``, each None unless asked for. The weight's is one
    ``[K, rows] @ [rows, N]`` GEMM; ``w``'s shape is read here, so a
    closure that calls this holds ``a`` and ``w`` only."""
    k, n = w.shape
    g2 = g.reshape(-1, n)
    ga = np.matmul(g2, w.T).reshape(a.shape) if need_a else None
    gw = np.matmul(a.reshape(-1, k).T, g2) if need_w else None
    return ga, gw


def _sum_vjp(a: Tensor, axis, keepdims: bool, count: int | None = None):
    """The vjp of summing ``a`` over ``axis``, or with ``count`` of taking
    the mean: g (divided by the count) spread back over the summed axis."""

    def vjp(g):
        if count is not None:
            g = g / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate(a, np.broadcast_to(g, a.data.shape))

    return vjp


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), _sum_vjp(a, axis, keepdims))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    vjp = _sum_vjp(a, axis, keepdims, count)
    return from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape

    def vjp(g):
        accumulate(a, g.reshape(old))

    return from_op(a.data.reshape(shape), (a,), vjp)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def vjp(g):
        accumulate(a, np.swapaxes(g, ax1, ax2))

    return from_op(np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2)), (a,), vjp)


def shift_axis(a: Tensor, offset: int, axis: int) -> Tensor:
    """Shift values toward higher indices by ``offset``, zero-filling.

    out[..., t, ...] = a[..., t - offset, ...]; the first ``offset`` slots
    become zero. Used to build causal convolutions from shifted slices.
    """
    if offset < 0:
        raise ValueError(f"shift_axis: offset must be >= 0, got {offset}")
    n = a.data.shape[axis]
    # head: the slots that move; tail: where they land. Both are empty once
    # offset >= n, which leaves the output and the gradient all zero
    head = _axis_index(slice(0, max(n - offset, 0)), axis, a.ndim)
    tail = _axis_index(slice(min(offset, n), n), axis, a.ndim)
    val = np.zeros_like(a.data)
    val[tail] = a.data[head]

    def vjp(g):
        gg = np.zeros_like(g)
        gg[head] = g[tail]
        accumulate(a, gg)

    return from_op(val, (a,), vjp)


def take_axis(a: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Gather along one axis by indices naming distinct positions: a
    permutation reorders the axis, a subset selects from it.

    Since no position is taken twice, the gradient is a plain scatter.
    """
    idx = np.asarray(indices, dtype=np.intp)
    n = a.data.shape[axis]
    if len(np.unique(idx % n)) != len(idx):
        raise ValueError(f"take_axis: indices repeat a position of axis {axis}: {idx}")
    sel = _axis_index(idx, axis, a.data.ndim)

    def vjp(g):
        gg = np.zeros_like(a.data)
        gg[sel] = g
        accumulate(a, gg)

    return from_op(np.take(a.data, idx, axis=axis), (a,), vjp)


def unstack(a: Tensor) -> tuple[Tensor, ...]:
    """One Tensor per entry along the first axis, each a view of ``a``'s
    value (nothing is copied); their gradients go to ``a``'s slots."""

    def part(i: int) -> Tensor:
        def vjp(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[i] += g

        return from_op(a.data[i], (a,), vjp)

    return tuple(part(i) for i in range(a.shape[0]))


def _axis_index(idx, axis: int, ndim: int):
    sel: list = [slice(None)] * ndim
    sel[axis] = idx
    return tuple(sel)


# ---------------------------------------------------------------------------
# fused per-token ops: layer norm, the gated skip-and-project after the scan,
# and the GELU MLP
#
# Each is one node whose closure keeps its parents and at most what is named
# below. Its forward runs the ops of the composed graph (the primitives
# above) in their order, so the value is bit-identical. Its vjp recomputes
# the cheap elementwise intermediates and then runs the composed graph's vjp
# arithmetic in reverse tape order, building a gradient only for what
# requires one, so every gradient is bit-identical too. The composed graph
# also copies each interior node's first gradient (``0 + g``, which maps -0
# to +0); that copy is left out here. A vjp is linear in g, through products
# and sums only, and the sign of a zero operand changes neither the
# magnitude of such a result nor any nonzero result. Every value that leaves
# the op goes through ``accumulate``, which maps -0 to +0 in the same way.
# A train step's memory peaks in the backward of the last layer's post and
# scan, while the whole tape is still alive, so the vjps drop full-size
# temporaries as soon as they have been used.


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine.

    Keeps ``x - mean`` and the ``[..., 1]`` arrays ``sqrt(var + eps)`` and
    its reciprocal; the vjp recomputes the normalized value from them.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    count = x.data.shape[-1]
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    denom = np.sqrt(var + eps)
    inv = 1.0 / denom
    out = centered * inv
    out *= gain.data
    out += bias.data

    def vjp(g):
        # add(scaled, bias), then mul(xhat, gain)
        accumulate(bias, g)
        if gain.requires_grad:
            accumulate(gain, g * (centered * inv))
        if not x.requires_grad:
            return
        g_xhat = g * gain.data
        # div(centered, denom), sqrt(var + eps), the mean of centered**2
        g_c = g_xhat * inv
        g_den = np.negative(g_xhat)
        g_den *= centered
        g_den *= inv
        g_den *= inv
        g_den = _unbroadcast(g_den, denom.shape)
        g_var = g_den * (0.5 / denom)
        g_sq = np.multiply(g_var / count, centered)
        # mul(centered, centered) hands it to both operands
        g_c += g_sq
        g_c += g_sq
        # sub(x, mean), then the mean
        accumulate(x, g_c)
        g_mu = _unbroadcast(np.negative(g_c), denom.shape)
        accumulate(x, np.broadcast_to(g_mu / count, x.data.shape))

    return from_op(out, (x, gain, bias), vjp)


def skip_gate_proj(y: Tensor, u: Tensor, gate: Tensor, d_skip: Tensor, w: Tensor) -> Tensor:
    """``((y + u * d_skip) * gate) @ w``: the skip term, the gate and the
    output projection after a scan, for ``y``, ``u`` and ``gate`` of one
    shape ``[..., K]``, ``d_skip`` [K] and ``w`` [K, N].

    Keeps nothing but its output; the vjp recomputes the gated value.
    """

    def skipped():
        s = np.multiply(u.data, d_skip.data)
        return np.add(y.data, s, out=s)

    def vjp(g):
        need_sum = y.requires_grad or u.requires_grad or d_skip.requires_grad
        need_gated = need_sum or gate.requires_grad
        # matmul(gated, w)
        s = skipped()
        sg = s * gate.data
        g_sg, gw = _flat_grads(g, sg, w.data, need_gated, w.requires_grad)
        del sg
        accumulate(w, gw)
        if not need_gated:
            return
        # mul(sum, gate), add(y, skip), mul(u, d_skip)
        g_s = g_sg * gate.data if need_sum else None
        if gate.requires_grad:
            accumulate(gate, g_sg * s)
        del g_sg, s
        if not need_sum:
            return
        accumulate(y, g_s)
        if u.requires_grad:
            accumulate(u, g_s * d_skip.data)
        if d_skip.requires_grad:
            accumulate(d_skip, g_s * u.data)

    gated = skipped()
    gated *= gate.data
    return from_op(_flat(gated, w.data), (y, u, gate, d_skip, w), vjp)


def gelu_mlp(h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``gelu(h @ w1 + b1) @ w2 + b2`` with 2-D weights.

    Keeps only the pre-activation ``h @ w1 + b1``; the vjp recomputes
    Phi and the GELU from it.
    """
    pre = _flat(h.data, w1.data)
    pre += b1.data

    def vjp(g):
        need_h = h.requires_grad or w1.requires_grad
        need_pre = need_h or b1.requires_grad
        # add(., b2), then matmul(gelu(pre), w2)
        accumulate(b2, g)
        phi_cdf = _phi(pre)
        g_act, gw2 = _flat_grads(g, pre * phi_cdf, w2.data, need_pre, w2.requires_grad)
        accumulate(w2, gw2)
        if not need_pre:
            return
        # gelu(pre), add(., b1), matmul(h, w1)
        g_pre = _gelu_grad(g_act, pre, phi_cdf)
        del g_act, phi_cdf
        accumulate(b1, g_pre)
        if need_h:
            gh, gw1 = _flat_grads(g_pre, h.data, w1.data, h.requires_grad, w1.requires_grad)
            accumulate(h, gh)
            accumulate(w1, gw1)

    out = _flat(pre * _phi(pre), w2.data)
    out += b2.data
    return from_op(out, (h, w1, b1, w2, b2), vjp)


# ---------------------------------------------------------------------------
# backward and the finite-difference checker


def _ordered_tape(loss: Tensor) -> list[Tensor]:
    """Nodes reachable from ``loss`` in execution order (ascending seq)."""
    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    nodes.sort(key=lambda t: t._seq)
    return nodes


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) through every reachable node.

    The loss must be scalar (a single element). Gradients accumulate into
    the leaves' ``.grad``; repeated calls keep adding. An interior node's
    gradient is released once its backward rule has run, so each call starts
    the interior nodes from nothing and a node's gradient lives only until
    it has been passed on.
    """
    if loss.data.size != 1:
        raise ValueError(
            f"backward: loss must be scalar, got shape {loss.data.shape}"
        )
    if not loss.requires_grad:
        raise ValueError("backward: loss does not depend on any tracked tensor")
    tape = _ordered_tape(loss)
    accumulate(loss, np.ones_like(loss.data))
    for node in reversed(tape):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)
        if node._parents:
            node.grad = None


def check_gradients(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``f`` at ``x`` against central differences.

    Returns the worst relative error over coordinates,
    |analytic - numeric| / max(1, |numeric|). ``h`` must sit in
    [1e-6, 1e-3]; f must evaluate finitely at every probe point.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError(f"check_gradients: h must be in [1e-6, 1e-3], got {h}")
    seed = Tensor(np.array(x.data, dtype=np.float64, copy=True), requires_grad=True)
    out = f(seed)
    if out.data.size != 1:
        raise ValueError(
            f"check_gradients: f must return a scalar, got shape {out.data.shape}"
        )
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("check_gradients: f is not finite at x itself")
    backward(out)
    analytic = (
        seed.grad if seed.grad is not None else np.zeros_like(seed.data)
    ).reshape(-1)

    base = seed.data.reshape(-1).copy()
    worst = 0.0
    with no_grad():
        for i in range(base.size):
            vals = {}
            for sign in (+1.0, -1.0):
                probe = base.copy()
                probe[i] += sign * h
                val = f(Tensor(probe.reshape(x.data.shape))).data
                if not np.all(np.isfinite(val)):
                    raise FloatingPointError(
                        f"check_gradients: f is not finite at coordinate {i} "
                        f"(offset {sign * h:+g})"
                    )
                vals[sign] = float(val.reshape(()))
            numeric = (vals[1.0] - vals[-1.0]) / (2.0 * h)
            err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
