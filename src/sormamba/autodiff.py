"""Reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced. Every
differentiable operation stamps its output with a monotonically increasing
sequence id, so the graph doubles as an execution-ordered tape: ``backward``
walks the nodes reachable from the loss in exact reverse execution order and
feeds each node's accumulated gradient into its backward rule.

Design points:

* everything is float64, row-major; op outputs are fresh arrays
* binary ops broadcast with numpy trailing-axis rules; gradients are summed
  back over broadcast axes so a parameter used across a batch accumulates
* gradients accumulate additively across uses and across repeated
  ``backward`` calls; callers zero them explicitly between steps
* a custom fused op (e.g. the selective-scan kernel) plugs in through
  ``from_op`` with a hand-derived vector-Jacobian product
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
    "layer_norm",
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

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    # operator sugar; scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

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

    ``vjp`` receives the upstream gradient and must accumulate into the
    parents via ``accumulate``. Recording is skipped when no parent needs a
    gradient or inside ``no_grad``.
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
    """Add ``g`` (already shaped like ``t``) into ``t.grad``."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # fresh, as add's vjp hands one g to both parents; 0 + g maps -0 to +0
        t.grad = np.add(0.0, g, out=np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _acc_broadcast(t: Tensor, g: np.ndarray) -> None:
    accumulate(t, _unbroadcast(g, t.data.shape))


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
        _acc_broadcast(a, g)
        _acc_broadcast(b, g)

    return from_op(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")

    def vjp(g):
        _acc_broadcast(a, g)
        _acc_broadcast(b, -g)

    return from_op(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")

    def vjp(g):
        _acc_broadcast(a, g * b.data)
        _acc_broadcast(b, g * a.data)

    return from_op(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "div")
    inv = 1.0 / b.data

    def vjp(g):
        _acc_broadcast(a, g * inv)
        _acc_broadcast(b, -g * a.data * inv * inv)

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
    phi_cdf = 0.5 * (1.0 + _sp.erf(a.data * _INV_SQRT2))

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
        accumulate(a, g * (phi_cdf + a.data * pdf))

    return from_op(a.data * phi_cdf, (a,), vjp)


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


def exprel_grad(x: np.ndarray) -> np.ndarray:
    """d/dx (e^x - 1) / x elementwise, with the series limit at small |x|."""
    # 0/0 and c/0 only where |x| is small, replaced below
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.exp(x, out=np.empty_like(x))
        d *= x - 1.0
        d += 1.0
        d /= x * x
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

    def vjp(g):
        _acc_broadcast(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        _acc_broadcast(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return from_op(np.matmul(a.data, b.data), (a, b), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is None:
            accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

    return from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    elif isinstance(axis, int):
        count = a.data.shape[axis]
    else:
        count = int(np.prod([a.data.shape[ax] for ax in axis]))

    def vjp(g):
        gg = g / count
        if axis is None:
            accumulate(a, np.broadcast_to(gg, a.data.shape).copy())
            return
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

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
    val = np.zeros_like(a.data)
    if offset < n:
        src = [slice(None)] * a.data.ndim
        dst = [slice(None)] * a.data.ndim
        src[axis] = slice(0, n - offset)
        dst[axis] = slice(offset, n)
        val[tuple(dst)] = a.data[tuple(src)]

    def vjp(g):
        gg = np.zeros_like(g)
        if offset < n:
            src = [slice(None)] * g.ndim
            dst = [slice(None)] * g.ndim
            src[axis] = slice(offset, n)
            dst[axis] = slice(0, n - offset)
            gg[tuple(dst)] = g[tuple(src)]
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


def _axis_index(idx: np.ndarray, axis: int, ndim: int):
    sel: list = [slice(None)] * ndim
    sel[axis] = idx
    return tuple(sel)


# ---------------------------------------------------------------------------
# layer norm (composed, so the gradient falls out of the graph)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    denom = sqrt(add(var, Tensor(eps)))
    return add(mul(div(centered, denom), gain), bias)


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
    ``.grad``; repeated calls keep adding.
    """
    if loss.data.size != 1:
        raise ValueError(
            f"backward: loss must be scalar, got shape {loss.data.shape}"
        )
    if not loss.requires_grad:
        raise ValueError("backward: loss does not depend on any tracked tensor")
    tape = _ordered_tape(loss)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += np.ones_like(loss.data)
    for node in reversed(tape):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


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
            for sign in (+1.0, -1.0):
                probe = base.copy()
                probe[i] += sign * h
                val = f(Tensor(probe.reshape(x.data.shape))).data
                if not np.all(np.isfinite(val)):
                    raise FloatingPointError(
                        f"check_gradients: f is not finite at coordinate {i} "
                        f"(offset {sign * h:+g})"
                    )
                if sign > 0:
                    fp = float(val.reshape(()) if val.ndim else val)
                else:
                    fm = float(val.reshape(()) if val.ndim else val)
            numeric = (fp - fm) / (2.0 * h)
            err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
