"""Input-dependent (selective) state-space layer.

The continuous system h' = A h + B x, y = C h + D x is discretized per step
with a step size produced from the input itself. Two discretizations are
supported:

* ``euler-b``  (default): A_bar = exp(delta * A), B_bar = delta * B
* ``zoh-exact``: A_bar = exp(delta * A),
  B_bar = (delta A)^{-1} (exp(delta A) - I) delta B, evaluated through
  the (e^u - 1)/u helper so the small-step limit B_bar -> delta B is exact

``A`` is diagonal and kept strictly negative by parameterizing its log
magnitude, so every discrete transition factor lies in (0, 1).

On the model's path the discretization never becomes part of the graph:
:func:`scan_core` is one differentiable op that takes (delta, A, B_t, C_t, x)
and builds the per-step factors inside the recurrence, keeping nothing but
its inputs for its backward, which recomputes the factors and states from
the zero state (see ``scan_kernels``). Its inputs are per token, read
off x by :func:`projections`; only the scan itself reads the order of the
steps, and ``scan_core(..., orders=(u, v))`` walks them once in each order
without reordering any input. :func:`discretize` gives the same factors as
graph tensors for inspection; :func:`naive_scan` is the independent per-step
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scan_kernels
from .autodiff import (
    Tensor,
    accumulate,
    expm1_over_x,
    exp,
    from_op,
    matmul,
    mul,
    neg,
    reshape,
    softplus_proj,
    unstack,
)

DISCRETIZATIONS = ("euler-b", "zoh-exact")
# initial step sizes are drawn log-uniformly from [DT_MIN, DT_MAX]
DT_MIN = 1e-3
DT_MAX = 1e-1


@dataclass
class SSMParams:
    """Parameters of one selective state-space layer.

    Projections read the step size, input matrix B_t and readout C_t off the
    incoming sequence; ``a_log`` stores log(-A) for the diagonal state
    matrix and ``d_skip`` the direct feedthrough.
    """

    a_log: Tensor  # [dim, state]
    d_skip: Tensor  # [dim]
    w_dt_down: Tensor  # [dim, dt_rank]
    w_dt_up: Tensor  # [dt_rank, dim]
    b_dt: Tensor  # [dim]
    w_b: Tensor  # [dim, state]
    w_c: Tensor  # [dim, state]
    mode: str = "euler-b"

    def __post_init__(self):
        _check_mode(self.mode)

    @property
    def dim(self) -> int:
        return self.a_log.shape[0]

    @property
    def state(self) -> int:
        return self.a_log.shape[1]


def uniform_weight(n_in: int, n_out: int, rng: np.random.Generator) -> Tensor:
    """A trainable [n_in, n_out] weight drawn uniformly from +-1/sqrt(n_in)."""
    bound = 1.0 / math.sqrt(n_in)
    return Tensor(rng.uniform(-bound, bound, size=(n_in, n_out)), requires_grad=True)


def init_ssm_params(
    dim: int,
    state: int,
    dt_rank: int,
    rng: np.random.Generator,
    mode: str = "euler-b",
) -> SSMParams:
    """Standard initialization: A_n = -(n+1), softplus bias placing the
    initial step sizes log-uniformly in [DT_MIN, DT_MAX], and small
    fan-in-scaled projection weights."""
    a = np.tile(np.arange(1, state + 1, dtype=np.float64), (dim, 1))
    a_log = Tensor(np.log(a), requires_grad=True)
    d_skip = Tensor(np.ones(dim), requires_grad=True)

    w_dt_down = Tensor(
        rng.uniform(-1, 1, size=(dim, dt_rank)) / math.sqrt(dim), requires_grad=True
    )
    # scale the rank->dim map so delta starts near its bias
    w_dt_up = Tensor(
        rng.uniform(-1, 1, size=(dt_rank, dim)) * (dt_rank**-0.5) * 1e-2,
        requires_grad=True,
    )
    dt = np.exp(
        rng.uniform(size=dim) * (math.log(DT_MAX) - math.log(DT_MIN))
        + math.log(DT_MIN)
    )
    # inverse softplus of the target step sizes
    b_dt = Tensor(dt + np.log(-np.expm1(-dt)), requires_grad=True)
    return SSMParams(
        a_log=a_log,
        d_skip=d_skip,
        w_dt_down=w_dt_down,
        w_dt_up=w_dt_up,
        b_dt=b_dt,
        w_b=uniform_weight(dim, state, rng),
        w_c=uniform_weight(dim, state, rng),
        mode=mode,
    )


def discretize(delta: Tensor, a: Tensor, b_t: Tensor, mode: str) -> tuple[Tensor, Tensor]:
    """Turn continuous (A, B) into per-step (A_bar, B_bar).

    delta: [batch, steps, dim] positive step sizes
    a:     [dim, state] strictly negative diagonal entries
    b_t:   [batch, steps, state] input matrix read off the sequence

    Returns A_bar, B_bar with shape [batch, steps, dim, state].
    """
    _check_mode(mode)
    d4 = reshape(delta, delta.shape + (1,))  # [B, S, dim, 1]
    da = mul(d4, a)  # [B, S, dim, state]
    a_bar = exp(da)
    b4 = reshape(b_t, b_t.shape[:2] + (1,) + b_t.shape[2:])  # [B, S, 1, state]
    db = mul(d4, b4)
    if mode == "euler-b":
        return a_bar, db
    return a_bar, mul(expm1_over_x(da), db)


def _check_mode(mode: str) -> None:
    if mode not in DISCRETIZATIONS:
        raise ValueError(
            f"unknown discretization {mode!r}, expected one of {DISCRETIZATIONS}"
        )


def projections(x: Tensor, params: SSMParams) -> tuple[Tensor, Tensor, Tensor]:
    """delta [B,S,dim], b_t [B,S,state], c_t [B,S,state] from the input,
    token by token.

    delta is softplus(x @ w_dt_down @ w_dt_up + b_dt): the rank-r ``low``
    is a plain ``matmul``, and the rest one fused op
    (``autodiff.softplus_proj``) that keeps nothing but delta and
    recomputes its rank-r GEMM, bias add and sigmoid in the backward.
    """
    low = matmul(x, params.w_dt_down)
    delta = softplus_proj(low, params.w_dt_up, params.b_dt)
    b_t = matmul(x, params.w_b)
    c_t = matmul(x, params.w_c)
    return delta, b_t, c_t


def scan_core(
    delta: Tensor,
    a: Tensor,
    b_t: Tensor,
    c_t: Tensor,
    x: Tensor,
    mode: str,
    orders: tuple[np.ndarray | None, ...] = (None,),
) -> tuple[Tensor, ...]:
    """Fused discretize-and-scan as one differentiable op, run once per order.

    delta [B, S, dim], a [dim, state], b_t and c_t [B, S, state],
    x [B, S, dim]; returns one y [B, S, dim] per entry of ``orders``, without
    the skip term. The backward recomputes the factors and states from the
    zero state and returns gradients for all five inputs.

    Each order, a permutation of the S steps (None: the steps in turn),
    scans them in that order: its y equals gathering every input with the
    order, scanning, and putting y back with ``argsort(order)``, without the
    gathers. The outputs are views of one [V, B, S, dim] array, and the
    orders share each token's discretized factors (see ``scan_kernels``).
    """
    _check_mode(mode)
    steps = x.shape[1]
    orders = tuple(None if o is None else np.asarray(o, dtype=np.intp) for o in orders)
    if not orders:
        raise ValueError("scan_core: no order to scan in")
    for order in orders:
        if order is not None and not np.array_equal(np.sort(order), np.arange(steps)):
            raise ValueError(f"scan_core: order is not a permutation of {steps} steps")
    parents = (delta, a, b_t, c_t, x)
    y = scan_kernels.scan_forward(*(p.data for p in parents), mode, orders)
    _raise_on_nonfinite(y, "scan output", orders)

    def vjp(g):
        grads = scan_kernels.scan_backward(*(p.data for p in parents), mode, g, orders)
        for p, gp in zip(parents, grads):
            accumulate(p, gp)

    return unstack(from_op(y, parents, vjp))


def _raise_on_nonfinite(ys: np.ndarray, what: str, orders) -> None:
    """Name the step, in scan order, where one of ``ys`` [V, B, S, ...] (the
    output of each of ``orders``) is first non-finite, and with several
    orders the view."""
    if np.all(np.isfinite(ys)):
        return
    for view, (arr, order) in enumerate(zip(ys, orders, strict=True)):
        if order is not None:
            arr = arr[:, order]  # steps in the order they were scanned
        bad = ~np.isfinite(arr).reshape(arr.shape[0], arr.shape[1], -1).all(axis=(0, 2))
        if bad.any():
            step = int(np.argmax(bad))
            where = f" in view {view}" if len(orders) > 1 else ""
            raise FloatingPointError(f"{what}{where} became non-finite at step {step}")


def selective_scan(x: Tensor, params: SSMParams) -> Tensor:
    """Run the selective recurrence over ``x`` [batch, steps, dim].

    Step size, B_t and C_t are projected from ``x`` itself; the diagonal
    state matrix is -exp(a_log); output adds the direct feedthrough
    d_skip * x. Differentiable end to end.
    """
    if x.ndim != 3 or x.shape[2] != params.dim:
        raise ValueError(
            f"selective_scan: expected [batch, steps, {params.dim}], got {x.shape}"
        )
    delta, b_t, c_t = projections(x, params)
    a = neg(exp(params.a_log))
    (y,) = scan_core(delta, a, b_t, c_t, x, params.mode)
    return y + mul(x, params.d_skip)


def naive_scan(x, params: SSMParams) -> np.ndarray:
    """Reference implementation: one explicit numpy loop per step.

    Same mathematical contract as :func:`selective_scan` (the fused path is
    required to agree to near machine precision) but written without the
    kernels, without batched discretization, and without the graph. Accepts
    a Tensor or an ndarray; returns a plain ndarray.
    """
    xv = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if xv.ndim != 3 or xv.shape[2] != params.dim:
        raise ValueError(
            f"naive_scan: expected [batch, steps, {params.dim}], got {xv.shape}"
        )
    batch, steps, dim = xv.shape
    state = params.state
    a = -np.exp(params.a_log.data)
    w_down, w_up, b_dt = params.w_dt_down.data, params.w_dt_up.data, params.b_dt.data
    w_b, w_c, d_skip = params.w_b.data, params.w_c.data, params.d_skip.data

    y = np.empty_like(xv)
    for b in range(batch):
        h = np.zeros((dim, state))
        for k in range(steps):
            u = xv[b, k]  # [dim]
            pre = (u @ w_down) @ w_up + b_dt
            delta = np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre)))
            b_t = u @ w_b  # [state]
            c_t = u @ w_c  # [state]
            da = delta[:, None] * a
            a_bar = np.exp(da)
            if params.mode == "zoh-exact":
                factor = np.where(
                    np.abs(da) < 1e-8,
                    1.0 + 0.5 * da + da * da / 6.0,
                    np.expm1(da) / np.where(np.abs(da) < 1e-8, 1.0, da),
                )
                b_bar = factor * (delta[:, None] * b_t[None, :])
            else:
                b_bar = delta[:, None] * b_t[None, :]
            h = a_bar * h + b_bar * u[:, None]
            if not np.all(np.isfinite(h)):
                raise FloatingPointError(f"scan state became non-finite at step {k}")
            y[b, k] = h @ c_t + d_skip * u
    return y
