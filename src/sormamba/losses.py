"""Training objectives: forecasting, order consistency, and pretexts.

The combined objective is ``forecast + weight * sum(per-layer consistency)``
where each consistency term measures how far the two view outputs of a layer
drifted apart. The pretext objectives are channel-correlation matching
(match the Pearson matrix of channel embeddings to that of the raw series),
masked timestep modeling, and plain reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    absolute,
    accumulate,
    div,
    from_op,
    matmul,
    mul,
    reshape,
    sqrt,
    sub,
    swapaxes,
    tmean,
    tsum,
)

PEARSON_EPS = 1e-8
COSINE_EPS = 1e-12
REG_METRICS = ("l2", "l1", "cosine")


# ---- point metrics -------------------------------------------------------


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared difference, ``target`` (a Tensor, or data) broadcast
    against ``pred``, as one op that keeps only d = pred - target for its
    backward. Value and gradients are those of ``tmean(mul(d, d))`` over
    ``sub(pred, target)``, bit for bit."""
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    try:
        d = pred.data - t
    except ValueError:
        raise ValueError(f"mse: shapes {pred.shape} and {t.shape} do not broadcast") from None
    # resolved here, so that the vjp holds d and no data target
    other = target if isinstance(target, Tensor) else None

    def vjp(g):
        # tmean hands every element 0 + g / n (-0 to +0), and mul(d, d)
        # hands d its product p with d twice, as (0 + p) + p: that is
        # q + q for q = 0 + p
        g_d = np.multiply(d, 0.0 + g / d.size)
        g_d += 0.0
        g_d += g_d
        accumulate(pred, g_d)
        if other is not None and other.requires_grad:
            accumulate(other, np.negative(g_d, out=g_d))

    parents = (pred,) if other is None else (pred, other)
    return from_op(np.mean(d * d), parents, vjp)


def mse_np(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((np.asarray(pred) - np.asarray(target)) ** 2))


# ---- order-consistency distance -----------------------------------------


def reg_distance(z1: Tensor, z2: Tensor, metric: str = "l2") -> Tensor:
    """Distance between the two view outputs of one layer.

    ``l2`` is the mean squared difference, ``l1`` the mean absolute
    difference, ``cosine`` one minus the mean per-token cosine similarity
    over the feature axis (tokens with vanishing norm contribute similarity
    zero). Opposite nonzero tokens give a cosine distance of 2.
    """
    if metric == "l2":
        return mse(z1, z2)
    if metric == "l1":
        return tmean(absolute(sub(z1, z2)))
    if metric == "cosine":
        dot = tsum(mul(z1, z2), axis=-1)
        n1 = sqrt(tsum(mul(z1, z1), axis=-1) + Tensor(COSINE_EPS))
        n2 = sqrt(tsum(mul(z2, z2), axis=-1) + Tensor(COSINE_EPS))
        sim = div(dot, mul(n1, n2))
        return tmean(Tensor(1.0) - sim)
    raise ValueError(f"metric must be one of {REG_METRICS}, got {metric!r}")


@dataclass
class LossReport:
    """The combined objective and its parts, still attached to the graph."""

    total: Tensor
    forecast: Tensor
    consistency: list[Tensor]

    def consistency_values(self) -> list[float]:
        return [float(t.data) for t in self.consistency]

    def scalars(self) -> dict:
        return {
            "total": float(self.total.data),
            "forecast": float(self.forecast.data),
            "consistency": self.consistency_values(),
        }


def total_loss(
    pred: Tensor,
    target,
    pairs: list[tuple[Tensor, Tensor]],
    reg_weight: float,
    metric: str = "l2",
) -> LossReport:
    """forecast + weight * (r_0 + r_1 + ...), summed left to right.

    With weight zero the returned total IS the forecast term, so switching
    the penalty off cannot perturb the optimization by even one rounding.
    """
    fcst = mse(pred, target)
    regs = [reg_distance(z1, z2, metric) for z1, z2 in pairs]
    if reg_weight == 0.0 or not regs:
        return LossReport(total=fcst, forecast=fcst, consistency=regs)
    acc = regs[0]
    for r in regs[1:]:
        acc = acc + r
    return LossReport(total=fcst + mul(Tensor(reg_weight), acc), forecast=fcst, consistency=regs)


# ---- correlation matching -------------------------------------------------


def pearson_matrix_np(x: np.ndarray) -> np.ndarray:
    """Pearson correlation of the rows of a [channels, samples] array.

    Degenerate (constant) rows get near-zero correlations through the eps
    in the denominator rather than NaNs; the diagonal is forced to one and
    off-diagonal values are clipped to [-1, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected [channels, samples], got shape {x.shape}")
    xc = x - x.mean(axis=1, keepdims=True)
    cov = (xc @ xc.T) / x.shape[1]
    std = np.sqrt(np.mean(xc * xc, axis=1))
    denom = np.outer(std + PEARSON_EPS, std + PEARSON_EPS)
    r = np.clip(cov / denom, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def pearson_matrix(z: Tensor) -> Tensor:
    """Differentiable Pearson matrix over the last axis: [..., C, K] -> [..., C, C].

    Same eps convention as the numpy variant; the diagonal is pinned to one
    with a mask so no gradient flows through the trivial self-correlations.
    """
    if z.ndim < 2:
        raise ValueError(f"expected at least 2 dims, got shape {z.shape}")
    k = z.shape[-1]
    c = z.shape[-2]
    zc = sub(z, tmean(z, axis=-1, keepdims=True))
    cov = mul(matmul(zc, swapaxes(zc, -1, -2)), Tensor(1.0 / k))
    # tiny constant inside the root keeps the gradient finite for
    # zero-variance rows; the value shift is far below any tolerance used
    std = sqrt(tmean(mul(zc, zc), axis=-1) + Tensor(1e-18))  # [..., C]
    lead = std.shape[:-1]
    col = reshape(std, lead + (c, 1)) + Tensor(PEARSON_EPS)
    row = reshape(std, lead + (1, c)) + Tensor(PEARSON_EPS)
    r = div(cov, mul(col, row))
    eye = np.eye(c)
    return mul(r, Tensor(1.0 - eye)) + Tensor(eye)


def ccm_loss(z_latent: Tensor, r_target: np.ndarray) -> Tensor:
    """Mean squared gap between embedding correlations and the target matrix.

    ``z_latent`` is [batch, channels, features]; its per-sample Pearson
    matrix (over the feature axis) is compared to ``r_target`` [C, C].
    """
    r_z = pearson_matrix(z_latent)
    tgt = np.asarray(r_target, dtype=np.float64)
    if tgt.shape != r_z.shape[-2:]:
        raise ValueError(f"target shape {tgt.shape} does not match {r_z.shape[-2:]}")
    return mse(r_z, tgt)  # sub broadcasts the [C, C] target over the batch


def global_corr(series: np.ndarray) -> np.ndarray:
    """Channel-correlation target from a [time, channels] series."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"expected [time, channels], got shape {series.shape}")
    return pearson_matrix_np(series.T)


# ---- reconstruction pretexts ----------------------------------------------


def make_row_mask(n: int, length: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean [n, length] mask of whole timesteps, the same rows masked
    across every channel of a sample. Exactly round(ratio*length) rows per
    sample, clamped so at least one row is masked and (when length > 1) at
    least one is kept."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    count = int(round(ratio * length))
    count = max(1, min(count, length - 1)) if length > 1 else 1
    mask = np.zeros((n, length), dtype=bool)
    for i in range(n):
        mask[i, rng.choice(length, size=count, replace=False)] = True
    return mask


def masked_modeling_loss(
    model, x: Tensor, ratio: float, rng: np.random.Generator
) -> Tensor:
    """Reconstruct masked timesteps from the visible ones.

    Masked rows are zeroed on the way in; the squared error is averaged
    over masked entries only.
    """
    n, length, channels = x.shape
    mask = make_row_mask(n, length, ratio, rng)  # [B, L]
    m3 = mask[:, :, None].astype(np.float64)  # [B, L, 1]
    xm = mul(x, Tensor(1.0 - m3))
    xhat = model.reconstruct(xm)
    d = sub(xhat, x)
    masked_sq = mul(mul(d, d), Tensor(m3))
    denom = float(mask.sum()) * channels
    return mul(tsum(masked_sq), Tensor(1.0 / denom))


def reconstruction_loss(model, x: Tensor) -> Tensor:
    return mse(model.reconstruct(x), x)
