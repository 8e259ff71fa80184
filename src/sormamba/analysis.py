"""Diagnostics: order sensitivity, robustness, correlation preservation.

These functions quantify the behaviors the architecture is designed around:
how much forecasts move when the channel order is reversed or shuffled, how
well channel-correlation structure survives into the embedding space, where
the parameters sit, and how forecast error degrades as the input series
loses observations.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .data import (
    Normalizer,
    RawSeries,
    WindowedDataset,
    build_splits,
    inject_missingness,
    series_from_windows,
)
from .losses import mse_np, pearson_matrix, pearson_matrix_np, reg_distance
from .model import ModelConfig, SORMambaModel, count_parameters
from .training import TrainConfig, evaluate, iterate_batches, train_supervised


@dataclass
class BiasReport:
    """Forecast error under the native and the reversed channel order."""

    mse_fwd: float
    mse_rev: float
    abs_gap: float
    rel_gap: float

    def to_dict(self) -> dict:
        return asdict(self)


def bias_metric(mse_fwd: float, mse_rev: float) -> BiasReport:
    """rel_gap is (reversed - forward) / forward: negative means the model
    did better on reversed input than on the order it was trained with."""
    if mse_fwd <= 0:
        raise ValueError(f"mse_fwd must be positive, got {mse_fwd}")
    return BiasReport(
        mse_fwd=float(mse_fwd),
        mse_rev=float(mse_rev),
        abs_gap=float(abs(mse_fwd - mse_rev)),
        rel_gap=float((mse_rev - mse_fwd) / mse_fwd),
    )


def _permuted_view(
    ds: WindowedDataset, perm: np.ndarray, normalizer: Normalizer | None
) -> tuple[WindowedDataset, Normalizer | None]:
    if np.array_equal(perm, np.arange(len(perm))):
        return ds, normalizer
    # advanced indexing on the channel axis returns a transposed memory
    # layout, and reduction order (hence the last ulp) follows layout; keep
    # every evaluation on C-contiguous arrays so orders compare exactly
    pds = WindowedDataset(
        split=ds.split,
        x=np.ascontiguousarray(ds.x[..., perm]),
        y=np.ascontiguousarray(ds.y[..., perm]),
    )
    pnorm = (
        Normalizer(mean=normalizer.mean[perm], std=normalizer.std[perm])
        if normalizer is not None
        else None
    )
    return pds, pnorm


def _order_mses(
    model: SORMambaModel,
    ds: WindowedDataset,
    normalizer: Normalizer | None,
    denormalize: bool,
    perms: Sequence[np.ndarray],
) -> list[float]:
    """Test MSE of the same windows under each channel ordering."""
    out = []
    for perm in perms:
        pds, pnorm = _permuted_view(ds, np.asarray(perm), normalizer)
        out.append(evaluate(model, pds, pnorm, denormalize=denormalize)["mse"])
    return out


def reversal_bias(
    model: SORMambaModel,
    ds: WindowedDataset,
    normalizer: Normalizer | None = None,
    denormalize: bool = True,
) -> BiasReport:
    fwd = np.arange(ds.x.shape[-1])
    mse_fwd, mse_rev = _order_mses(model, ds, normalizer, denormalize, (fwd, fwd[::-1]))
    return bias_metric(mse_fwd, mse_rev)


def permutation_robustness(
    model: SORMambaModel,
    ds: WindowedDataset,
    normalizer: Normalizer | None = None,
    denormalize: bool = True,
    n_perms: int = 5,
    seed: int = 0,
    perms: list[np.ndarray] | None = None,
) -> dict:
    """Spread of test error across random channel orderings."""
    c = ds.x.shape[-1]
    if perms is None:
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(c) for _ in range(n_perms)]
    values = np.asarray(_order_mses(model, ds, normalizer, denormalize, perms))
    return {
        "mse_values": values.tolist(),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "permutations": [np.asarray(p).tolist() for p in perms],
    }


def view_embeddings(
    model: SORMambaModel, ds: WindowedDataset, batch_size: int = 64
) -> dict[str, np.ndarray]:
    """Window-averaged channel embeddings per view, each [C, d_model].

    Two-view models export the final layer's two view outputs; single-view
    models export the fused tokens under the key ``tokens``.
    """
    sums: dict[str, np.ndarray] = {}
    count = 0
    with no_grad():
        for idx in iterate_batches(len(ds), batch_size, None):
            x = Tensor(ds.x[idx])
            if model.config.two_view:
                _, pairs = model.encode(x)
                z1, z2 = pairs[-1]
                parts = {"view1": z1.data, "view2": z2.data}
            else:
                tokens, _ = model.encode(x)
                parts = {"tokens": tokens.data}
            for key, arr in parts.items():
                sums[key] = sums.get(key, 0.0) + arr.sum(axis=0)
            count += len(idx)
    return {key: arr / count for key, arr in sums.items()}


def consistency_gap(
    model: SORMambaModel,
    ds: WindowedDataset,
    metric: str | None = None,
    batch_size: int = 64,
) -> float:
    """Mean view disagreement per layer over a dataset (fixed views)."""
    metric = metric or model.config.reg_metric
    total, batches = 0.0, 0
    with no_grad():
        for idx in iterate_batches(len(ds), batch_size, None):
            _, pairs = model.encode(Tensor(ds.x[idx]))
            if not pairs:
                raise ValueError("consistency_gap needs a two-view model")
            layer_mean = np.mean(
                [float(reg_distance(z1, z2, metric).data) for z1, z2 in pairs]
            )
            total += float(layer_mean)
            batches += 1
    return total / max(1, batches)


def correlation_preservation(
    model: SORMambaModel, ds: WindowedDataset, batch_size: int = 64
) -> dict:
    """Input channel correlations vs their image in embedding space.

    ``r_x`` comes from the contiguous series underlying the windows;
    ``r_z`` is the average per-window Pearson matrix of the projected
    channel embeddings.
    """
    r_x = pearson_matrix_np(series_from_windows(ds.x).T)
    mats = []
    with no_grad():
        for idx in iterate_batches(len(ds), batch_size, None):
            z = model.latent_for_ccm(Tensor(ds.x[idx]))
            mats.append(pearson_matrix(z).data)
    r_z = np.concatenate(mats, axis=0).mean(axis=0)
    c = r_x.shape[0]
    off = ~np.eye(c, dtype=bool)
    return {
        "r_x": r_x,
        "r_z": r_z,
        "gap_mse": mse_np(r_z, r_x),
        "mean_abs_offdiag_x": float(np.mean(np.abs(r_x[off]))),
        "mean_abs_offdiag_z": float(np.mean(np.abs(r_z[off]))),
    }


@functools.cache
def large_config_reference(direction: str) -> dict[str, int]:
    """Component sizes of the 862-channel benchmark configuration (lookback
    96, horizon 96, width 512, two layers, state 32, hidden 1024), counted
    on that model once per direction, on first use."""
    cfg = ModelConfig(
        lookback=96, horizon=96, n_channels=862, d_model=512, n_layers=2,
        d_state=32, direction=direction,
    )
    counts = count_parameters(SORMambaModel(cfg, seed=0))
    return {k: counts[k] for k in ("in_projector", "encoder_cd", "encoder_td", "out_projector")}


def efficiency_report(model: SORMambaModel) -> dict:
    """Parameter placement for this model, with the large-configuration
    reference counts alongside for orientation."""
    counts = count_parameters(model)
    return {
        "components": counts,
        "direction": model.config.direction,
        "conv": model.config.conv,
        "reference_large_config": large_config_reference(model.config.direction),
    }


def count_inversions(values) -> int:
    """Adjacent strict decreases in a sequence expected to be non-decreasing."""
    v = list(values)
    return sum(1 for a, b in zip(v, v[1:]) if b < a)


def missingness_sweep(
    values: np.ndarray,
    model_config: ModelConfig,
    train_config: TrainConfig,
    rates: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75),
    seeds: tuple[int, ...] = (0, 1, 2),
    family: str = "ett-pems-solar",
) -> dict:
    """Train and evaluate once per (rate, seed) on degraded copies of the
    series; returns per-run rows and the seed-averaged error per rate."""
    rows = []
    for rate in rates:
        for seed in seeds:
            filled = inject_missingness(values, rate, np.random.default_rng(seed))
            series = RawSeries(
                name=f"missing-{rate}",
                values=filled,
                channel_names=[f"ch{i}" for i in range(filled.shape[1])],
            )
            bundle = build_splits(
                series, family, model_config.lookback, model_config.horizon
            )
            model = SORMambaModel(model_config, seed=seed)
            cfg = replace(train_config, seed=seed)
            train_supervised(model, bundle.train, bundle.val, cfg)
            metrics = evaluate(model, bundle.test, bundle.normalizer)
            rows.append(
                {"rate": rate, "seed": seed, "mse": metrics["mse"], "mae": metrics["mae"]}
            )
    averaged = []
    for rate in rates:
        vals = [r["mse"] for r in rows if r["rate"] == rate]
        averaged.append({"rate": rate, "mse": float(np.mean(vals))})
    curve = [a["mse"] for a in averaged]
    return {
        "rows": rows,
        "averaged": averaged,
        "inversions": count_inversions(curve),
    }
