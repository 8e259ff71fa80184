"""Diagnostics: order sensitivity, robustness, correlation preservation.

These functions quantify the behaviors the architecture is designed around:
how much forecasts move when the channel order is reversed or shuffled, how
well channel-correlation structure survives into the embedding space, where
the parameters sit, and how forecast error degrades as the input series
loses observations.

``reversal_bias`` and ``permutation_robustness`` score the same windows
under several channel orderings, two per forward pass
(``SORMambaModel.forecast_orderings``). The batch keeps its channel layout
and an ordering changes only the scan orders, so the instance norm, the
embedding, layer 1's pre-scan projections and its discretized factors are
computed once per pass, and layer 1 walks each distinct scan order once.
Orderings of a pass that walk the same orders in the same blocks share
everything after that too, bit for bit: a view's output depends only on its
block and its scan order, and the views' outputs are summed, which IEEE
addition does to the same bits in either order. Under a shared (``uni``)
block and ``fixed-reverse`` the identity and the reversed ordering are such
a pair, so ``reversal_bias`` runs one forecast. Other orderings run the
LayerNorm/MLP after the scan and every later layer apart. Each ordering's
error is bit for bit what feeding the batch in that order, and putting the
forecast back, gives.

A pass holds all its orderings' activations at once, and nothing that no
later op reads: no view pairs, and each walk's y only until its ``post``.
At the analyze-weather shape (21 channels, width 64, two layers, batch 64)
the traced peak of one pass was 7.92 MiB for one ordering (as one
``evaluate`` batch), 8.57 MiB for identity and reversed (under ``bi`` or one
view, where they share no walk), 10.54 MiB for two random orderings, and
18.42 MiB for five at once.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import (
    Normalizer,
    RawSeries,
    WindowedDataset,
    build_splits,
    inject_missingness,
    series_from_windows,
)
from .losses import global_corr, mse_np, pearson_matrix, reg_distance
from .model import ModelConfig, SORMambaModel, count_parameters
from .ssm import checked_ordering
from .training import TrainConfig, errors_each, evaluate, sum_batches, train_supervised


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


# Orderings scored per forward pass. A pass holds every ordering's
# activations at once, so its peak grows with the count: a pair shares
# layer 1's pre-scan work and factors for +8% (identity and reversed) to
# +33% (two random orderings) over one ordering, where all five of a
# default robustness call would take +133% (figures in the module
# docstring).
_ORDERINGS_PER_PASS = 2


def _order_mses(
    model: SORMambaModel,
    ds: WindowedDataset,
    normalizer: Normalizer | None,
    denormalize: bool,
    perms: Sequence[np.ndarray],
) -> list[float]:
    """Test MSE of the same windows under each channel ordering, each what
    scoring the batches fed in that order (and put back) gives, bit for bit.

    The orderings are scored in passes of ``_ORDERINGS_PER_PASS``, each one
    ``model.forecast_orderings`` per batch: the instance norm, the embedding
    and layer 1's pre-scan work run once per pass, layer 1 walks each
    distinct scan order once, and orderings of the pass with the same walks
    share the rest. Sharing is found within a pass only: an ordering
    repeated in another pass is scored again, to the same bits.
    """
    mses: list[float] = []
    for start in range(0, len(perms), _ORDERINGS_PER_PASS):
        group = perms[start : start + _ORDERINGS_PER_PASS]
        errors = errors_each(
            ds, lambda x: model.forecast_orderings(x, group), normalizer, denormalize
        )
        mses += [e["mse"] for e in errors]
    return mses


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
        if isinstance(n_perms, bool) or not isinstance(n_perms, numbers.Integral) or n_perms < 1:
            raise ValueError(f"n_perms must be an integer of at least 1, got {n_perms!r}")
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(c) for _ in range(n_perms)]
    elif len(perms) == 0:
        raise ValueError("perms must hold at least 1 permutation, got 0")
    for i, perm in enumerate(map(np.asarray, perms)):
        # an array, so None is refused too
        checked_ordering(perm, c, f"perms[{i}]")
    values = np.asarray(_order_mses(model, ds, normalizer, denormalize, perms))
    return {
        "mse_values": values.tolist(),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "permutations": [np.asarray(p).tolist() for p in perms],
    }


def view_embeddings(model: SORMambaModel, ds: WindowedDataset) -> dict[str, np.ndarray]:
    """Window-averaged channel embeddings per view, each [C, d_model].

    Two-view models export the final layer's two view outputs; single-view
    models export the fused tokens under the key ``tokens``.
    """
    keys = ("view1", "view2") if model.config.two_view else ("tokens",)

    def batch_sum(x, _) -> np.ndarray:
        """[views, C, d_model] summed over the batch's windows."""
        tokens, pairs = model.encode(x)
        views = pairs[-1] if model.config.two_view else (tokens,)
        return np.stack([v.data.sum(axis=0) for v in views])

    return dict(zip(keys, sum_batches(ds, batch_sum) / len(ds)))


def consistency_gap(model: SORMambaModel, ds: WindowedDataset) -> float:
    """Mean view disagreement per layer over a dataset (fixed views), in the
    model's ``reg_metric``."""

    def layer_mean_sum(x, _) -> float:
        """The batch's per-layer mean, weighted by its window count."""
        _, pairs = model.encode(x)
        if not pairs:
            raise ValueError("consistency_gap needs a two-view model")
        metric = model.config.reg_metric
        gaps = [float(reg_distance(z1, z2, metric).data) for z1, z2 in pairs]
        return x.shape[0] * float(np.mean(gaps))

    return sum_batches(ds, layer_mean_sum) / len(ds)


def correlation_preservation(model: SORMambaModel, ds: WindowedDataset) -> dict:
    """Input channel correlations vs their image in embedding space.

    ``r_x`` comes from the contiguous series underlying the windows;
    ``r_z`` is the average per-window Pearson matrix of the projected
    channel embeddings.
    """
    r_x = global_corr(series_from_windows(ds.x))
    r_z = sum_batches(
        ds, lambda x, _: pearson_matrix(model.latent_for_ccm(x)).data.sum(axis=0)
    ) / len(ds)
    return {
        "r_x": r_x,
        "r_z": r_z,
        "gap_mse": mse_np(r_z, r_x),
        "mean_abs_offdiag_x": mean_abs_offdiag(r_x),
        "mean_abs_offdiag_z": mean_abs_offdiag(r_z),
    }


def mean_abs_offdiag(r: np.ndarray) -> float:
    """Mean absolute off-diagonal entry of a [C, C] correlation matrix, C >= 2."""
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 2:
        raise ValueError(f"need a [C, C] matrix with C>=2, got shape {r.shape}")
    return float(np.mean(np.abs(r[~np.eye(r.shape[0], dtype=bool)])))


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
