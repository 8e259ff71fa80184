"""Optimization and evaluation harness.

Runs are deterministic for a given seed: batch order comes from one seeded
stream, view sampling (for the random order modes) from another, and the
optimizer walks parameters in registry order. Early stopping watches
validation forecast error with a fixed patience and the best-validation
parameters are restored before returning (``restore_best=False`` keeps the
final-epoch parameters instead).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, backward, no_grad
from .data import Normalizer, WindowedDataset, series_from_windows
from .losses import (
    ccm_loss,
    global_corr,
    masked_modeling_loss,
    reconstruction_loss,
    total_loss,
)
from .model import SORMambaModel

PRETEXT_MODES = ("ccm", "mm", "rec")
EVAL_BATCH = 64
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass
class TrainConfig:
    max_epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    patience: int = 3
    seed: int = 0
    mask_ratio: float = 0.5  # masked-timestep pretraining only
    restore_best: bool = True  # False keeps the final-epoch parameters

    def __post_init__(self):
        for name, low in (("max_epochs", 1), ("batch_size", 1), ("patience", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        if not isinstance(self.restore_best, bool):
            raise ValueError(f"restore_best must be true or false, got {self.restore_best!r}")
        if not (_is_number(self.lr) and 0.0 < self.lr < math.inf):
            raise ValueError(f"lr must be a positive finite number, got {self.lr!r}")
        if not (_is_number(self.mask_ratio) and 0.0 < self.mask_ratio < 1.0):
            raise ValueError(f"mask_ratio must be a number in (0, 1), got {self.mask_ratio!r}")


class Adam:
    """Standard Adam with bias correction over an ordered parameter list."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = ADAM_BETAS
        self.eps = ADAM_EPS
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            # m, v and p.data in place, each operation as in
            # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * (g * g),
            # p = p - lr * m_hat / (sqrt(v_hat) + eps)
            tmp = np.multiply(g, 1 - self.b1)
            m *= self.b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1 - self.b2
            v *= self.b2
            v += tmp
            step = np.divide(m, 1 - self.b1**t)
            step *= self.lr
            np.divide(v, 1 - self.b2**t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step /= tmp
            p.data -= step


def iterate_batches(n: int, batch_size: int, rng: np.random.Generator | None):
    order = np.arange(n) if rng is None else rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def sum_batches(ds: WindowedDataset, fn, batch_size: int = EVAL_BATCH):
    """``0.0 + fn(x, rows) + ...`` over the batches of ``ds`` in order under
    ``no_grad``: ``rows`` is the batch's slice of ``ds`` and ``x`` a Tensor
    over ``ds.x[rows]``, a read-only view of the dataset (no copy of the
    batch is made, and no reader can write into it). Each ``fn`` returns its
    batch's sum, so one batch of results is held at a time."""
    total = 0.0
    with no_grad():
        for start in range(0, len(ds), batch_size):
            rows = slice(start, start + batch_size)
            batch = ds.x[rows]
            batch.flags.writeable = False
            total = total + fn(Tensor(batch), rows)
    return total


def _snapshot(params: list[Tensor]) -> list[np.ndarray]:
    return [p.data.copy() for p in params]


def _restore(params: list[Tensor], snap: list[np.ndarray]) -> None:
    for p, s in zip(params, snap):
        p.data = s.copy()


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class FitResult:
    best_val: float
    best_epoch: int
    epochs: list[EpochLog]
    stopped_early: bool

    def to_records(self) -> list[dict]:
        return [asdict(e) for e in self.epochs]


def _fit(
    model: SORMambaModel,
    params: list[Tensor],
    cfg: TrainConfig,
    batch_loss,  # (x_idx batch arrays, rng) -> Tensor scalar
    val_loss,  # () -> float
    n_train: int,
) -> FitResult:
    """Every model parameter outside ``params`` must come out bitwise
    unchanged; one that moved raises an AssertionError naming it. Those
    parameters take no gradient during the fit, so no step records or
    back-propagates through what only they feed; their ``requires_grad``
    flags are restored afterwards."""
    opt = Adam(params, lr=cfg.lr)
    names = {id(t): n for n, t in model.param_items()}
    trained = {id(p) for p in params}
    frozen = [(n, t, t.data.tobytes()) for n, t in model.param_items() if id(t) not in trained]
    flags = [t.requires_grad for _, t, _ in frozen]
    rng_shuffle = np.random.default_rng(cfg.seed)
    rng_views = np.random.default_rng(cfg.seed + 7919)
    best = float("inf")
    best_epoch = -1
    best_snap = _snapshot(params)
    bad_epochs = 0
    logs: list[EpochLog] = []
    stopped = False
    for _, t, _ in frozen:
        t.requires_grad = False
    try:
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            total = 0.0
            n_batches = 0
            for idx in iterate_batches(n_train, cfg.batch_size, rng_shuffle):
                opt.zero_grad()
                loss = batch_loss(idx, rng_views)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise FloatingPointError(
                        f"non-finite training loss at epoch {epoch}, batch {n_batches}"
                    )
                backward(loss)
                for p in params:
                    if p.grad is not None and not np.isfinite(p.grad).all():
                        raise FloatingPointError(
                            f"non-finite gradient for {names[id(p)]} at epoch {epoch}, "
                            f"batch {n_batches}"
                        )
                opt.step()
                total += value
                n_batches += 1
            vl = val_loss()
            if not np.isfinite(vl):
                # no epoch could beat it, and the untrained model would be kept
                raise FloatingPointError(f"non-finite validation loss {vl} at epoch {epoch}")
            logs.append(
                EpochLog(
                    epoch=epoch,
                    train_loss=total / max(1, n_batches),
                    val_loss=vl,
                    seconds=time.perf_counter() - t0,
                )
            )
            if vl < best:
                best = vl
                best_epoch = epoch
                best_snap = _snapshot(params)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    stopped = True
                    break
    finally:
        for (_, t, _), flag in zip(frozen, flags):
            t.requires_grad = flag
    if cfg.restore_best:
        _restore(params, best_snap)
    moved = [n for n, t, before in frozen if t.data.tobytes() != before]
    if moved:
        raise AssertionError(f"fitting moved frozen parameters: {', '.join(moved)}")
    return FitResult(best_val=best, best_epoch=best_epoch, epochs=logs, stopped_early=stopped)


def errors_each(
    ds: WindowedDataset,
    predict,  # x batch Tensor -> list of forecast arrays for its targets
    normalizer: Normalizer | None = None,
    denormalize: bool = False,
    batch_size: int = EVAL_BATCH,
) -> list[dict]:
    """MSE and MAE over ``ds``, in input units with ``denormalize``, of
    each forecast in the list that ``predict`` returns per batch, in its
    order. The squared and absolute errors are summed batch by batch, so no
    more than one batch of forecasts is held at a time. A forecast array the
    list holds more than once (orderings that share it) is scored once."""
    if denormalize and normalizer is None:
        raise ValueError("denormalize=True requires a normalizer")

    def sums(x: Tensor, rows: slice) -> np.ndarray:
        preds, target = predict(x), ds.y[rows]
        if denormalize:
            target = normalizer.inverse(target)
        rows, scored = [], {}
        while preds:
            # popped, so a forecast is let go once its inverse exists; the
            # ones left were alive with it, so no id is reused
            pred = preds.pop(0)
            key = id(pred)
            if key not in scored:
                if denormalize:
                    pred = normalizer.inverse(pred)
                d = pred - target
                scored[key] = [np.sum(d * d), np.sum(np.abs(d))]
            rows.append(scored[key])
        return np.array(rows)

    totals = sum_batches(ds, sums, batch_size) / ds.y.size
    return [{"mse": float(mse), "mae": float(mae)} for mse, mae in totals]


def _forecast(model: SORMambaModel):
    """The forecast of a batch as evaluation reads it, a list of one: no
    tape, no view pairs (``SORMambaModel.forecast_orderings`` with the
    given order)."""
    return lambda x: model.forecast_orderings(x, (None,))


def train_supervised(
    model: SORMambaModel,
    train: WindowedDataset,
    val: WindowedDataset,
    cfg: TrainConfig,
    trainable_prefixes: tuple[str, ...] | None = None,
) -> FitResult:
    """Fit the forecasting objective (plus the order-consistency penalty
    configured on the model). ``trainable_prefixes`` restricts which
    parameters move; everything else stays bitwise frozen."""
    mcfg = model.config
    if trainable_prefixes is None:
        named = model.named_parameters(exclude_prefixes=("ccm.", "rec."))
    else:
        named = [
            (n, t)
            for n, t in model.param_items()
            if any(n.startswith(p) for p in trainable_prefixes)
        ]
    params = [t for _, t in named]

    def batch_loss(idx, rng_views):
        pred, pairs = model.forecast(Tensor(train.x[idx]), rng=rng_views)
        report = total_loss(pred, train.y[idx], pairs, mcfg.reg_weight, mcfg.reg_metric)
        return report.total

    return _fit(
        model,
        params,
        cfg,
        batch_loss,
        lambda: errors_each(val, _forecast(model), batch_size=cfg.batch_size)[0]["mse"],
        len(train),
    )


def linear_probe(
    model: SORMambaModel,
    train: WindowedDataset,
    val: WindowedDataset,
    cfg: TrainConfig,
) -> FitResult:
    """Fit only the forecast head; everything else stays bitwise frozen."""
    return train_supervised(model, train, val, cfg, trainable_prefixes=("head.",))


def fine_tune(
    model: SORMambaModel,
    train: WindowedDataset,
    val: WindowedDataset,
    cfg: TrainConfig,
) -> FitResult:
    return train_supervised(model, train, val, cfg)


def pretrain(
    model: SORMambaModel,
    train: WindowedDataset,
    val: WindowedDataset,
    cfg: TrainConfig,
    mode: str = "ccm",
) -> FitResult:
    """Self-supervised pretraining. The forecast head is never touched.

    ``ccm`` matches channel-embedding correlations to those of the
    contiguous training series; ``mm`` reconstructs masked timesteps;
    ``rec`` reconstructs the full window.
    """
    if mode not in PRETEXT_MODES:
        raise ValueError(f"mode must be one of {PRETEXT_MODES}, got {mode!r}")
    named = model.named_parameters(exclude_prefixes=("head.",))
    params = [t for _, t in named]
    rng_mask = np.random.default_rng(cfg.seed + 104729)

    if mode == "ccm":
        # the training region, recovered from the overlapping windows
        train_corr = global_corr(series_from_windows(train.x))

    def pretext_loss(x: Tensor, rng_views, mask_rng) -> Tensor:
        if mode == "ccm":
            return ccm_loss(model.latent_for_ccm(x, rng=rng_views), train_corr)
        if mode == "mm":
            return masked_modeling_loss(model, x, cfg.mask_ratio, mask_rng)
        return reconstruction_loss(model, x)

    def batch_loss(idx, rng_views):
        return pretext_loss(Tensor(train.x[idx]), rng_views, rng_mask)

    def val_loss() -> float:
        rng_val_mask = np.random.default_rng(cfg.seed + 224737)
        return sum_batches(
            val, lambda x, _: x.shape[0] * float(pretext_loss(x, None, rng_val_mask).data),
            cfg.batch_size,
        ) / len(val)

    return _fit(model, params, cfg, batch_loss, val_loss, len(train))


def evaluate(
    model: SORMambaModel,
    ds: WindowedDataset,
    normalizer: Normalizer | None = None,
    denormalize: bool = True,
) -> dict:
    """Test metrics, de-normalized back to input units by default."""
    return errors_each(ds, _forecast(model), normalizer, denormalize)[0]


def last_value_baseline(
    ds: WindowedDataset, normalizer: Normalizer | None = None, denormalize: bool = True
) -> dict:
    """Repeat each window's final observation across the horizon."""
    horizon = ds.y.shape[1]
    return errors_each(
        ds, lambda x: [np.repeat(x.data[:, -1:, :], horizon, axis=1)], normalizer, denormalize
    )[0]


# ---- reporting ------------------------------------------------------------


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_summary_csv(path: str, rows: list[dict]) -> None:
    """Deterministic summary table: columns in first-seen order, no timing
    columns (wall-clock measurements belong in the JSONL logs)."""
    if not rows:
        raise ValueError("no rows to write")
    fieldnames = list(rows[0].keys())
    for row in rows[1:]:
        for k in row:
            if k not in fieldnames:
                fieldnames.append(k)
    banned = {"seconds", "wall_clock", "elapsed", "time"}
    leaked = banned & set(fieldnames)
    if leaked:
        raise ValueError(f"timing columns belong in JSONL logs, not summaries: {sorted(leaked)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})
