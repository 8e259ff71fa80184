"""The benchmark's workloads: registry-shaped configs on synthetic series.

The registry CSVs are not in the repository, so every workload draws a
``synthetic.correlated_series`` at a registry dataset's channel count. All
share L = H = 96, two layers, d_state 16, reg_weight 0.1, a ``uni`` encoder
with ``fixed-reverse`` views and the two-view objective. The seed given on
the command line picks the series, the model initialisation and the batch
order; the program under test receives only those generated inputs.

Why these three:

* ``train-etth1`` (C=7, D=128, batch 32, euler-b): scans are only 7 steps
  over wide 256-dim slabs, so dense projections, elementwise backward and
  Adam carry the step. A change to the scan recurrence should not move it.
* ``train-solar`` (C=137, D=64, batch 8, euler-b): 137-step scans over
  narrow slabs, so the per-step loop, the 4-D ``[B, S, d_inner, N]``
  discretization tensors and the stored states dominate time and memory,
  and window copies dominate set-up. The series is cut short so that the
  copying ``make_windows`` fits in memory.
* ``analyze-weather`` (C=21, D=64, zoh-exact, batch 64): the read path,
  forward-only through ``analysis.reversal_bias`` and
  ``analysis.permutation_robustness`` with an untrained seeded model (the
  weights do not change the cost). No tape, backward or Adam, so a change
  that buys training speed with extra forward work shows here as a loss. It
  is also the one workload on the second discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sormamba import analysis, autodiff, data, losses, ssm, synthetic, training
from sormamba import model as sm_model

LOOKBACK = HORIZON = 96
N_LAYERS = 2
D_STATE = 16
REG_WEIGHT = 0.1
LR = 1e-3
SCAN_TOLERANCE = 1e-12
# evaluate()'s default batch size, which the analysis functions use
EVAL_BATCH = 64
# a seed kept out of tuning, for checking a claimed gain on fresh inputs
VALIDATION_SEED = 1009


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "analyze"
    n_channels: int
    d_model: int
    batch: int
    discretization: str
    series_length: int
    family: str
    test_windows: int = 0  # analyze: windows per evaluation
    n_perms: int = 0  # analyze: orderings per robustness call

    def model_config(self) -> sm_model.ModelConfig:
        return sm_model.ModelConfig(
            lookback=LOOKBACK,
            horizon=HORIZON,
            n_channels=self.n_channels,
            d_model=self.d_model,
            n_layers=N_LAYERS,
            reg_weight=REG_WEIGHT,
            direction="uni",
            order_mode="fixed-reverse",
            d_state=D_STATE,
            discretization=self.discretization,
            two_view=True,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-etth1", "train", 7, 128, 32, "euler-b", 17420, "ett-h"),
        Workload("train-solar", "train", 137, 64, 8, "euler-b", 2400, "ett-pems-solar"),
        Workload(
            "analyze-weather", "analyze", 21, 64, EVAL_BATCH, "zoh-exact", 8000, "other",
            test_windows=EVAL_BATCH, n_perms=2,
        ),
    )
}


def setup(w: Workload, seed: int):
    """Series generation, ``build_splits`` and model init: the set-up cost."""
    values = synthetic.correlated_series(w.n_channels, w.series_length, seed=seed)
    series = data.RawSeries(
        name=w.name,
        values=values,
        channel_names=[f"ch{i}" for i in range(w.n_channels)],
    )
    bundle = data.build_splits(series, w.family, LOOKBACK, HORIZON)
    model = sm_model.SORMambaModel(w.model_config(), seed=seed)
    return bundle, model


def scan_agrees(w: Workload, x_batch: np.ndarray, seed: int) -> bool:
    """``ssm.selective_scan`` against ``ssm.naive_scan`` on the first batch.

    The batch's windows [B, L, C] become a [B, C, d_inner] scan input (the
    channel axis is the token axis; the lookback is tiled out to d_inner),
    run through fresh layer parameters in the workload's discretization.
    """
    cfg = w.model_config()
    tokens = np.swapaxes(x_batch, 1, 2)
    reps = -(-cfg.d_inner // tokens.shape[2])
    u = np.ascontiguousarray(np.tile(tokens, (1, 1, reps))[..., : cfg.d_inner])
    params = ssm.init_ssm_params(
        cfg.d_inner, cfg.d_state, cfg.resolved_dt_rank, np.random.default_rng(seed),
        mode=cfg.discretization,
    )
    with autodiff.no_grad():
        got = ssm.selective_scan(autodiff.Tensor(u), params).data
    want = ssm.naive_scan(u, params)
    return bool(np.max(np.abs(got - want)) <= SCAN_TOLERANCE)


class TrainRun:
    """The calls ``training._fit`` makes per step, driven one step at a time."""

    def __init__(self, w: Workload, bundle, model, seed: int):
        self.w = w
        self.model = model
        self.x, self.y = bundle.train.x, bundle.train.y
        params = [t for _, t in model.named_parameters(exclude_prefixes=("ccm.", "rec."))]
        self.opt = training.Adam(params, lr=LR)
        self.rng_shuffle = np.random.default_rng(seed)
        self.rng_views = np.random.default_rng(seed + 7919)
        self._batches = iter(())
        self.windows_per_step = w.batch
        self.batches_per_step = 1

    def first_batch(self) -> np.ndarray:
        return self.x[: self.w.batch]

    def _next_batch(self) -> np.ndarray:
        for idx in self._batches:
            if len(idx) == self.w.batch:
                return idx
        self._batches = training.iterate_batches(len(self.x), self.w.batch, self.rng_shuffle)
        return next(self._batches)

    def step(self) -> bool:
        """One optimizer step; False when the loss is not finite."""
        idx = self._next_batch()
        cfg = self.model.config
        self.opt.zero_grad()
        pred, pairs = self.model.forecast(autodiff.Tensor(self.x[idx]), rng=self.rng_views)
        report = losses.total_loss(pred, self.y[idx], pairs, cfg.reg_weight, cfg.reg_metric)
        if not np.isfinite(float(report.total.data)):
            return False
        autodiff.backward(report.total)
        self.opt.step()
        return True

    def memory_step(self) -> bool:
        return self.step()

    def checks(self) -> list[bool]:
        """A first step, whose loss must be finite like every other."""
        return [self.step()]


class AnalyzeRun:
    """One round: ``reversal_bias`` then ``permutation_robustness`` on a
    fixed set of test windows."""

    def __init__(self, w: Workload, bundle, model, seed: int):
        self.w = w
        self.model = model
        self.seed = seed
        test = bundle.test
        self.ds = data.WindowedDataset(
            split="test",
            x=test.x[: w.test_windows].copy(),
            y=test.y[: w.test_windows].copy(),
        )
        self.normalizer = bundle.normalizer
        evaluations = 2 + w.n_perms
        self.windows_per_step = evaluations * w.test_windows
        self.batches_per_step = evaluations * -(-w.test_windows // EVAL_BATCH)

    def first_batch(self) -> np.ndarray:
        return self.ds.x[: self.w.batch]

    def step(self) -> bool:
        bias = analysis.reversal_bias(self.model, self.ds, self.normalizer)
        robust = analysis.permutation_robustness(
            self.model, self.ds, self.normalizer, n_perms=self.w.n_perms, seed=self.seed
        )
        values = [bias.mse_fwd, bias.mse_rev, *robust["mse_values"]]
        return bool(np.all(np.isfinite(values)))

    def memory_step(self) -> bool:
        """One inference batch, as the analysis functions run it."""
        return bool(np.isfinite(training.evaluate(self.model, self.ds, self.normalizer)["mse"]))

    def checks(self) -> list[bool]:
        """The forward-order error of ``reversal_bias`` is exactly the
        identity-order ``evaluate`` error."""
        bias = analysis.reversal_bias(self.model, self.ds, self.normalizer)
        plain = training.evaluate(self.model, self.ds, self.normalizer)
        return [bias.mse_fwd == plain["mse"]]


def make_run(w: Workload, bundle, model, seed: int):
    cls = TrainRun if w.kind == "train" else AnalyzeRun
    return cls(w, bundle, model, seed)
