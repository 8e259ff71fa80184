"""CSV ingestion, chronological splits, windowing, and series transforms.

Split conventions vary by benchmark family and are reproduced exactly:

- ``ett-h``: fixed calendar borders 0/8640/11520/14400 (12/4/4 months of
  hourly steps), validation and test segments extended back by the lookback
  so their first target sits exactly on the boundary.
- ``ett-m``: the same borders times four (quarter-hourly steps).
- ``ett-pems-solar``: plain 6:2:2 ratio cut on integer boundaries, no
  extension.
- ``other``: 7:1:2 with ``n_train = int(0.7 T)``, ``n_test = int(0.2 T)``,
  the remainder validation, and the lookback extension as in the hourly
  family.

Targets never cross a split boundary: an extended segment only lets inputs
reach back, so the earliest validation target still lands on the first
index after the training segment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SPLIT_FAMILIES = ("ett-h", "ett-m", "ett-pems-solar", "other")

SPLITS = ("train", "val", "test")  # the chronological order of the segments

_ETT_HOUR_BORDERS = (8640, 11520, 14400)


@dataclass
class RawSeries:
    name: str
    values: np.ndarray  # [T, C] float64
    channel_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"{self.name}: values must be [T, C], got {self.values.shape}")
        if len(self.channel_names) != self.values.shape[1]:
            raise ValueError(
                f"{self.name}: {len(self.channel_names)} channel names for "
                f"{self.values.shape[1]} channels"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.name}: non-finite values after ingestion")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def load_csv(path: str, has_timestamp: bool = True, name: str | None = None) -> RawSeries:
    """Read a rectangular numeric CSV with a header row.

    With ``has_timestamp`` the first column is dropped from the numeric
    values. Ragged rows and non-numeric cells raise with the offending row
    index (1-based, counting the header as row 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        width = len(header)
        start = 1 if has_timestamp else 0
        if width - start < 1:
            raise ValueError(f"{path}: no value columns")
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {width}")
            try:
                rows.append([float(cell) for cell in row[start:]])
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell in row {i}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return RawSeries(
        name=name or path,
        values=np.array(rows, dtype=np.float64),
        channel_names=header[start:],
    )


def _segment_bounds(total: int, family: str, lookback: int) -> list[tuple[int, int]]:
    if family not in SPLIT_FAMILIES:
        raise ValueError(f"family must be one of {SPLIT_FAMILIES}, got {family!r}")
    if family in ("ett-h", "ett-m"):
        scale = 1 if family == "ett-h" else 4
        b1, b2, b3 = (scale * b for b in _ETT_HOUR_BORDERS)
        if total < b3:
            raise ValueError(
                f"series too short for the {family} calendar convention: "
                f"{total} < {b3}"
            )
        return [(0, b1), (b1 - lookback, b2), (b2 - lookback, b3)]
    if family == "ett-pems-solar":
        a, b = int(0.6 * total), int(0.8 * total)
        return [(0, a), (a, b), (b, total)]
    n_train = int(0.7 * total)
    n_test = int(0.2 * total)
    b1 = n_train
    b2 = total - n_test
    return [(0, b1), (b1 - lookback, b2), (b2 - lookback, total)]


def chronological_split(
    series: RawSeries, family: str, lookback: int = 96
) -> tuple[RawSeries, RawSeries, RawSeries]:
    """Cut a series into chronological train/val/test segments."""
    bounds = _segment_bounds(series.length, family, lookback)
    if any(lo < 0 or hi <= lo for lo, hi in bounds):
        raise ValueError(
            f"{series.name}: length {series.length} cannot be split as {family!r}"
        )
    out = []
    for split, (lo, hi) in zip(SPLITS, bounds):
        out.append(
            RawSeries(
                name=f"{series.name}/{split}",
                values=series.values[lo:hi].copy(),
                channel_names=list(series.channel_names),
            )
        )
    return tuple(out)


def usable_sizes(
    series: RawSeries, family: str, lookback: int = 96
) -> tuple[int, int, int]:
    """Per-split count of length-``lookback`` input positions, the figure
    benchmark tables conventionally report."""
    bounds = _segment_bounds(series.length, family, lookback)
    sizes = tuple(hi - lo - lookback + 1 for lo, hi in bounds)
    if any(s < 1 for s in sizes):
        raise ValueError(f"{series.name}: a split is shorter than the lookback")
    return sizes


def series_from_windows(x: np.ndarray) -> np.ndarray:
    """Invert stride-1 windowing: [N, L, C] back to the [N+L-1, C] series."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected [N, L, C] windows, got shape {x.shape}")
    return np.concatenate([x[:, 0, :], x[-1, 1:, :]], axis=0)


def make_windows(values: np.ndarray, lookback: int, horizon: int):
    """Stride-1 forecasting pairs: x [N, L, C], y [N, H, C], N = T-L-H+1.

    Both are read-only views of ``values`` (no window is copied), so they
    change if ``values`` does; gather a batch with ``x[idx]``.
    """
    values = np.asarray(values, dtype=np.float64)
    t = values.shape[0]
    n = t - lookback - horizon + 1
    if n < 1:
        raise ValueError(
            f"series of length {t} too short for lookback {lookback} + horizon {horizon}"
        )
    x = sliding_window_view(values[: t - horizon], lookback, axis=0).swapaxes(1, 2)
    y = sliding_window_view(values[lookback:], horizon, axis=0).swapaxes(1, 2)
    return x, y


@dataclass
class Normalizer:
    """Per-channel z-scoring fitted on the training segment only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "Normalizer":
        values = np.asarray(values, dtype=np.float64)
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(mean=np.asarray(d["mean"]), std=np.asarray(d["std"]))


@dataclass
class WindowedDataset:
    split: str
    x: np.ndarray  # [N, L, C]
    y: np.ndarray  # [N, H, C]

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class SplitBundle:
    """Normalized train/val/test windows plus the statistics that made them."""

    train: WindowedDataset
    val: WindowedDataset
    test: WindowedDataset
    normalizer: Normalizer
    channel_names: list[str] = field(default_factory=list)

    def __getitem__(self, split: str) -> WindowedDataset:
        if split not in SPLITS:
            raise KeyError(split)
        return getattr(self, split)


def build_splits(
    series: RawSeries,
    family: str,
    lookback: int,
    horizon: int,
    normalize: bool = True,
) -> SplitBundle:
    segments = chronological_split(series, family, lookback)
    normalizer = Normalizer.fit(segments[0].values)  # the training segment's
    parts = {}
    for split, seg in zip(SPLITS, segments):
        vals = normalizer.transform(seg.values) if normalize else seg.values
        x, y = make_windows(vals, lookback, horizon)
        parts[split] = WindowedDataset(split=split, x=x, y=y)
    return SplitBundle(
        **parts, normalizer=normalizer, channel_names=list(series.channel_names)
    )


# ---- experimental transforms ----------------------------------------------


def inject_missingness(
    values: np.ndarray,
    rate: float,
    seed_or_rng,
    return_mask: bool = False,
):
    """Drop a random fraction of cells and refill by per-channel linear
    interpolation between the nearest observed neighbours; runs of missing
    values at either end take the nearest observed value.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected [T, C], got shape {values.shape}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    t, c = values.shape
    if rate == 0.0:
        mask = np.zeros((t, c), dtype=bool)
        return (values.copy(), mask) if return_mask else values.copy()
    mask = rng.random((t, c)) < rate
    filled = values.copy()
    idx = np.arange(t)
    for ch in range(c):
        observed = ~mask[:, ch]
        if not observed.any():
            raise ValueError(f"channel {ch} lost every observation at rate {rate}")
        filled[:, ch] = np.interp(idx, idx[observed], values[observed, ch])
    return (filled, mask) if return_mask else filled


# ---- benchmark registry -----------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    family: str
    n_channels: int
    length: int
    # split sizes as conventionally reported for these benchmarks, where a
    # single consistent accounting reproduces them; None where the reported
    # row follows a legacy accounting we do not replicate (see notes below)
    reported_sizes: tuple[int, int, int] | None = None
    # (lookback, horizon) under which reported_sizes hold, when they come
    # from forecasting pairs rather than input positions
    reported_window: tuple[int, int] | None = None


DATASETS: dict[str, DatasetSpec] = {
    "ETTh1": DatasetSpec("ett-h", 7, 17420, (8545, 2881, 2881)),
    "ETTh2": DatasetSpec("ett-h", 7, 17420, (8545, 2881, 2881)),
    "ETTm1": DatasetSpec("ett-m", 7, 69680, (34465, 11521, 11521)),
    "ETTm2": DatasetSpec("ett-m", 7, 69680, (34465, 11521, 11521)),
    "Weather": DatasetSpec("other", 21, 52696, (36792, 5271, 10540)),
    "ECL": DatasetSpec("other", 321, 26304, (18317, 2633, 5261)),
    "Traffic": DatasetSpec("other", 862, 17544, (12185, 1757, 3509)),
    "PEMS03": DatasetSpec(
        "ett-pems-solar", 358, 26208, (15617, 5135, 5135), reported_window=(96, 12)
    ),
    # rows below carry legacy accounting quirks (extra horizon subtraction
    # or off-by-one lengths) and are registered without gated sizes
    "Exchange": DatasetSpec("other", 8, 7588),
    "Solar": DatasetSpec("ett-pems-solar", 137, 52560),
    "PEMS04": DatasetSpec("ett-pems-solar", 307, 16992),
    "PEMS07": DatasetSpec("ett-pems-solar", 883, 28224),
    "PEMS08": DatasetSpec("ett-pems-solar", 170, 17856),
}
