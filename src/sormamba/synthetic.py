"""Synthetic multivariate series for tests and controlled analyses."""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter


def _ar1(rng: np.random.Generator, length: int, phi: float) -> np.ndarray:
    noise = rng.normal(size=length)
    return lfilter([1.0], [1.0, -phi], noise)


def _rescale(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Give each channel of [T, C] ``x`` its own scale and offset, so
    normalization actually matters."""
    scale = rng.uniform(0.5, 2.0, x.shape[1])
    offset = rng.uniform(-1.0, 1.0, x.shape[1])
    return x * scale + offset


def correlated_series(
    n_channels: int,
    length: int,
    strength: float = 0.7,
    seed: int = 0,
    phi: float = 0.9,
) -> np.ndarray:
    """Channels sharing one autoregressive latent factor.

    ``strength`` in [0, 1] sets the share of the common factor in each
    channel; the rest is channel-specific autoregressive structure plus a
    little observation noise. Loadings carry mixed signs so the channel
    correlation matrix has both positive and negative entries. Channels are
    given distinct offsets and scales so normalization actually matters.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    rng = np.random.default_rng(seed)
    factor = _ar1(rng, length, phi)
    loadings = rng.uniform(0.5, 1.5, n_channels) * rng.choice([-1.0, 1.0], n_channels)
    own = np.column_stack([_ar1(rng, length, phi) for _ in range(n_channels)])
    x = strength * np.outer(factor, loadings) + (1.0 - strength) * own
    x = x + 0.05 * rng.normal(size=x.shape)
    return _rescale(x, rng)


def seasonal_series(
    n_channels: int,
    length: int,
    seed: int = 0,
    periods: tuple[int, ...] = (12, 5),
    noise: float = 0.05,
) -> np.ndarray:
    """Shared sinusoids with per-channel mixing: predictable and correlated.

    Every channel is a positive combination of the same phase-locked
    seasonal components, so a model that can read the phase from a lookback
    window covering the longest period forecasts it well, while carrying
    the last value forward does not.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    phases = rng.uniform(0, 2 * np.pi, len(periods))
    amps = rng.uniform(0.5, 1.5, (n_channels, len(periods)))
    x = np.zeros((length, n_channels))
    for j, (p, ph) in enumerate(zip(periods, phases)):
        x += np.outer(np.sin(2 * np.pi * t / p + ph), amps[:, j])
    x += noise * rng.normal(size=x.shape)
    return _rescale(x, rng)


def lagged_series(
    n_channels: int,
    length: int,
    lag: int = 4,
    seed: int = 0,
    noise: float = 0.05,
    phi: float = 0.8,
) -> np.ndarray:
    """Channels that are progressively delayed copies of one driver.

    Channel ``c`` observes the driver ``c * lag`` steps late, so the future
    of a delayed channel is already visible in the windows of the channels
    ahead of it. A per-channel model can only extrapolate the driver; a
    model that mixes information across channels can read the answer off a
    leading channel. Useful whenever a task must reward cross-channel
    reasoning rather than merely tolerate it.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    rng = np.random.default_rng(seed)
    pad = (n_channels - 1) * lag
    t = np.arange(length + pad, dtype=np.float64)
    driver = np.sin(2 * np.pi * t / 40.0) + 0.6 * np.sin(2 * np.pi * t / 17.0 + 1.0)
    driver += 0.4 * _ar1(rng, length + pad, phi)
    driver = (driver - driver.mean()) / driver.std()
    x = np.empty((length, n_channels))
    for c in range(n_channels):
        shift = pad - c * lag
        x[:, c] = driver[shift : shift + length]
    x += noise * rng.normal(size=x.shape)
    return _rescale(x, rng)
