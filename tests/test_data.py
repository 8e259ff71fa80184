"""Data pipeline tests: ingestion, splits, windows, transforms."""

import numpy as np
import pytest

from sormamba import data as dt
from sormamba import synthetic as syn
from sormamba.analysis import mean_abs_offdiag
from sormamba.losses import global_corr


def series_of_length(t, c=2, name="synthetic"):
    vals = np.arange(t * c, dtype=np.float64).reshape(t, c)
    return dt.RawSeries(name=name, values=vals, channel_names=[f"ch{i}" for i in range(c)])


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "series.csv"
        p.write_text(text)
        return str(p)

    def test_with_timestamp_column(self, tmp_path):
        path = self.write(tmp_path, "date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n2020-01-03,5,6\n")
        s = dt.load_csv(path, has_timestamp=True)
        assert s.length == 3 and s.n_channels == 2
        assert s.channel_names == ["a", "b"]
        np.testing.assert_array_equal(s.values[0], [1.0, 2.0])

    def test_without_timestamp_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,4\n")
        s = dt.load_csv(path, has_timestamp=False)
        assert s.length == 2 and s.n_channels == 2
        np.testing.assert_array_equal(s.values[0], [1.0, 2.0])

    def test_ragged_row_reports_index(self, tmp_path):
        path = self.write(tmp_path, "date,a,b\nx,1,2\ny,3\n")
        with pytest.raises(ValueError, match="row 3"):
            dt.load_csv(path)

    def test_non_numeric_cell_reports_index(self, tmp_path):
        path = self.write(tmp_path, "date,a,b\nx,1,2\ny,3,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            dt.load_csv(path)


class TestSplits:
    def test_plain_622_segment_lengths(self):
        s = series_of_length(100)
        tr, va, te = dt.chronological_split(s, "ett-pems-solar")
        assert (tr.length, va.length, te.length) == (60, 20, 20)

    def test_hourly_calendar_counts(self):
        spec = dt.DATASETS["ETTh1"]
        s = series_of_length(spec.length)
        assert dt.usable_sizes(s, spec.family, 96) == spec.reported_sizes

    def test_quarter_hourly_calendar_counts(self):
        spec = dt.DATASETS["ETTm1"]
        s = series_of_length(spec.length)
        assert dt.usable_sizes(s, spec.family, 96) == spec.reported_sizes

    @pytest.mark.parametrize("name", ["Weather", "ECL", "Traffic"])
    def test_seventy_ten_twenty_counts(self, name):
        spec = dt.DATASETS[name]
        s = series_of_length(spec.length)
        assert dt.usable_sizes(s, spec.family, 96) == spec.reported_sizes

    def test_pems03_window_counts(self):
        spec = dt.DATASETS["PEMS03"]
        lb, hz = spec.reported_window
        s = series_of_length(spec.length)
        tr, va, te = dt.chronological_split(s, spec.family, lb)
        got = tuple(
            dt.make_windows(seg.values, lb, hz)[0].shape[0] for seg in (tr, va, te)
        )
        assert got == spec.reported_sizes

    def test_no_target_leakage_across_boundaries(self):
        # encode the global index in the values and compare targets directly
        for family, t in (("ett-pems-solar", 400), ("other", 400)):
            s = series_of_length(t, c=1)
            bundle = dt.build_splits(s, family, lookback=16, horizon=4, normalize=False)
            max_train_t = bundle.train.y.max()
            min_val_target = bundle.val.y.min()
            max_val_t = bundle.val.y.max()
            min_test_target = bundle.test.y.min()
            assert max_train_t < min_val_target
            assert max_val_t < min_test_target
            # inputs may reach back, targets may not
            assert bundle.val.x.min() <= max_train_t or family == "ett-pems-solar"

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="calendar"):
            dt.chronological_split(series_of_length(500), "ett-h")
        with pytest.raises(ValueError, match="family"):
            dt.chronological_split(series_of_length(500), "weekly")


class TestWindows:
    def test_count_formula(self):
        x, y = dt.make_windows(np.zeros((10, 2)), 3, 2)
        assert x.shape == (6, 3, 2) and y.shape == (6, 2, 2)

    def test_alignment(self):
        vals = np.arange(10, dtype=np.float64).reshape(10, 1)
        x, y = dt.make_windows(vals, 3, 2)
        np.testing.assert_array_equal(x[0].ravel(), [0, 1, 2])
        np.testing.assert_array_equal(y[0].ravel(), [3, 4])
        np.testing.assert_array_equal(x[-1].ravel(), [5, 6, 7])
        np.testing.assert_array_equal(y[-1].ravel(), [8, 9])

    def test_insufficient_length(self):
        with pytest.raises(ValueError, match="too short"):
            dt.make_windows(np.zeros((4, 1)), 3, 2)

    def test_windows_are_read_only_views_of_the_series(self):
        vals = np.random.default_rng(11).normal(size=(30, 3))
        x, y = dt.make_windows(vals, 5, 4)
        n = 30 - 5 - 4 + 1
        np.testing.assert_array_equal(x, np.stack([vals[i : i + 5] for i in range(n)]))
        np.testing.assert_array_equal(y, np.stack([vals[i + 5 : i + 9] for i in range(n)]))
        for windows in (x, y):
            assert np.shares_memory(windows, vals) and not windows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                windows[0, 0, 0] = 1.0
        # a batch gather is a C-contiguous copy, as from stacked windows
        idx = np.array([4, 0, 17])
        assert x[idx].flags.c_contiguous and x[idx].tobytes() == x.copy()[idx].tobytes()

    def test_series_from_windows_inverts_windowing(self):
        vals = np.random.default_rng(10).normal(size=(40, 3))
        x, _ = dt.make_windows(vals, 7, 2)
        rebuilt = dt.series_from_windows(x)
        np.testing.assert_array_equal(rebuilt, vals[: 40 - 2])
        assert rebuilt.tobytes() == dt.series_from_windows(x.copy()).tobytes()


class TestNormalizer:
    def test_round_trip(self):
        vals = np.random.default_rng(0).normal(5.0, 3.0, size=(200, 4))
        norm = dt.Normalizer.fit(vals)
        back = norm.inverse(norm.transform(vals))
        np.testing.assert_allclose(back, vals, atol=1e-12)

    def test_constant_channel_survives(self):
        vals = np.ones((50, 2))
        vals[:, 1] = np.arange(50)
        norm = dt.Normalizer.fit(vals)
        out = norm.transform(vals)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_train_stats_applied_to_all_splits(self):
        s = dt.RawSeries(
            name="s",
            values=syn.correlated_series(3, 400, seed=1),
            channel_names=["a", "b", "c"],
        )
        bundle = dt.build_splits(s, "ett-pems-solar", lookback=16, horizon=4)
        mu = bundle.train.x.reshape(-1, 3).mean(axis=0)
        assert np.all(np.abs(mu) < 0.2)  # train roughly centered
        assert bundle.normalizer.mean.shape == (3,)

    def test_dict_round_trip(self):
        norm = dt.Normalizer.fit(np.random.default_rng(1).normal(size=(30, 3)))
        again = dt.Normalizer.from_dict(norm.to_dict())
        np.testing.assert_array_equal(again.mean, norm.mean)
        np.testing.assert_array_equal(again.std, norm.std)


class TestMissingness:
    def test_rate_zero_is_identity(self):
        vals = np.random.default_rng(6).normal(size=(20, 3))
        out = dt.inject_missingness(vals, 0.0, 0)
        np.testing.assert_array_equal(out, vals)

    def test_interior_gap_linear_midpoint(self):
        # the gap sits between 1 and 3, so linear refill must give exactly 2
        vals = np.array([[1.0], [100.0], [3.0]])

        def pattern(s):
            m = np.random.default_rng(s).random((3, 1)) < 0.4
            return m[1, 0] and not m[0, 0] and not m[2, 0]

        seed = next(s for s in range(10000) if pattern(s))
        filled, mask = dt.inject_missingness(vals, 0.4, seed, return_mask=True)
        assert mask[1, 0] and not mask[0, 0] and not mask[2, 0]
        assert filled[1, 0] == 2.0

    def test_boundary_gap_takes_nearest(self):
        vals = np.arange(10, dtype=np.float64).reshape(10, 1)
        # find a seed that drops the first cell but keeps some others
        seed = next(
            s
            for s in range(1000)
            if (m := np.random.default_rng(s).random((10, 1)) < 0.3)[0, 0]
            and not m.all()
        )
        filled, mask = dt.inject_missingness(vals, 0.3, seed, return_mask=True)
        first_obs = int(np.flatnonzero(~mask[:, 0])[0])
        assert filled[0, 0] == vals[first_obs, 0]

    def test_observed_cells_untouched(self):
        vals = np.random.default_rng(8).normal(size=(200, 4))
        filled, mask = dt.inject_missingness(vals, 0.5, 13, return_mask=True)
        np.testing.assert_array_equal(filled[~mask], vals[~mask])
        assert np.all(np.isfinite(filled))

    def test_rate_is_respected_at_scale(self):
        vals = np.random.default_rng(9).normal(size=(1000, 100))
        for rate in (0.25, 0.5, 0.75):
            _, mask = dt.inject_missingness(vals, rate, 17, return_mask=True)
            assert abs(mask.mean() - rate) < 0.01

    def test_fully_missing_channel_rejected(self):
        seed = next(
            s for s in range(1000) if np.random.default_rng(s).random((1, 1))[0, 0] < 0.5
        )
        with pytest.raises(ValueError, match="channel 0"):
            dt.inject_missingness(np.ones((1, 1)), 0.5, seed)


class TestChannelStats:
    """The mean absolute off-diagonal channel correlation that prepare-data
    reports, ``mean_abs_offdiag(global_corr(values))``."""

    def test_perfect_and_anti_correlation(self):
        base = np.sin(np.linspace(0, 20, 500))
        both = np.column_stack([base, 2.0 * base + 1.0])
        r = global_corr(both)
        assert r.shape == (2, 2) and mean_abs_offdiag(r) == pytest.approx(1.0, abs=1e-6)
        anti = np.column_stack([base, -base])
        assert mean_abs_offdiag(global_corr(anti)) == pytest.approx(1.0, abs=1e-6)

    def test_independent_noise_is_near_zero(self):
        noise = np.random.default_rng(3).normal(size=(20000, 4))
        assert mean_abs_offdiag(global_corr(noise)) < 0.05

    def test_synthetic_strength_orders_correlation(self):
        strong = mean_abs_offdiag(global_corr(syn.correlated_series(4, 4000, 0.9, seed=4)))
        weak = mean_abs_offdiag(global_corr(syn.correlated_series(4, 4000, 0.1, seed=4)))
        assert strong > 0.5 > weak

    def test_single_channel_rejected(self):
        with pytest.raises(ValueError, match="C>=2"):
            mean_abs_offdiag(global_corr(np.zeros((10, 1))))
