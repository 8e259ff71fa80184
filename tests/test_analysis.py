"""Diagnostic-function tests on small trained and untrained models."""

import numpy as np
import pytest

from sormamba import analysis as an
from sormamba import data as dt
from sormamba import model as md
from sormamba import synthetic as syn
from sormamba import training as tr


def bundle_and_model(two_view=True, direction="uni", seed=0, c=4):
    series = dt.RawSeries(
        name="s",
        values=syn.seasonal_series(c, 400, seed=seed),
        channel_names=[f"ch{i}" for i in range(c)],
    )
    bundle = dt.build_splits(series, "ett-pems-solar", 16, 4)
    model = md.SORMambaModel(
        md.ModelConfig(
            lookback=16, horizon=4, n_channels=c, d_model=8, n_layers=1,
            d_state=4, dt_rank=2, two_view=two_view, direction=direction,
        ),
        seed=seed,
    )
    return bundle, model


class TestBiasMetric:
    def test_signs_and_gaps(self):
        rep = an.bias_metric(0.143, 0.141)
        assert rep.abs_gap == pytest.approx(0.002, abs=1e-12)
        assert rep.rel_gap == pytest.approx(-0.013986, abs=1e-5)
        assert rep.rel_gap < 0  # better on reversed input
        rep2 = an.bias_metric(0.1, 0.12)
        assert rep2.rel_gap == pytest.approx(0.2, abs=1e-12)

    def test_rejects_nonpositive_forward(self):
        with pytest.raises(ValueError, match="positive"):
            an.bias_metric(0.0, 0.1)


class TestOrderEvaluation:
    def test_two_view_uni_has_identically_zero_reversal_gap(self):
        bundle, model = bundle_and_model(two_view=True, direction="uni")
        rep = an.reversal_bias(model, bundle.test, bundle.normalizer)
        assert rep.mse_fwd == rep.mse_rev
        assert rep.abs_gap == 0.0 and rep.rel_gap == 0.0

    def test_single_view_has_nonzero_reversal_gap(self):
        bundle, model = bundle_and_model(two_view=False)
        rep = an.reversal_bias(model, bundle.test, bundle.normalizer)
        assert rep.abs_gap > 0.0

    def test_identity_mode_matches_plain_evaluate(self):
        bundle, model = bundle_and_model()
        plain = tr.evaluate(model, bundle.test, bundle.normalizer)
        rep = an.reversal_bias(model, bundle.test, bundle.normalizer)
        assert rep.mse_fwd == plain["mse"]

    def test_robustness_on_identity_perms_has_zero_std(self):
        bundle, model = bundle_and_model()
        perms = [np.arange(4)] * 3
        rep = an.permutation_robustness(
            model, bundle.test, bundle.normalizer, perms=perms
        )
        assert rep["std"] == 0.0
        assert len(rep["mse_values"]) == 3

    def test_robustness_spread_is_positive_for_single_view(self):
        bundle, model = bundle_and_model(two_view=False)
        rep = an.permutation_robustness(
            model, bundle.test, bundle.normalizer, n_perms=4, seed=1
        )
        assert rep["std"] > 0.0
        assert len(rep["permutations"]) == 4


class TestConsistencyGap:
    def test_zero_for_single_channel(self):
        bundle, model = bundle_and_model(c=1)
        assert an.consistency_gap(model, bundle.test) == 0.0

    def test_positive_at_init_for_multichannel(self):
        bundle, model = bundle_and_model()
        assert an.consistency_gap(model, bundle.test) > 0.0

    def test_single_view_model_rejected(self):
        bundle, model = bundle_and_model(two_view=False)
        with pytest.raises(ValueError, match="two-view"):
            an.consistency_gap(model, bundle.test)


class TestCorrelationPreservation:
    def test_report_shapes_and_range(self):
        bundle, model = bundle_and_model()
        rep = an.correlation_preservation(model, bundle.test)
        assert rep["r_x"].shape == (4, 4)
        assert rep["r_z"].shape == (4, 4)
        assert 0.0 <= rep["mean_abs_offdiag_x"] <= 1.0
        assert rep["gap_mse"] >= 0.0

    def test_seasonal_data_has_high_input_correlation(self):
        bundle, model = bundle_and_model()
        rep = an.correlation_preservation(model, bundle.test)
        assert rep["mean_abs_offdiag_x"] > 0.5


class TestEfficiency:
    def test_report_matches_count_parameters(self):
        _, model = bundle_and_model()
        rep = an.efficiency_report(model)
        assert rep["components"] == md.count_parameters(model)
        assert rep["reference_large_config"]["encoder_cd"] == 3_477_504

    def test_bi_reference_doubles_cd(self):
        _, model = bundle_and_model(direction="bi")
        rep = an.efficiency_report(model)
        assert rep["reference_large_config"]["encoder_cd"] == 6_955_008

    def test_large_config_reference_is_counted_on_the_862_channel_model(self):
        trunk = {"in_projector": 49_664, "encoder_td": 2_104_320, "out_projector": 49_248}
        assert an.large_config_reference("uni") == {**trunk, "encoder_cd": 3_477_504}
        assert an.large_config_reference("bi") == {**trunk, "encoder_cd": 6_955_008}


class TestMissingnessPieces:
    def test_count_inversions(self):
        assert an.count_inversions([1, 2, 3, 4]) == 0
        assert an.count_inversions([1, 3, 2, 4]) == 1
        assert an.count_inversions([4, 3, 2, 1]) == 3
        assert an.count_inversions([1.0, 1.0, 2.0]) == 0

    def test_sweep_smoke(self):
        values = syn.seasonal_series(3, 300, seed=2)
        mcfg = md.ModelConfig(
            lookback=16, horizon=4, n_channels=3, d_model=8, n_layers=1,
            d_state=4, dt_rank=2,
        )
        tcfg = tr.TrainConfig(max_epochs=2, batch_size=64, lr=3e-3, patience=3, seed=0)
        out = an.missingness_sweep(
            values, mcfg, tcfg, rates=(0.0, 0.5), seeds=(0,),
        )
        assert len(out["rows"]) == 2
        assert len(out["averaged"]) == 2
        assert out["averaged"][0]["rate"] == 0.0
        assert all(np.isfinite(r["mse"]) for r in out["rows"])

    def test_sweep_passes_every_train_setting(self, monkeypatch):
        seen = []
        monkeypatch.setattr(an, "train_supervised", lambda m, tr_ds, va_ds, cfg: seen.append(cfg))
        mcfg = md.ModelConfig(
            lookback=16, horizon=4, n_channels=3, d_model=8, n_layers=1,
            d_state=4, dt_rank=2,
        )
        tcfg = tr.TrainConfig(max_epochs=1, restore_best=False, mask_ratio=0.3, seed=9)
        an.missingness_sweep(
            syn.seasonal_series(3, 300, seed=2), mcfg, tcfg, rates=(0.0,), seeds=(4, 5),
        )
        assert [c.seed for c in seen] == [4, 5]
        assert all(not c.restore_best and c.mask_ratio == 0.3 for c in seen)
