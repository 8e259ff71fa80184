"""Diagnostic-function tests on small trained and untrained models."""

import itertools

import numpy as np
import pytest

from sormamba import analysis as an
from sormamba import blocks
from sormamba import data as dt
from sormamba import losses as ls
from sormamba import model as md
from sormamba import scan_kernels
from sormamba import synthetic as syn
from sormamba import training as tr
from sormamba.autodiff import Tensor, no_grad


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

    @pytest.mark.parametrize(
        "kwargs, got",
        [
            (dict(n_perms=0), "n_perms .* got 0"),
            (dict(n_perms=-2), "n_perms .* got -2"),
            (dict(n_perms=True), "n_perms .* got True"),
            (dict(n_perms=2.0), r"n_perms .* got 2\.0"),
            (dict(perms=[]), "got 0"),
        ],
        ids=["0", "-2", "bool", "float", "perms-empty"],
    )
    def test_robustness_rejects_fewer_than_one_permutation(self, kwargs, got):
        bundle, model = bundle_and_model()
        with pytest.raises(ValueError, match=got):
            an.permutation_robustness(model, bundle.test, bundle.normalizer, **kwargs)

    @pytest.mark.parametrize(
        "perm", [[0, 0, 2, 3], [2, 0, 1], [0.0, 1.0, 2.0, 3.0]], ids=["repeat", "short", "float"]
    )
    def test_robustness_rejects_a_non_permutation_by_index(self, perm):
        bundle, model = bundle_and_model()
        perms = [np.arange(4), np.asarray(perm)]
        with pytest.raises(ValueError, match=r"perms\[1\] is not a permutation of 4 channels"):
            an.permutation_robustness(model, bundle.test, bundle.normalizer, perms=perms)


def _permuted_forecast(model, x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The forecast of ``x`` fed in ``perm`` channel order, put back in
    channel order: the contiguous permuted batch through ``forecast``, as
    the orderings were once scored one by one."""
    if np.array_equal(perm, np.arange(len(perm))):
        return model.forecast(Tensor(x))[0].data
    pred, _ = model.forecast(Tensor(np.ascontiguousarray(x[..., perm])))
    return pred.data[..., np.argsort(perm)]


# uni/bi x conv x the four order modes x both discretizations x one or two
# views (bi needs two)
VARIANTS = [
    dict(direction=d, conv=conv, order_mode=mode, discretization=disc, two_view=tv)
    for d, conv, mode, disc, tv in itertools.product(
        blocks.DIRECTIONS, (False, True), blocks.ORDER_MODES, ("euler-b", "zoh-exact"),
        (True, False),
    )
    if d == "uni" or tv
]


def _variant_model(c=5, n_layers=2, **kwargs):
    cfg = md.ModelConfig(
        lookback=16, horizon=4, n_channels=c, d_model=8, n_layers=n_layers, d_state=4,
        dt_rank=2, **kwargs,
    )
    return md.SORMambaModel(cfg, seed=7)


class TestOrderingPass:
    @pytest.mark.parametrize(
        "variant", VARIANTS, ids=["-".join(map(str, v.values())) for v in VARIANTS]
    )
    def test_each_ordering_equals_the_permuted_batch_put_back(self, variant):
        model = _variant_model(**variant)
        rng = np.random.default_rng(3)
        perms = [np.arange(5), np.arange(5)[::-1], rng.permutation(5), rng.permutation(5)]
        for batch in (64, 9, 1):
            x = rng.normal(size=(batch, 16, 5))
            with no_grad():
                got = model.forecast_orderings(Tensor(x), perms)
                for perm, pred in zip(perms, got, strict=True):
                    assert pred.tobytes() == _permuted_forecast(model, x, perm).tobytes()

    @pytest.mark.parametrize(
        "variant", VARIANTS, ids=["-".join(map(str, v.values())) for v in VARIANTS]
    )
    def test_orderings_of_one_key_score_once_and_each_equals_its_own(
        self, variant, monkeypatch
    ):
        # identity, reversed, p, p reversed and identity again: each MSE is
        # the one its ordering alone gives (the 61 test windows are one
        # batch)
        bundle, _ = bundle_and_model(c=5)
        model = _variant_model(**variant)
        p = np.random.default_rng(5).permutation(5)
        perms = [np.arange(5), np.arange(5)[::-1], p, p[::-1], np.arange(5)]
        with no_grad():
            alone = tr.errors_each(
                bundle.test,
                lambda x: [_permuted_forecast(model, x.data, q) for q in perms],
                bundle.normalizer,
                denormalize=True,
            )
        rep = an.permutation_robustness(model, bundle.test, bundle.normalizer, perms=perms)
        assert [v.hex() for v in rep["mse_values"]] == [e["mse"].hex() for e in alone]
        # identity and reversed are of one key (the same walks in every
        # layer) under uni and fixed-reverse with two views, so one pass
        # scores them with one tail per layer; otherwise each ordering runs
        # both layers' tails
        tails = []
        tail = md.SORMambaModel._tail

        def counting(*args):
            tails.append(1)
            return tail(*args)

        monkeypatch.setattr(md.SORMambaModel, "_tail", staticmethod(counting))
        x = Tensor(bundle.test.x[:9])
        model.forecast_orderings(x, [np.arange(5), np.arange(5)[::-1]])
        shared = (variant["direction"], variant["order_mode"], variant["two_view"]) == (
            "uni", "fixed-reverse", True
        )
        assert len(tails) == (2 if shared else 4)

    @staticmethod
    def _reversal_bias_walks(monkeypatch, **variant):
        """Walks per scan_forward call of a reversal_bias on 9 windows."""
        bundle, _ = bundle_and_model()
        model = _variant_model(c=4, **variant)
        ds = dt.WindowedDataset("test", bundle.test.x[:9], bundle.test.y[:9])
        walks = []
        scan_forward = scan_kernels.scan_forward

        def counting(*args):
            walks.append(len(args[-1]))
            return scan_forward(*args)

        monkeypatch.setattr(scan_kernels, "scan_forward", counting)
        an.reversal_bias(model, ds, bundle.normalizer)
        return walks

    def test_reversal_bias_walks_layer_one_once(self, monkeypatch):
        # under uni and fixed-reverse, identity and reversed walk the same
        # two orders in every layer: they share each layer's walks and
        # tail, one two-walk call per layer
        assert self._reversal_bias_walks(monkeypatch, order_mode="fixed-reverse") == [2, 2]

    def test_reversal_bias_under_bi_scores_both_orderings(self, monkeypatch):
        # block 0 walks the identity in one ordering and the reverse in the
        # other, so they share no walk: layer 1 scans two walks per block,
        # then each ordering's layer 2 one per block
        walks = self._reversal_bias_walks(monkeypatch, direction="bi")
        assert walks == [2, 2, 1, 1, 1, 1]

    def test_robustness_in_pairs_equals_each_ordering_alone(self):
        bundle, model = bundle_and_model()
        rep = an.permutation_robustness(model, bundle.test, bundle.normalizer, n_perms=5)
        alone = [
            an.permutation_robustness(model, bundle.test, bundle.normalizer, perms=[p])
            for p in rep["permutations"]
        ]
        assert rep["mse_values"] == [a["mse_values"][0] for a in alone]

    @pytest.mark.parametrize("layer", [0, 1])
    def test_non_finite_scan_names_orderings_and_views(self, layer):
        # each layer's walks are shared: its first walk (identity) is
        # ordering 0's view 0 and the reversed ordering's view 1, and the
        # two orderings share layer 1's tail and so layer 2's input
        model = _variant_model(c=4)
        model.layers[layer].encoder.blocks[0].ssm.w_b.data[0, 0] = np.inf
        x = np.random.default_rng(4).normal(size=(3, 16, 4))
        where = "ordering 0 view 0 and ordering 1 view 1"
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=f"in {where} became non-finite at step 0$"
        ):
            model.forecast_orderings(Tensor(x), [np.arange(4), np.arange(4)[::-1]])

    def test_non_finite_conv_scan_names_the_identity_ordering(self):
        # with the conv, the identity ordering's walk is scanned without a
        # gather, and its error still names the orderings and views it serves
        model = _variant_model(c=4, conv=True)
        model.layers[0].encoder.blocks[0].ssm.w_b.data[0, 0] = np.inf
        x = np.random.default_rng(4).normal(size=(3, 16, 4))
        where = "ordering 0 view 0 and ordering 1 view 1"
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=f"in {where} became non-finite at step 0$"
        ):
            model.forecast_orderings(Tensor(x), [np.arange(4), np.arange(4)[::-1]])

    def test_non_finite_step_is_in_the_walk_order(self):
        # a NaN in channel 2 of one window reaches a walk from the step that
        # reads channel 2: step 0 of [2, 0, 1, 3], step 3 of [1, 3, 0, 2]
        model = _variant_model(c=4, two_view=False)
        x = np.random.default_rng(4).normal(size=(3, 16, 4))
        x[1, 5, 2] = np.nan
        perms = [np.array([2, 0, 1, 3]), np.array([1, 3, 0, 2])]
        for first, step in ((perms, 0), (perms[::-1], 3)):
            with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=f"in ordering 0 became non-finite at step {step}$"
            ):
                model.forecast_orderings(Tensor(x), first)

    @pytest.mark.parametrize("two_view", [True, False])
    @pytest.mark.parametrize("conv", [False, True])
    @pytest.mark.parametrize(
        "perm",
        [[0, 1], [0, 1, 2, 2], [0, 1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0]],
        ids=["short", "repeat", "long", "float"],
    )
    def test_a_non_permutation_is_refused_by_index(self, perm, conv, two_view):
        # a prefix of the identity once passed the conv's identity test and
        # was scored as the identity forecast
        model = _variant_model(c=4, conv=conv, two_view=two_view)
        x = Tensor(np.random.default_rng(4).normal(size=(3, 16, 4)))
        with pytest.raises(ValueError, match=r"^ordering 1 is not a permutation of 4 channels"):
            model.forecast_orderings(x, [np.arange(4), np.asarray(perm)])


def test_order_mses_of_window_views_match_copies():
    bundle, model = bundle_and_model(two_view=False)
    views = bundle.test  # read-only windows over one series
    copies = dt.WindowedDataset(split="test", x=views.x.copy(), y=views.y.copy())
    assert not views.x.flags.writeable and not views.x.flags.c_contiguous

    def mses(ds):
        bias = an.reversal_bias(model, ds, bundle.normalizer)
        perms = [np.array([2, 0, 3, 1])]
        robust = an.permutation_robustness(model, ds, bundle.normalizer, perms=perms)
        return [v.hex() for v in (bias.mse_fwd, bias.mse_rev, *robust["mse_values"])]

    assert mses(views) == mses(copies)


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

    def test_partial_batch_weighs_by_its_windows(self):
        # 73 windows: a batch of 64 and one of 9
        _, model = bundle_and_model()
        x, y = dt.make_windows(syn.seasonal_series(4, 73 + 16 + 4 - 1, seed=1), 16, 4)
        ds = dt.WindowedDataset("test", x, y)

        def layer_mean(x, idx):
            _, pairs = model.encode(x)
            return np.mean([float(ls.reg_distance(z1, z2, "l2").data) for z1, z2 in pairs])

        want = tr.sum_batches(ds, layer_mean, batch_size=len(ds))
        assert an.consistency_gap(model, ds) == pytest.approx(want, rel=1e-12, abs=0)


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
