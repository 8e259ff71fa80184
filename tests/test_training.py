"""Harness tests: optimizer, determinism, early stopping, freeze rules."""

import tracemalloc

import numpy as np
import pytest

from sormamba import analysis as an
from sormamba import data as dt
from sormamba import losses as ls
from sormamba import model as md
from sormamba import synthetic as syn
from sormamba import training as tr
from sormamba.autodiff import Tensor, backward, no_grad, tsum, mul, sqrt, sub


def tiny_bundle(seed=0, t=400, c=3, lookback=16, horizon=4, seasonal=False):
    values = (
        syn.seasonal_series(c, t, seed=seed)
        if seasonal
        else syn.correlated_series(c, t, strength=0.8, seed=seed)
    )
    series = dt.RawSeries(
        name="synthetic",
        values=values,
        channel_names=[f"ch{i}" for i in range(c)],
    )
    return dt.build_splits(series, "ett-pems-solar", lookback, horizon)


def tiny_model(seed=0, **kw):
    base = dict(
        lookback=16, horizon=4, n_channels=3, d_model=8, n_layers=1,
        d_state=4, dt_rank=2,
    )
    base.update(kw)
    return md.SORMambaModel(md.ModelConfig(**base), seed=seed)


FAST = tr.TrainConfig(max_epochs=3, batch_size=64, lr=1e-3, patience=3, seed=0)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", -1.0),
            ("lr", 0),
            ("lr", "fast"),
            ("lr", float("inf")),
            ("lr", True),
            ("seed", "abc"),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", False),
            ("max_epochs", True),
            ("max_epochs", 0),
            ("batch_size", 2.0),
            ("patience", "3"),
            ("mask_ratio", "half"),
            ("mask_ratio", 1.0),
            ("restore_best", "no"),
            ("restore_best", "false"),
            ("restore_best", 0),
        ],
    )
    def test_rejects_bad_value_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            tr.TrainConfig(**{field: value})

    def test_accepts_an_int_lr(self):
        assert tr.TrainConfig(lr=1).lr == 1


class TestAdam:
    def test_single_step_matches_hand_calculation(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = tr.Adam([p], lr=1e-3)
        p.grad = np.array([0.5])
        opt.step()
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 1.0 - 1e-3 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert p.data[0] == pytest.approx(expected, abs=1e-15)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = tr.Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            diff = sub(p, Tensor(np.array([3.0])))
            backward(tsum(mul(diff, diff)))
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-3)

    def test_none_grads_are_skipped(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        opt = tr.Adam([a, b], lr=0.5)
        a.grad = np.array([1.0])
        opt.step()
        assert a.data[0] != 1.0
        assert b.data[0] == 2.0

    def test_three_steps_match_the_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(5)
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in ((4, 3), (5,), (1,))]
        frozen = Tensor(rng.normal(size=3), requires_grad=True)  # its grad stays None
        opt = tr.Adam(params + [frozen], lr=0.01)
        frozen_bytes = frozen.data.tobytes()
        b1, b2, eps = 0.9, 0.999, 1e-8
        data = [p.data.copy() for p in params]
        m = [np.zeros_like(d) for d in data]
        v = [np.zeros_like(d) for d in data]
        for t in (1, 2, 3):
            grads = [rng.normal(size=d.shape) for d in data]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            # the textbook update, written out
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * (g * g)
                m_hat, v_hat = m[i] / (1 - b1**t), v[i] / (1 - b2**t)
                data[i] = data[i] - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        for p, want in zip(params, data):
            assert p.data.tobytes() == want.tobytes()
        assert frozen.data.tobytes() == frozen_bytes

    def test_restore_after_steps_gives_the_snapshot(self):
        rng = np.random.default_rng(6)
        params = [Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(2)]
        snap = tr._snapshot(params)
        want = [s.tobytes() for s in snap]
        opt = tr.Adam(params, lr=0.1)
        for _ in range(3):
            for p in params:
                p.grad = rng.normal(size=p.shape)
            opt.step()
        assert all(p.data.tobytes() != w for p, w in zip(params, want))
        assert [s.tobytes() for s in snap] == want  # the steps left the snapshot alone
        tr._restore(params, snap)
        assert [p.data.tobytes() for p in params] == want

    def test_restore_best_after_later_in_place_steps(self):
        # Adam writes p.data in place, so the best epoch's snapshot must not
        # share memory with a parameter that later epochs go on stepping
        model = tiny_model()
        named = model.named_parameters(exclude_prefixes=("ccm.", "rec."))
        params = [t for _, t in named]
        x = Tensor(np.random.default_rng(8).normal(size=(4, 16, 3)))
        scripted = iter([3.0, 1.0, 2.0, 2.5])  # epoch 1 is the best
        seen = []

        def val_loss():
            seen.append([p.data.tobytes() for p in params])
            return next(scripted)

        def batch_loss(idx, rng):
            pred, _ = model.forecast(x)
            return tsum(mul(pred, pred))

        cfg = tr.TrainConfig(max_epochs=4, batch_size=4, lr=1e-2, patience=4, seed=0)
        result = tr._fit(model, params, cfg, batch_loss, val_loss, n_train=4)
        assert result.best_epoch == 1
        assert seen[1] != seen[3]
        assert [p.data.tobytes() for p in params] == seen[1]


class TestBatching:
    def test_covers_every_index_once(self):
        seen = np.concatenate(list(tr.iterate_batches(10, 3, None)))
        np.testing.assert_array_equal(np.sort(seen), np.arange(10))

    def test_shuffle_is_seeded(self):
        a = np.concatenate(list(tr.iterate_batches(20, 7, np.random.default_rng(1))))
        b = np.concatenate(list(tr.iterate_batches(20, 7, np.random.default_rng(1))))
        np.testing.assert_array_equal(a, b)
        c = np.concatenate(list(tr.iterate_batches(20, 7, np.random.default_rng(2))))
        assert not np.array_equal(a, c)


class TestSupervised:
    def test_loss_improves_and_result_is_restored(self):
        bundle = tiny_bundle()
        model = tiny_model()
        cfg = tr.TrainConfig(max_epochs=4, batch_size=64, lr=3e-3, patience=4, seed=0)
        result = tr.train_supervised(model, bundle.train, bundle.val, cfg)
        assert result.best_val < result.epochs[0].val_loss or result.best_epoch == 0
        # restored parameters must reproduce the best validation loss, which
        # is the normalized MSE at the evaluation batch size
        revalidated = tr.evaluate(model, bundle.val, denormalize=False)["mse"]
        assert revalidated == pytest.approx(result.best_val, rel=1e-12)

    def test_training_is_bitwise_deterministic(self):
        bundle = tiny_bundle()
        fingerprints = []
        for _ in range(2):
            model = tiny_model(seed=3)
            tr.train_supervised(model, bundle.train, bundle.val, FAST)
            fingerprints.append(md.parameter_fingerprint(model))
        assert fingerprints[0] == fingerprints[1]

    def test_early_stopping_stops(self):
        # unlearnable pure-noise targets with an aggressive learning rate
        rng = np.random.default_rng(0)
        train = dt.WindowedDataset("train", rng.normal(size=(64, 16, 3)), rng.normal(size=(64, 4, 3)))
        val = dt.WindowedDataset("val", rng.normal(size=(32, 16, 3)), rng.normal(size=(32, 4, 3)))
        model = tiny_model()
        cfg = tr.TrainConfig(max_epochs=40, batch_size=32, lr=0.05, patience=1, seed=0)
        result = tr.train_supervised(model, train, val, cfg)
        assert result.stopped_early
        assert len(result.epochs) < 40

    def test_consistency_penalty_enters_training(self):
        bundle = tiny_bundle()
        plain = tiny_model(seed=1, reg_weight=0.0)
        tr.train_supervised(plain, bundle.train, bundle.val, FAST)
        penalized = tiny_model(seed=1, reg_weight=0.5)
        tr.train_supervised(penalized, bundle.train, bundle.val, FAST)
        assert md.parameter_fingerprint(plain) != md.parameter_fingerprint(penalized)

    def test_nonfinite_gradient_names_parameter_before_the_step(self):
        # sqrt at 0: the loss is a finite 0, its gradient infinite
        model = tiny_model()
        named = dict(model.param_items())
        bias = named["head.b"]
        bias.data = np.zeros_like(bias.data)
        before = md.parameter_fingerprint(model)
        cfg = tr.TrainConfig(max_epochs=1, batch_size=8, seed=0)
        with np.errstate(divide="ignore"):
            with pytest.raises(
                FloatingPointError, match=r"head\.b at epoch 0, batch 0"
            ):
                tr._fit(
                    model, list(named.values()), cfg,
                    lambda idx, rng: tsum(sqrt(bias)), lambda: 0.0, n_train=16,
                )
        assert md.parameter_fingerprint(model) == before

    def test_nonfinite_validation_loss_raises(self):
        # one huge reading in the validation rows makes every epoch's
        # validation MSE overflow, so no epoch could become the best one
        values = syn.correlated_series(3, 600)
        values[420, 0] = 1e200
        series = dt.RawSeries(name="huge", values=values, channel_names=["a", "b", "c"])
        bundle = dt.build_splits(series, "ett-pems-solar", 24, 6)
        model = tiny_model(lookback=24, horizon=6)
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="validation loss inf at epoch 0"):
                tr.train_supervised(model, bundle.train, bundle.val, FAST)


class TestFreezeRules:
    def test_fit_names_a_frozen_parameter_that_moved(self):
        model = tiny_model()
        named = dict(model.param_items())
        bias = named["head.b"]
        trunk = [t for n, t in named.items() if not n.startswith("head.")]
        loss = tsum(mul(trunk[0], trunk[0]))

        def batch_loss(idx, rng):
            bias.data = bias.data + 1e-12  # behind the optimizer's back
            return loss

        cfg = tr.TrainConfig(max_epochs=1, batch_size=8, seed=0)
        with pytest.raises(AssertionError, match=r"frozen parameters: head\.b$"):
            tr._fit(model, trunk, cfg, batch_loss, lambda: 0.0, n_train=8)

    def test_linear_probe_freezes_trunk(self):
        bundle = tiny_bundle()
        model = tiny_model()
        trunk = md.parameter_fingerprint(model, prefixes=("embed.", "layer"))
        head = md.parameter_fingerprint(model, prefixes=("head.",))
        tr.linear_probe(model, bundle.train, bundle.val, FAST)
        assert md.parameter_fingerprint(model, prefixes=("embed.", "layer")) == trunk
        assert md.parameter_fingerprint(model, prefixes=("head.",)) != head

    def test_linear_probe_builds_no_trunk_gradient(self):
        bundle = tiny_bundle()
        model = tiny_model()
        tr.linear_probe(model, bundle.train, bundle.val, FAST)
        assert [n for n, t in model.param_items() if t.grad is not None] == ["head.w", "head.b"]
        # the trunk takes gradients again once the probe is done
        assert all(t.requires_grad for t in model.parameters())

    @pytest.mark.parametrize("fails", [False, True])
    def test_fit_restores_every_gradient_flag(self, fails):
        model = tiny_model()
        named = dict(model.param_items())
        named["layer0.ln1.gain"].requires_grad = False
        flags = {n: t.requires_grad for n, t in named.items()}
        head = [named["head.w"], named["head.b"]]
        seen = []

        def batch_loss(idx, rng):
            seen.append({n: t.requires_grad for n, t in named.items()})
            if fails:
                raise RuntimeError("batch failed")
            return tsum(mul(head[1], head[1]))

        cfg = tr.TrainConfig(max_epochs=1, batch_size=8, seed=0)
        if fails:
            with pytest.raises(RuntimeError, match="batch failed"):
                tr._fit(model, head, cfg, batch_loss, lambda: 0.0, n_train=8)
        else:
            tr._fit(model, head, cfg, batch_loss, lambda: 0.0, n_train=8)
        assert seen[0] == {n: n.startswith("head.") for n in named}
        assert {n: t.requires_grad for n, t in named.items()} == flags

    @pytest.mark.parametrize("mode", ["ccm", "mm", "rec"])
    def test_pretraining_leaves_forecast_head_untouched(self, mode):
        bundle = tiny_bundle()
        model = tiny_model()
        head = md.parameter_fingerprint(model, prefixes=("head.",))
        trunk = md.parameter_fingerprint(model, prefixes=("embed.", "layer"))
        cfg = tr.TrainConfig(max_epochs=2, batch_size=64, lr=1e-3, patience=3, seed=0)
        result = tr.pretrain(model, bundle.train, bundle.val, cfg, mode=mode)
        assert md.parameter_fingerprint(model, prefixes=("head.",)) == head
        assert md.parameter_fingerprint(model, prefixes=("embed.", "layer")) != trunk
        assert np.isfinite(result.best_val)

    def test_ccm_pretraining_reduces_its_loss(self):
        bundle = tiny_bundle()
        model = tiny_model()
        target = ls.global_corr(dt.series_from_windows(bundle.train.x))
        z0 = model.latent_for_ccm(Tensor(bundle.train.x[:64]))
        before = float(ls.ccm_loss(z0, target).data)
        cfg = tr.TrainConfig(max_epochs=5, batch_size=64, lr=3e-3, patience=5, seed=0)
        tr.pretrain(model, bundle.train, bundle.val, cfg, mode="ccm")
        z1 = model.latent_for_ccm(Tensor(bundle.train.x[:64]))
        after = float(ls.ccm_loss(z1, target).data)
        assert after < before

    @pytest.mark.parametrize("mode", tr.PRETEXT_MODES)
    def test_pretrain_validation_weighs_each_window_once(self, mode):
        # 48 training windows are one batch at batch size 64 or 73, so both
        # runs train alike; 73 validation windows are 64 + 9 at batch size 64
        def windows(n, seed):
            x, y = dt.make_windows(syn.seasonal_series(3, n + 16 + 4 - 1, seed=seed), 16, 4)
            return dt.WindowedDataset("val", x, y)

        train, val = windows(48, 0), windows(73, 1)
        val_losses = [
            tr.pretrain(tiny_model(), train, val, tr.TrainConfig(max_epochs=1, batch_size=b), mode)
            .epochs[0].val_loss
            for b in (64, 73)
        ]
        assert val_losses[0] == pytest.approx(val_losses[1], rel=1e-12, abs=0)

    def test_unknown_pretext_mode(self):
        bundle = tiny_bundle()
        with pytest.raises(ValueError, match="mode"):
            tr.pretrain(tiny_model(), bundle.train, bundle.val, FAST, mode="jigsaw")


class TestEvaluate:
    def test_denormalization_scales_metrics(self):
        bundle = tiny_bundle()
        model = tiny_model()
        norm_metrics = tr.evaluate(model, bundle.test, denormalize=False)
        scaled = dt.Normalizer(mean=np.zeros(3), std=np.full(3, 2.0))
        denorm_metrics = tr.evaluate(model, bundle.test, normalizer=scaled)
        assert denorm_metrics["mse"] == pytest.approx(4.0 * norm_metrics["mse"], rel=1e-12)
        assert denorm_metrics["mae"] == pytest.approx(2.0 * norm_metrics["mae"], rel=1e-12)

    def test_denormalize_requires_normalizer(self):
        bundle = tiny_bundle()
        with pytest.raises(ValueError, match="normalizer"):
            tr.evaluate(tiny_model(), bundle.test)

    @pytest.mark.parametrize(
        "reader",
        ["evaluate", "reversal_bias", "permutation_robustness", "correlation_preservation"],
    )
    def test_errors_are_summed_one_batch_at_a_time(self, reader):
        # 8 batches of 64 windows, and the first of them alone: holding the
        # whole split would be 9 MiB per [512, 96, 24] array of forecasts and
        # 2.4 MiB per [512, 24, 24] array of Pearson matrices
        lookback, horizon, c = 16, 96, 24
        values = np.random.default_rng(5).normal(size=(8 * 64 + lookback + horizon - 1, c))
        x, y = dt.make_windows(values, lookback, horizon)
        eight = dt.WindowedDataset("test", x, y)
        one = dt.WindowedDataset("test", x[:64], y[:64])
        norm = dt.Normalizer(mean=np.linspace(-1.0, 1.0, c), std=np.linspace(0.5, 2.0, c))
        model = tiny_model(horizon=horizon, n_channels=c)
        read = {
            "evaluate": lambda ds: tr.evaluate(model, ds, norm),
            "reversal_bias": lambda ds: an.reversal_bias(model, ds, norm),
            "permutation_robustness": lambda ds: an.permutation_robustness(
                model, ds, norm, n_perms=2
            ),
            "correlation_preservation": lambda ds: an.correlation_preservation(model, ds),
        }[reader]
        read(one)  # the scan workspace, kept across calls

        def peak(ds):
            tracemalloc.start()
            try:
                read(ds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(eight) < 2 * peak(one)
        if reader != "evaluate":
            return
        # the same numbers as the mean over the concatenated forecasts
        with no_grad():
            parts = [model.forecast(Tensor(x[i : i + 64]))[0].data for i in range(0, len(x), 64)]
        d = norm.inverse(np.concatenate(parts)) - norm.inverse(eight.y)
        metrics = tr.evaluate(model, eight, norm)
        assert metrics["mse"] == pytest.approx(np.mean(d * d), rel=1e-14, abs=0)
        assert metrics["mae"] == pytest.approx(np.mean(np.abs(d)), rel=1e-14, abs=0)

    def test_batches_are_read_only_views_of_the_dataset(self):
        # 73 windows: a batch of 64 and one of 9, each read in place
        x = np.random.default_rng(6).normal(size=(73, 16, 3))
        ds = dt.WindowedDataset("test", x, x[:, :4])
        seen = []

        def fn(batch, rows):
            assert np.shares_memory(batch.data, ds.x)
            np.testing.assert_array_equal(batch.data, ds.x[rows])
            with pytest.raises(ValueError, match="read-only"):
                batch.data[0, 0, 0] = 0.0
            seen.append(batch.shape[0])
            return 0.0

        tr.sum_batches(ds, fn)
        assert seen == [64, 9]
        assert x.flags.writeable

    def test_strided_windows_read_as_their_copy(self):
        # make_windows' windows are overlapping strided views; evaluation
        # reads them in place and must give what it gives on a copy
        lookback, horizon, c = 16, 4, 3
        values = syn.correlated_series(c, 73 + lookback + horizon - 1, strength=0.8, seed=2)
        x, y = dt.make_windows(values, lookback, horizon)
        strided = dt.WindowedDataset("test", x, y)
        copied = dt.WindowedDataset("test", x.copy(), y.copy())
        assert not strided.x.flags.c_contiguous and copied.x.flags.c_contiguous
        norm = dt.Normalizer(mean=np.linspace(-1.0, 1.0, c), std=np.linspace(0.5, 2.0, c))
        model = tiny_model(n_layers=2, reg_weight=0.1)

        def reads(ds):
            metrics = tr.evaluate(model, ds, norm)
            gap = an.consistency_gap(model, ds)
            return [v.hex() for v in (metrics["mse"], metrics["mae"], gap)]

        assert reads(strided) == reads(copied)

    def test_a_forecast_listed_twice_is_scored_once(self):
        # orderings that share a forecast array share its errors too
        x = np.random.default_rng(6).normal(size=(73, 16, 3))
        ds = dt.WindowedDataset("test", x, x[:, :4])
        norm = dt.Normalizer(mean=np.linspace(-1.0, 1.0, 3), std=np.linspace(0.5, 2.0, 3))
        inverses = []
        inverse = norm.inverse

        def counting(values):
            inverses.append(1)
            return inverse(values)

        norm.inverse = counting
        shared = tr.errors_each(
            ds, lambda b: [b.data[:, :4]] * 2 + [b.data[:, 1:5]], norm, denormalize=True
        )
        # per batch: the targets, the shared forecast and the other one
        assert len(inverses) == 2 * 3
        norm.inverse = inverse
        apart = tr.errors_each(
            ds, lambda b: [b.data[:, :4].copy(), b.data[:, :4], b.data[:, 1:5]], norm, True
        )
        assert shared == apart and shared[0] == shared[1] != shared[2]

    def test_non_finite_evaluation_names_its_view_and_no_ordering(self):
        # evaluation reads the forecast as given, so its error reads as
        # forecast's does: the view, and no ordering
        bundle = tiny_bundle()
        model = tiny_model()
        model.layers[0].encoder.blocks[0].ssm.w_b.data[0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="^scan output in view 0 became non-finite at step 0$"
        ):
            tr.evaluate(model, bundle.test, bundle.normalizer)

    def test_last_value_baseline_is_exact_on_constant_series(self):
        x = np.ones((5, 16, 2))
        y = np.ones((5, 4, 2))
        ds = dt.WindowedDataset("test", x, y)
        metrics = tr.last_value_baseline(ds, denormalize=False)
        assert metrics["mse"] == 0.0 and metrics["mae"] == 0.0

    def test_trained_model_beats_last_value_baseline(self):
        bundle = tiny_bundle(seasonal=True)
        model = tiny_model()
        cfg = tr.TrainConfig(max_epochs=10, batch_size=64, lr=3e-3, patience=10, seed=0)
        tr.train_supervised(model, bundle.train, bundle.val, cfg)
        ours = tr.evaluate(model, bundle.test, bundle.normalizer)
        naive = tr.last_value_baseline(bundle.test, bundle.normalizer)
        assert ours["mse"] < naive["mse"]


class TestReporting:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        records = [{"epoch": 0, "val": 1.5, "seconds": 0.01}, {"epoch": 1, "val": 1.2}]
        tr.write_jsonl(path, records)
        assert tr.read_jsonl(path) == records

    def test_summary_csv_is_byte_stable(self, tmp_path):
        rows = [{"dataset": "synthetic", "mse": 0.5, "mae": 0.25}]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        tr.write_summary_csv(p1, rows)
        tr.write_summary_csv(p2, rows)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_summary_csv_rejects_timing_columns(self, tmp_path):
        with pytest.raises(ValueError, match="JSONL"):
            tr.write_summary_csv(str(tmp_path / "c.csv"), [{"mse": 1.0, "seconds": 3.0}])
