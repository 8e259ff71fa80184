"""Model-level tests: shapes, symmetry, accounting, tape size, checkpoints."""

import gc
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sormamba import autodiff as ad
from sormamba import data as dt
from sormamba import losses
from sormamba import model as md
from sormamba import training as tr
from sormamba.autodiff import Tensor, backward, tmean, mul, sub


def make_model(seed=0, **overrides):
    kw = dict(
        lookback=8,
        horizon=4,
        n_channels=5,
        d_model=6,
        n_layers=2,
        d_state=4,
        dt_rank=2,
    )
    kw.update(overrides)
    return md.SORMambaModel(md.ModelConfig(**kw), seed=seed)


def make_batch(model, n=3, seed=0):
    cfg = model.config
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(n, cfg.lookback, cfg.n_channels)))


class TestForward:
    def test_forecast_shape_and_units(self):
        model = make_model()
        x = make_batch(model)
        y, pairs = model.forecast(x)
        assert y.shape == (3, 4, 5)
        assert len(pairs) == model.config.n_layers
        assert np.all(np.isfinite(y.data))

    def test_single_view_has_no_pairs(self):
        model = make_model(two_view=False)
        _, pairs = model.forecast(make_batch(model))
        assert pairs == []

    def test_side_head_shapes(self):
        model = make_model()
        x = make_batch(model)
        assert model.latent_for_ccm(x).shape == (3, 5, 6)
        assert model.reconstruct(x).shape == (3, 8, 5)

    def test_input_validation(self):
        model = make_model()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="expected input"):
            model.forecast(Tensor(rng.normal(size=(3, 7, 5))))
        with pytest.raises(ValueError, match="expected input"):
            model.forecast(Tensor(rng.normal(size=(3, 8, 6))))

    def test_embedding_tokens_follow_channel_permutation(self):
        model = make_model()
        x = make_batch(model)
        perm = np.random.default_rng(1).permutation(5)
        tok = model._tokens(x).data
        tok_perm = model._tokens(Tensor(x.data[:, :, perm])).data
        np.testing.assert_array_equal(tok_perm, tok[:, perm, :])

    def test_shift_invariance_of_instance_norm(self):
        model = make_model()
        x = make_batch(model)
        y, _ = model.forecast(x)
        y_shift, _ = model.forecast(Tensor(x.data + 5.0))
        np.testing.assert_allclose(y_shift.data, y.data + 5.0, rtol=0, atol=1e-9)

    def test_instance_norm_off_changes_output(self):
        on = make_model()
        off = make_model(instance_norm=False)
        x = make_batch(on)
        x_scaled = Tensor(x.data * 3.0 + 10.0)
        y_on = on.forecast(x_scaled)[0].data
        y_off = off.forecast(x_scaled)[0].data
        assert not np.allclose(y_on, y_off)


@pytest.mark.parametrize(
    "overrides, where",
    [
        (dict(direction="uni", conv=False), " in view 0"),
        (dict(direction="uni", conv=True), " in view 0"),
        (dict(direction="bi", conv=False), " in view 0"),
        (dict(direction="bi", conv=True), " in view 0"),
        (dict(two_view=False), ""),
    ],
)
def test_non_finite_training_scan_names_its_view(overrides, where):
    # block 0 scans view 0 first under uni and only view 0 under bi; a
    # one-view model has no view to name
    model = make_model(**overrides)
    model.layers[0].encoder.blocks[0].ssm.w_b.data[0, 0] = np.inf
    with np.errstate(all="ignore"), pytest.raises(
        FloatingPointError, match=f"^scan output{where} became non-finite at step 0$"
    ):
        model.forecast(make_batch(model), rng=np.random.default_rng(1))


class TestReversalSymmetry:
    def test_uni_two_view_is_exactly_reversal_equivariant(self):
        model = make_model(direction="uni", n_layers=2)
        x = make_batch(model)
        y, _ = model.forecast(x)
        y_rev, _ = model.forecast(Tensor(x.data[:, :, ::-1].copy()))
        np.testing.assert_array_equal(y_rev.data, y.data[:, :, ::-1])

    def test_bi_breaks_reversal_equivariance_at_init(self):
        model = make_model(direction="bi")
        x = make_batch(model)
        y, _ = model.forecast(x)
        y_rev, _ = model.forecast(Tensor(x.data[:, :, ::-1].copy()))
        assert not np.allclose(y_rev.data, y.data[:, :, ::-1])

    def test_single_view_breaks_reversal_equivariance(self):
        model = make_model(two_view=False)
        x = make_batch(model)
        y, _ = model.forecast(x)
        y_rev, _ = model.forecast(Tensor(x.data[:, :, ::-1].copy()))
        assert not np.allclose(y_rev.data, y.data[:, :, ::-1])

    def test_views_agree_exactly_for_one_channel(self):
        model = make_model(n_channels=1)
        x = make_batch(model)
        _, pairs = model.forecast(x)
        for z1, z2 in pairs:
            np.testing.assert_array_equal(z1.data, z2.data)


class TestAccounting:
    def test_total_matches_registry(self):
        model = make_model()
        counts = md.count_parameters(model)
        assert counts["total"] == sum(t.size for t in model.parameters())

    def test_bi_doubles_only_the_cd_encoder(self):
        uni = md.count_parameters(make_model(direction="uni"))
        bi = md.count_parameters(make_model(direction="bi"))
        assert bi["encoder_cd"] == 2 * uni["encoder_cd"]
        for key in ("in_projector", "encoder_td", "out_projector", "ccm_head", "recon_head"):
            assert bi[key] == uni[key]

    def test_large_config_component_counts(self):
        model = make_model(
            lookback=96,
            horizon=96,
            n_channels=8,
            d_model=512,
            n_layers=2,
            d_state=32,
            dt_rank=32,
            mlp_hidden=1024,
        )
        counts = md.count_parameters(model)
        assert counts["in_projector"] == 49_664
        assert counts["encoder_cd"] == 3_477_504
        assert counts["encoder_td"] == 2_104_320
        assert counts["out_projector"] == 49_248

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            md.ModelConfig.from_dict({"lookback": 8, "horizon": 4, "n_channels": 2, "bogus": 1})


@pytest.mark.parametrize(
    "field", ["expand", "d_state", "conv_kernel", "dt_rank", "mlp_hidden"]
)
@pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, True])
def test_size_fields_must_be_positive_ints(field, value):
    # a bad size names its field before any array is built
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        md.ModelConfig(lookback=8, horizon=3, n_channels=2, d_model=4, **{field: value})


@pytest.mark.parametrize("field", ["conv", "two_view", "instance_norm"])
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_switches_must_be_bools(field, value):
    # a quoted "false" from a config file is truthy: it must not turn a
    # switch on
    with pytest.raises(ValueError, match=f"{field} must be true or false"):
        md.ModelConfig(lookback=8, horizon=3, n_channels=2, **{field: value})


def test_bi_direction_needs_two_views():
    # one view runs only the first block, so the second would never train
    with pytest.raises(ValueError, match="direction='bi' needs two_view=True"):
        md.ModelConfig(lookback=8, horizon=3, n_channels=2, direction="bi", two_view=False)


def test_optional_sizes_resolve_when_unset():
    cfg = md.ModelConfig(lookback=8, horizon=3, n_channels=2, d_model=40)
    assert (cfg.resolved_dt_rank, cfg.resolved_mlp_hidden) == (3, 80)
    cfg = md.ModelConfig(lookback=8, horizon=3, n_channels=2, d_model=40, dt_rank=1, mlp_hidden=5)
    assert (cfg.resolved_dt_rank, cfg.resolved_mlp_hidden) == (1, 5)


class TestGradients:
    def test_forecast_loss_reaches_trunk_but_not_side_heads(self):
        model = make_model(n_layers=1)
        x = make_batch(model)
        y, _ = model.forecast(x)
        target = Tensor(np.zeros_like(y.data))
        backward(tmean(mul(sub(y, target), sub(y, target))))
        named = dict(model.param_items())
        for name in ("embed.w", "head.w", "layer0.enc.block0.in_proj.x", "layer0.mlp.w1"):
            assert named[name].grad is not None and np.any(named[name].grad != 0), name
        for name in ("ccm.w", "ccm.b", "rec.w", "rec.b"):
            assert named[name].grad is None, name


def _bitcheck():
    """``tools/bitcheck.py`` as a module, for the measures it prints."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"
    spec = importlib.util.spec_from_file_location("bitcheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTapeMemory:
    def test_recorded_loss_tape_at_train_solar_shape_holds_at_most_22_mib(self):
        # C=137, D=64, L=H=96, two layers, batch 8: the fused ops keep no
        # pre-activation, the views' sum keeps nothing and the embedding and
        # head keep no matmul output (33.1 MiB when they did)
        cfg = md.ModelConfig(
            lookback=96, horizon=96, n_channels=137, d_model=64, n_layers=2, reg_weight=0.1
        )
        model = md.SORMambaModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        pred, pairs = model.forecast(Tensor(rng.normal(size=(8, 96, 137))))
        target = rng.normal(size=pred.shape)
        loss = losses.total_loss(pred, target, pairs, cfg.reg_weight, cfg.reg_metric).total
        # bitcheck's tape-mib line: each recorded node's value and the
        # arrays its vjp closes over, each byte counted once
        assert _bitcheck().tape_mib(ad._ordered_tape(loss)) <= 22

    @staticmethod
    def _tape_mib(batch, **overrides):
        cfg = md.ModelConfig(
            lookback=96, horizon=96, d_model=64, n_layers=2, reg_weight=0.1, **overrides
        )
        model = md.SORMambaModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        pred, pairs = model.forecast(Tensor(rng.normal(size=(batch, 96, cfg.n_channels))))
        target = rng.normal(size=pred.shape)
        loss = losses.total_loss(pred, target, pairs, cfg.reg_weight, cfg.reg_metric).total
        return _bitcheck().tape_mib(ad._ordered_tape(loss))

    def test_train_solar_tape_keeps_no_block_interior(self):
        # each block keeps only its input, the scans' y and its outputs:
        # 14.1 MiB at train-solar's shape, 21.2 when pre's outputs were kept
        assert self._tape_mib(8, n_channels=137) <= 16

    def test_train_solar_tape_keeps_no_layer_tail(self):
        # each layer keeps z, the scans' y, the view outputs and its output:
        # 10.7 MiB at train-solar's shape, 14.1 when the views' sum, the
        # first LayerNorm and the MLP were kept, and the loss no target
        assert self._tape_mib(8, n_channels=137) <= 11.5

    def test_conv_tape_keeps_no_tap(self):
        # C=21, batch 16: the conv's gathers, taps and SiLU live only in the
        # block's backward, 4.5 MiB as without the conv (28.0 when they were
        # kept)
        assert self._tape_mib(16, n_channels=21, conv=True) <= 8


class TestReadMemory:
    """The read path at the analyze-weather shape (C=21, D=64, zoh-exact, two
    layers, L=H=96, batch 64) holds, at each moment, only what its next op
    reads: the batch as a view, no normalized input, no view pairs, and
    each walk's y only until its ``post``."""

    @staticmethod
    def _weather():
        cfg = md.ModelConfig(
            lookback=96, horizon=96, n_channels=21, d_model=64, n_layers=2, reg_weight=0.1,
            discretization="zoh-exact",
        )
        model = md.SORMambaModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        x, y = (rng.normal(size=(64, 96, 21)) for _ in range(2))
        ds = dt.WindowedDataset("test", x, y)
        norm = dt.Normalizer(mean=rng.normal(size=21), std=rng.uniform(0.5, 2.0, size=21))
        return model, ds, norm

    @staticmethod
    def _peak_mib(fn):
        # as the benchmark traces a step: above the level when fn starts
        fn()  # the scan workspace, kept across calls
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()

    def test_one_evaluate_batch_peaks_at_most_8_5_mib(self):
        # 7.92 MiB; 11.86 when the batch was copied, the normalized input and
        # the view pairs were kept through the layers and all walks' y until
        # the last post
        model, ds, norm = self._weather()
        assert self._peak_mib(lambda: tr.evaluate(model, ds, norm)) <= 8.5

    def test_two_orderings_in_one_pass_peak_at_most_11_5_mib(self):
        # 10.54 MiB; 13.50 before
        model, ds, _ = self._weather()
        rng = np.random.default_rng(1)
        perms = [rng.permutation(21), rng.permutation(21)]
        x = Tensor(ds.x)
        assert self._peak_mib(lambda: model.forecast_orderings(x, perms)) <= 11.5

    def test_forecast_keeps_its_view_pairs_without_a_tape(self):
        model = make_model()
        with ad.no_grad():
            pred, pairs = model.forecast(make_batch(model))
        assert len(pairs) == model.config.n_layers
        assert all(len(pair) == 2 and pair[0].shape == (3, 5, 6) for pair in pairs)
        assert not pred.requires_grad


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        model = make_model(seed=11, direction="bi", conv=True)
        path = str(tmp_path / "model.npz")
        md.save_checkpoint(model, path)
        loaded = md.load_checkpoint(path)
        assert loaded.config == model.config
        x = make_batch(model)
        np.testing.assert_array_equal(
            loaded.forecast(x)[0].data, model.forecast(x)[0].data
        )
        for (na, ta), (nb, tb) in zip(model.param_items(), loaded.param_items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a model checkpoint"):
            md.load_checkpoint(path)

    def test_fingerprint_tracks_subsets(self):
        model = make_model()
        trunk_before = md.parameter_fingerprint(model, prefixes=("embed.", "layer"))
        head_before = md.parameter_fingerprint(model, prefixes=("head.",))
        model.w_head.data = model.w_head.data + 1.0
        assert md.parameter_fingerprint(model, prefixes=("head.",)) != head_before
        assert md.parameter_fingerprint(model, prefixes=("embed.", "layer")) == trunk_before
