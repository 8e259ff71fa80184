"""Model-level tests: shapes, symmetry, accounting, checkpoints."""

import numpy as np
import pytest

from sormamba import model as md
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
