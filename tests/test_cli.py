"""End-to-end checks of the command-line interface.

Everything runs in-process through ``cli.main(argv)`` so exit codes and
filesystem effects are observable without subprocesses.
"""

import copy
import csv
import hashlib
import json

import numpy as np
import pytest
import yaml

from sormamba import cli

BASE_CONFIG = {
    "run_name": "run",
    "dataset": {
        "kind": "synthetic-seasonal",
        "name": "seasonal4",
        "channels": 4,
        "length": 600,
        "seed": 3,
    },
    "model": {
        "lookback": 32,
        "horizon": 8,
        "d_model": 16,
        "d_state": 4,
        "n_layers": 1,
        "reg_weight": 0.1,
    },
    "train": {"max_epochs": 2, "batch_size": 64, "lr": 0.003, "seed": 0},
}


def write_config(path, mutate=None):
    cfg = copy.deepcopy(BASE_CONFIG)
    if mutate:
        mutate(cfg)
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One trained run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("trained")
    config = write_config(root / "exp.yaml")
    rc = cli.main(["train", "--config", config, "--out-root", str(root / "out")])
    assert rc == 0
    return {
        "config": config,
        "out_root": str(root / "out"),
        "run_dir": root / "out" / "run",
        "checkpoint": str(root / "out" / "run" / "checkpoint.npz"),
    }


def test_prepare_data_writes_report_and_config(tmp_path, capsys):
    config = write_config(tmp_path / "exp.yaml")
    rc = cli.main(["prepare-data", "--config", config, "--out-root", str(tmp_path / "o")])
    assert rc == 0
    run_dir = tmp_path / "o" / "run"
    assert (run_dir / "resolved_config.yaml").exists()
    report = json.loads((run_dir / "dataset_report.json").read_text())
    assert report["n_channels"] == 4
    assert report["usable_sizes"] == [329, 89, 89]
    rows = read_csv(run_dir / "splits.csv")
    assert [r["split"] for r in rows] == ["train", "val", "test"]
    assert "usable sizes" in capsys.readouterr().out


def test_train_writes_artifacts(trained):
    run_dir = trained["run_dir"]
    for name in ("checkpoint.npz", "train_log.jsonl", "summary.csv", "resolved_config.yaml"):
        assert (run_dir / name).exists(), name
    rows = read_csv(run_dir / "summary.csv")
    assert len(rows) == 1
    assert float(rows[0]["test_mse"]) > 0
    # wall-clock timings live in the jsonl log only
    assert "seconds" not in rows[0]
    log = [json.loads(l) for l in (run_dir / "train_log.jsonl").read_text().splitlines()]
    assert all("seconds" in rec for rec in log)


def test_rerun_is_byte_identical(tmp_path):
    config = write_config(tmp_path / "exp.yaml")
    for root in ("a", "b"):
        assert cli.main(["train", "--config", config, "--out-root", str(tmp_path / root)]) == 0
    for name in ("summary.csv", "checkpoint.npz"):
        first = (tmp_path / "a" / "run" / name).read_bytes()
        second = (tmp_path / "b" / "run" / name).read_bytes()
        assert first == second, name


def test_set_override_lands_in_resolved_config(tmp_path):
    config = write_config(tmp_path / "exp.yaml")
    rc = cli.main(
        [
            "prepare-data",
            "--config",
            config,
            "--set",
            "lambda=0.25",
            "--set",
            "train.max_epochs=1",
            "--out-root",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 0
    resolved = yaml.safe_load((tmp_path / "o" / "run" / "resolved_config.yaml").read_text())
    assert resolved["model"]["reg_weight"] == 0.25
    assert resolved["train"]["max_epochs"] == 1
    assert resolved["dataset_resolved"]["n_channels"] == 4


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_probe_without_checkpoint_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path / "exp.yaml")
    rc = cli.main(["probe", "--config", config, "--out-root", str(tmp_path / "o")])
    assert rc == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_unknown_dataset_kind_is_usage_error(tmp_path):
    config = write_config(
        tmp_path / "exp.yaml", lambda c: c["dataset"].update(kind="parquet")
    )
    assert cli.main(["prepare-data", "--config", config]) == 2


def test_csv_kind_requires_path(tmp_path, capsys):
    config = write_config(tmp_path / "exp.yaml", lambda c: c["dataset"].update(kind="csv"))
    assert cli.main(["prepare-data", "--config", config]) == 2
    assert "dataset.path" in capsys.readouterr().err


def test_unknown_model_key_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path / "exp.yaml", lambda c: c["model"].update(dropout=0.1))
    assert cli.main(["train", "--config", config]) == 2
    assert "dropout" in capsys.readouterr().err


def test_bi_single_view_is_usage_error(tmp_path, capsys):
    config = write_config(
        tmp_path / "exp.yaml", lambda c: c["model"].update(direction="bi", two_view=False)
    )
    assert cli.main(["train", "--config", config, "--out-root", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "direction" in err and "two_view" in err


def test_channel_mismatch_is_usage_error(tmp_path):
    config = write_config(tmp_path / "exp.yaml", lambda c: c["model"].update(n_channels=7))
    assert cli.main(["train", "--config", config]) == 2


def test_runtime_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("disk fell over")

    monkeypatch.setattr("sormamba.training.train_supervised", boom)
    config = write_config(tmp_path / "exp.yaml")
    rc = cli.main(["train", "--config", config, "--out-root", str(tmp_path / "o")])
    assert rc == 3
    assert "disk fell over" in capsys.readouterr().err


def test_bad_checkpoint_file_is_usage_error(trained, tmp_path, capsys):
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"not a checkpoint")
    rc = cli.main(
        [
            "evaluate",
            "--config",
            trained["config"],
            "--out-root",
            str(tmp_path / "o"),
            "--checkpoint",
            str(junk),
        ]
    )
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err


def test_probe_rejects_mismatched_model_section(trained, tmp_path):
    rc = cli.main(
        [
            "probe",
            "--config",
            trained["config"],
            "--set",
            "model.d_model=8",
            "--out-root",
            str(tmp_path / "o"),
            "--checkpoint",
            trained["checkpoint"],
        ]
    )
    assert rc == 2


def test_probe_records_lineage(trained, tmp_path):
    rc = cli.main(
        [
            "probe",
            "--config",
            trained["config"],
            "--set",
            "run_name=probe",
            "--set",
            "train.max_epochs=1",
            "--out-root",
            str(tmp_path / "o"),
            "--checkpoint",
            trained["checkpoint"],
        ]
    )
    assert rc == 0
    lineage = json.loads((tmp_path / "o" / "probe" / "lineage.json").read_text())
    expected = hashlib.sha256(open(trained["checkpoint"], "rb").read()).hexdigest()
    assert lineage["source_sha256"] == expected
    assert lineage["produced"] == "probed.npz"
    assert (tmp_path / "o" / "probe" / "probed.npz").exists()


def test_evaluate_reports_chosen_split(trained, tmp_path):
    rc = cli.main(
        [
            "evaluate",
            "--config",
            trained["config"],
            "--split",
            "val",
            "--out-root",
            str(tmp_path / "o"),
            "--checkpoint",
            trained["checkpoint"],
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "o" / "run" / "evaluation.csv")
    assert rows[0]["split"] == "val"
    assert float(rows[0]["mse"]) > 0


def test_export_embeddings_shapes(trained, tmp_path):
    rc = cli.main(
        [
            "export-embeddings",
            "--config",
            trained["config"],
            "--out-root",
            str(tmp_path / "o"),
            "--checkpoint",
            trained["checkpoint"],
        ]
    )
    assert rc == 0
    for view in ("view1", "view2"):
        rows = read_csv(tmp_path / "o" / "run" / f"embeddings_{view}.csv")
        assert len(rows) == 4  # one per channel
        assert rows[0]["channel"] == "ch0"
        dims = [k for k in rows[0] if k.startswith("d")]
        assert len(dims) == 16  # d_model columns


def test_analyze_bias_two_view_gap_is_zero(trained, tmp_path):
    rc = cli.main(
        [
            "analyze",
            "bias",
            "--config",
            trained["config"],
            "--out-root",
            str(tmp_path / "o"),
            "--checkpoint",
            trained["checkpoint"],
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "o" / "run" / "bias.csv")
    assert rows[0]["mse_fwd"] == rows[0]["mse_rev"]
    assert float(rows[0]["rel_gap"]) == 0.0


def test_analyze_robustness_rejects_zero_permutations(trained, tmp_path, capsys):
    out_root = tmp_path / "o"
    argv = ["analyze", "robustness", "--config", trained["config"], "--out-root", str(out_root)]
    rc = cli.main(argv + ["--checkpoint", trained["checkpoint"], "--n-perms", "0"])
    assert rc == 2
    assert "n_perms" in capsys.readouterr().err
    assert not (out_root / "run" / "robustness.csv").exists()


@pytest.mark.parametrize(
    "kind, flag, value",
    [
        ("missingness", "--rates", "a,b"),
        ("missingness", "--rates", "0,1"),
        ("missingness", "--rates", ""),
        ("missingness", "--seeds", "0,x"),
        ("missingness", "--seeds", "-1"),
        ("missingness", "--seeds", "1.5"),
        ("robustness", "--n-perms", "0"),
        ("robustness", "--n-perms", "two"),
    ],
)
def test_bad_analyze_flag_is_usage_error_and_writes_nothing(tmp_path, capsys, kind, flag, value):
    config = write_config(tmp_path / "exp.yaml")
    out_root = tmp_path / "o"
    rc = cli.main(["analyze", kind, "--config", config, "--out-root", str(out_root), flag, value])
    assert rc == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out_root.exists()


def test_analyze_flags_parse_to_values():
    args = cli.make_parser().parse_args(
        ["analyze", "missingness", "--config", "c.yaml", "--rates", "0,0.5", "--seeds", "2"]
    )
    assert (args.rates, args.seeds, args.n_perms) == ((0.0, 0.5), (2,), 5)
    defaults = cli.make_parser().parse_args(["analyze", "bias", "--config", "c.yaml"])
    assert (defaults.rates, defaults.seeds) == ((0.0, 0.25, 0.5, 0.75), (0, 1, 2))


def test_analyze_efficiency_needs_no_checkpoint(tmp_path):
    config = write_config(tmp_path / "exp.yaml")
    rc = cli.main(
        ["analyze", "efficiency", "--config", config, "--out-root", str(tmp_path / "o")]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "o" / "run" / "efficiency.csv")
    components = {r["component"] for r in rows}
    assert {"encoder_cd", "encoder_td", "total"} <= components


def test_analyze_efficiency_builds_no_windows(tmp_path, capsys):
    # 50 steps leave a split too short for lookback 32 + horizon 8
    config = write_config(tmp_path / "exp.yaml", lambda c: c["dataset"].update(length=50))
    out_root = str(tmp_path / "o")
    assert cli.main(["prepare-data", "--config", config, "--out-root", out_root]) == 2
    assert "short" in capsys.readouterr().err
    assert cli.main(["analyze", "efficiency", "--config", config, "--out-root", out_root]) == 0
    assert (tmp_path / "o" / "run" / "efficiency.csv").exists()


@pytest.mark.parametrize("command", [["train"], ["prepare-data"], ["analyze", "missingness"]])
def test_series_too_short_for_its_splits_writes_nothing(tmp_path, capsys, command):
    # 10 steps leave a training split of 6, short of lookback 32 + horizon 8
    config = write_config(tmp_path / "exp.yaml", lambda c: c["dataset"].update(length=10))
    out_root = tmp_path / "o"
    assert cli.main(command + ["--config", config, "--out-root", str(out_root)]) == 2
    assert "too short" in capsys.readouterr().err
    assert not out_root.exists()


def test_analyze_requires_checkpoint_for_bias(tmp_path, capsys):
    config = write_config(tmp_path / "exp.yaml")
    rc = cli.main(
        ["analyze", "bias", "--config", config, "--out-root", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "analyze bias requires --checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


CHECKPOINT_COMMANDS = [
    ["probe"],
    ["finetune"],
    ["evaluate"],
    ["export-embeddings"],
    ["analyze", "bias"],
    ["analyze", "robustness"],
    ["analyze", "correlation"],
]


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=" ".join)
def test_checkpoint_commands_reject_a_mismatched_model(trained, tmp_path, capsys, command):
    out_root = tmp_path / "o"
    rc = cli.main(
        command
        + ["--config", trained["config"], "--set", "model.d_model=8"]
        + ["--out-root", str(out_root), "--checkpoint", trained["checkpoint"]]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "d_model (checkpoint 16, config 8)" in err
    assert "n_layers" not in err  # only the fields that differ
    assert not out_root.exists()


@pytest.mark.parametrize(
    "override, field",
    [
        ("model=3", "model"),
        ("dataset=[1, 2]", "dataset"),
        ("train=3", "train"),
        ("eval=1", "eval"),
        ("train.lr=-1", "lr"),
        ("train.lr=fast", "lr"),
        ("train.seed=abc", "seed"),
        ("train.max_epochs=true", "max_epochs"),
        ("train.batch_size=8.5", "batch_size"),
        ("train.patience=0", "patience"),
        ("model.reg_weight=.nan", "reg_weight"),
        ("model.reg_weight=.inf", "reg_weight"),
        ("model.reg_weight=true", "reg_weight"),
        ("model.conv='false'", "conv"),
        ("model.two_view='no'", "two_view"),
        ("model.instance_norm=0", "instance_norm"),
        ("train.restore_best='no'", "restore_best"),
        ("eval.denormalize='false'", "eval.denormalize"),
        ("eval.denormalize=0", "eval.denormalize"),
    ],
)
def test_bad_config_value_is_usage_error_and_writes_nothing(tmp_path, capsys, override, field):
    config = write_config(tmp_path / "exp.yaml")
    out_root = tmp_path / "o"
    rc = cli.main(["train", "--config", config, "--set", override, "--out-root", str(out_root)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not out_root.exists()


@pytest.mark.parametrize("value", ["false", 0, "yes"])
def test_csv_has_timestamp_must_be_a_bool(tmp_path, capsys, value):
    # a quoted "false" would otherwise keep dropping the first column
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("".join(f"{i},{i % 7}.0,{i % 5}.0\n" for i in range(300)))

    def mutate(c):
        c["dataset"] = {"kind": "csv", "path": str(csv_path), "has_timestamp": value}

    config = write_config(tmp_path / "exp.yaml", mutate)
    out_root = tmp_path / "o"
    assert cli.main(["prepare-data", "--config", config, "--out-root", str(out_root)]) == 2
    assert "dataset.has_timestamp must be true or false" in capsys.readouterr().err
    assert not out_root.exists()


def test_out_root_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SORMAMBA_OUT", str(tmp_path / "env_root"))
    config = write_config(tmp_path / "exp.yaml")
    rc = cli.main(
        ["prepare-data", "--config", config, "--out-root", str(tmp_path / "flag_root")]
    )
    assert rc == 0
    assert (tmp_path / "flag_root" / "run").exists()
    assert not (tmp_path / "env_root").exists()

    rc = cli.main(["prepare-data", "--config", config])
    assert rc == 0
    assert (tmp_path / "env_root" / "run").exists()


def test_all_writes_stay_inside_out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("SORMAMBA_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path / "exp.yaml")
    assert cli.main(["prepare-data", "--config", config]) == 0
    assert cli.main(["train", "--config", config]) == 0
    top_level = {p.name for p in tmp_path.iterdir()}
    assert top_level == {"exp.yaml", "runs"}


def test_csv_dataset_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    t = 400
    values = np.cumsum(rng.normal(size=(t, 3)), axis=0)
    lines = ["date,a,b,c"]
    for i in range(t):
        lines.append(f"2020-01-{i},{values[i,0]},{values[i,1]},{values[i,2]}")
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    def mutate(c):
        c["dataset"] = {"kind": "csv", "path": str(csv_path), "name": "walk3"}
        c["model"]["lookback"] = 24
        c["model"]["horizon"] = 4

    config = write_config(tmp_path / "exp.yaml", mutate)
    rc = cli.main(["prepare-data", "--config", config, "--out-root", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "run" / "dataset_report.json").read_text())
    assert report["n_channels"] == 3
    assert report["length"] == t
    assert report["family"] == "ett-pems-solar"
