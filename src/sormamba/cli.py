"""Command-line entry point.

One YAML config describes one experiment: the dataset (a CSV path or a
synthetic generator), the model, the optimization settings, and a run name.
``main`` resolves that config, windows the series' splits, loads and checks
the ``--checkpoint`` model of the commands that run one, and only then
creates ``<output root>/<run_name>/`` and stores the resolved config there,
so a rejected config, series or checkpoint writes nothing and any artifact
can be re-derived from its own directory.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
Wall-clock timings go only to the ``.jsonl`` logs; the ``.csv`` summaries
are byte-identical across reruns of the same config and seed.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys

import yaml

from . import analysis as an
from . import data as dt
from . import synthetic as syn
from . import training as tr
from .losses import global_corr
from .model import ModelConfig, SORMambaModel, load_checkpoint, save_checkpoint

ANALYZE_KINDS = ("bias", "robustness", "correlation", "efficiency", "missingness")

# common shorthands accepted by --set
OVERRIDE_ALIASES = {
    "lambda": "model.reg_weight",
    "seed": "train.seed",
    "lr": "train.lr",
}

# commands that run the model read from --checkpoint, and analyze kinds that do
CHECKPOINT_COMMANDS = ("probe", "finetune", "evaluate", "export-embeddings")
CHECKPOINT_ANALYSES = ("bias", "robustness", "correlation")


class ConfigError(ValueError):
    pass


# ---- config ----------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"config file {path} is not valid YAML: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return cfg


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    cfg = copy.deepcopy(cfg)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = OVERRIDE_ALIASES.get(key, key)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            raise ConfigError(f"--set value for {key!r} is not parseable: {raw!r}") from None
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-mapping entry")
        node[parts[-1]] = value
    return cfg


def _section(cfg: dict, key: str, required: bool = False) -> dict:
    if key not in cfg:
        if required:
            raise ConfigError(f"config is missing the {key!r} section")
        return {}
    section = cfg[key]
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a mapping, got {section!r}")
    return dict(section)


def _flag(section: dict, where: str, key: str) -> bool:
    """``section[key]`` (default true), which must be a YAML boolean."""
    value = section.get(key, True)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def build_series(cfg: dict) -> tuple[dt.RawSeries, str]:
    """Returns the raw series and its split family."""
    dcfg = _section(cfg, "dataset", required=True)
    kind = dcfg.get("kind", "csv")
    name = dcfg.get("name", kind)
    family = dcfg.get("family")
    if kind == "csv":
        path = dcfg.get("path")
        if not path:
            raise ConfigError("dataset.kind=csv requires dataset.path")
        if not os.path.exists(path):
            raise ConfigError(f"dataset file does not exist: {path}")
        has_timestamp = _flag(dcfg, "dataset", "has_timestamp")
        series = dt.load_csv(path, has_timestamp=has_timestamp, name=name)
        if family is None and name in dt.DATASETS:
            family = dt.DATASETS[name].family
    elif kind in ("synthetic-seasonal", "synthetic-correlated"):
        channels = int(dcfg.get("channels", 4))
        length = int(dcfg.get("length", 800))
        seed = int(dcfg.get("seed", 0))
        if kind == "synthetic-seasonal":
            values = syn.seasonal_series(channels, length, seed=seed)
        else:
            values = syn.correlated_series(
                channels, length, strength=float(dcfg.get("strength", 0.7)), seed=seed
            )
        series = dt.RawSeries(
            name=name, values=values, channel_names=[f"ch{i}" for i in range(channels)]
        )
    else:
        raise ConfigError(f"unknown dataset.kind {kind!r}")
    if family is None:
        family = "ett-pems-solar"
    if family not in dt.SPLIT_FAMILIES:
        raise ConfigError(f"dataset.family must be one of {dt.SPLIT_FAMILIES}, got {family!r}")
    return series, family


def build_model_config(cfg: dict, n_channels: int) -> ModelConfig:
    mcfg = _section(cfg, "model", required=True)
    declared = mcfg.setdefault("n_channels", n_channels)
    if declared != n_channels:
        raise ConfigError(
            f"model.n_channels={declared} but the dataset has {n_channels} channels"
        )
    try:
        return ModelConfig.from_dict(mcfg)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid model config: {e}") from None


def build_train_config(cfg: dict) -> tr.TrainConfig:
    try:
        return tr.TrainConfig(**_section(cfg, "train"))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid train config: {e}") from None


def resolve_out_dir(cfg: dict, out_root: str | None) -> str:
    root = out_root or os.environ.get("SORMAMBA_OUT") or cfg.get("output_root", "runs")
    run_name = cfg.get("run_name")
    if not run_name:
        raise ConfigError("config needs a run_name")
    return os.path.join(root, str(run_name))


class RunContext:
    """Everything a command needs, resolved once from the config. With
    ``windows`` that includes the windowed splits, so a series too short
    for them is rejected here; without, ``bundle`` is None."""

    def __init__(self, cfg: dict, out_root: str | None, windows: bool):
        self.cfg = cfg
        self.out_dir = resolve_out_dir(cfg, out_root)
        self.series, self.family = build_series(cfg)
        self.model_config = build_model_config(cfg, self.series.n_channels)
        self.train_config = build_train_config(cfg)
        self.denormalize = _flag(_section(cfg, "eval"), "eval", "denormalize")
        self.bundle = (
            dt.build_splits(
                self.series, self.family, self.model_config.lookback, self.model_config.horizon
            )
            if windows
            else None
        )

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def write_resolved_config(self) -> None:
        """Creates the run directory and writes ``resolved_config.yaml``."""
        os.makedirs(self.out_dir, exist_ok=True)
        resolved = copy.deepcopy(self.cfg)
        resolved["model"] = self.model_config.to_dict()
        resolved["dataset_resolved"] = {
            "name": self.series.name,
            "family": self.family,
            "length": self.series.length,
            "n_channels": self.series.n_channels,
        }
        with open(self.path("resolved_config.yaml"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(resolved, fh, sort_keys=True)

    def evaluate_split(self, model: SORMambaModel, split: str) -> dict:
        ds = self.bundle[split]
        normalizer = self.bundle.normalizer if self.denormalize else None
        return tr.evaluate(model, ds, normalizer, denormalize=self.denormalize)


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_run_model(ctx: RunContext, args) -> SORMambaModel | None:
    """The ``--checkpoint`` model of a command that runs one, checked against
    the config's model section; None for every other command."""
    kind = getattr(args, "kind", None)
    if args.command not in CHECKPOINT_COMMANDS and kind not in CHECKPOINT_ANALYSES:
        return None
    path = args.checkpoint
    if not path:
        command = args.command if kind is None else f"analyze {kind}"
        raise ConfigError(f"{command} requires --checkpoint")
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint does not exist: {path}")
    try:
        model = load_checkpoint(path)
    except Exception as e:
        raise ConfigError(f"{path} is not a readable checkpoint: {e}") from None
    trained, wanted = model.config.to_dict(), ctx.model_config.to_dict()
    differ = [f"{k} (checkpoint {trained[k]!r}, config {wanted[k]!r})"
              for k in wanted if trained[k] != wanted[k]]
    if differ:
        raise ConfigError(
            f"checkpoint {path} was trained with a different model section: "
            + ", ".join(differ)
        )
    return model


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---- commands ---------------------------------------------------------------


def cmd_prepare_data(ctx: RunContext, args, model) -> int:
    usable = dt.usable_sizes(ctx.series, ctx.family, ctx.model_config.lookback)
    rows = []
    for split in dt.SPLITS:
        ds = ctx.bundle[split]
        rows.append(
            {
                "split": split,
                "windows": len(ds),
                "lookback": ctx.model_config.lookback,
                "horizon": ctx.model_config.horizon,
            }
        )
    tr.write_summary_csv(ctx.path("splits.csv"), rows)
    report = {
        "dataset": ctx.series.name,
        "family": ctx.family,
        "length": ctx.series.length,
        "n_channels": ctx.series.n_channels,
        "usable_sizes": list(usable),
        "window_counts": {r["split"]: r["windows"] for r in rows},
    }
    if ctx.series.n_channels >= 2:
        report["mean_abs_offdiag_corr"] = an.mean_abs_offdiag(global_corr(ctx.series.values))
    _write_report(ctx.path("dataset_report.json"), report)
    print(f"prepared {ctx.series.name}: usable sizes {usable} -> {ctx.out_dir}")
    return 0


def _final_summary_rows(ctx: RunContext, model: SORMambaModel, result: tr.FitResult) -> list[dict]:
    test = ctx.evaluate_split(model, "test")
    val = ctx.evaluate_split(model, "val")
    return [
        {
            "dataset": ctx.series.name,
            "seed": ctx.train_config.seed,
            "reg_weight": ctx.model_config.reg_weight,
            "best_epoch": result.best_epoch,
            "val_mse": val["mse"],
            "test_mse": test["mse"],
            "test_mae": test["mae"],
        }
    ]


def _fit(ctx: RunContext, model: SORMambaModel, fit_fn, artifact: str, label: str,
         source: str | None = None) -> int:
    """Fits ``model``, then writes its checkpoint, the JSONL log and the
    summary; a model read from the ``source`` checkpoint also gets
    ``lineage.json``."""
    result = fit_fn(model, ctx.bundle.train, ctx.bundle.val, ctx.train_config)
    save_checkpoint(model, ctx.path(artifact))
    tr.write_jsonl(ctx.path(f"{label}_log.jsonl"), result.to_records())
    rows = _final_summary_rows(ctx, model, result)
    if source is not None:
        rows[0]["source_checkpoint"] = os.path.basename(source)
        lineage = {
            "source_checkpoint": os.path.abspath(source),
            "source_sha256": _file_sha256(source),
            "produced": artifact,
        }
        _write_report(ctx.path("lineage.json"), lineage)
    tr.write_summary_csv(ctx.path("summary.csv"), rows)
    print(f"{label}: best val {result.best_val:.6f} at epoch {result.best_epoch}")
    return 0


def cmd_train(ctx: RunContext, args, model) -> int:
    fresh = SORMambaModel(ctx.model_config, seed=ctx.train_config.seed)
    return _fit(ctx, fresh, tr.train_supervised, "checkpoint.npz", "train")


def cmd_pretrain(ctx: RunContext, args, model) -> int:
    fresh = SORMambaModel(ctx.model_config, seed=ctx.train_config.seed)
    result = tr.pretrain(
        fresh, ctx.bundle.train, ctx.bundle.val, ctx.train_config, mode=args.task
    )
    save_checkpoint(fresh, ctx.path("pretrained.npz"))
    tr.write_jsonl(ctx.path("pretrain_log.jsonl"), result.to_records())
    row = {
        "dataset": ctx.series.name,
        "task": args.task,
        "seed": ctx.train_config.seed,
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val,
    }
    if args.task == "mm":
        row["mask_ratio"] = ctx.train_config.mask_ratio
    tr.write_summary_csv(ctx.path("summary.csv"), [row])
    print(f"pretrained ({args.task}): best val loss {result.best_val:.6f}")
    return 0


def cmd_probe(ctx: RunContext, args, model) -> int:
    return _fit(ctx, model, tr.linear_probe, "probed.npz", "probe", args.checkpoint)


def cmd_finetune(ctx: RunContext, args, model) -> int:
    return _fit(ctx, model, tr.fine_tune, "finetuned.npz", "finetune", args.checkpoint)


def cmd_evaluate(ctx: RunContext, args, model) -> int:
    metrics = ctx.evaluate_split(model, args.split)
    row = {
        "dataset": ctx.series.name,
        "split": args.split,
        "denormalized": ctx.denormalize,
        "mse": metrics["mse"],
        "mae": metrics["mae"],
    }
    tr.write_summary_csv(ctx.path("evaluation.csv"), [row])
    print(f"{args.split} mse {metrics['mse']:.6f} mae {metrics['mae']:.6f}")
    return 0


def cmd_analyze(ctx: RunContext, args, model) -> int:
    kind = args.kind
    if kind == "efficiency":
        fresh = SORMambaModel(ctx.model_config, seed=ctx.train_config.seed)
        rep = an.efficiency_report(fresh)
        rows = []
        for comp, count in rep["components"].items():
            rows.append(
                {
                    "component": comp,
                    "parameters": count,
                    "reference_large_config": rep["reference_large_config"].get(comp, ""),
                }
            )
        tr.write_summary_csv(ctx.path("efficiency.csv"), rows)
        print(f"efficiency table -> {ctx.path('efficiency.csv')}")
        return 0

    if kind == "missingness":
        rates, seeds = args.rates, args.seeds
        out = an.missingness_sweep(
            ctx.series.values,
            ctx.model_config,
            ctx.train_config,
            rates=rates,
            seeds=seeds,
            family=ctx.family,
        )
        tr.write_summary_csv(ctx.path("missingness.csv"), out["rows"])
        tr.write_summary_csv(ctx.path("missingness_averaged.csv"), out["averaged"])
        _write_report(
            ctx.path("missingness_report.json"),
            {"inversions": out["inversions"], "rates": list(rates), "seeds": list(seeds)},
        )
        print(f"missingness sweep ({len(out['rows'])} runs) -> {ctx.out_dir}")
        return 0

    norm = ctx.bundle.normalizer if ctx.denormalize else None

    if kind == "bias":
        rep = an.reversal_bias(model, ctx.bundle.test, norm, denormalize=ctx.denormalize)
        tr.write_summary_csv(ctx.path("bias.csv"), [rep.to_dict()])
        print(
            f"bias: fwd {rep.mse_fwd:.6f} rev {rep.mse_rev:.6f} rel_gap {rep.rel_gap:+.4%}"
        )
        return 0

    if kind == "robustness":
        rep = an.permutation_robustness(
            model,
            ctx.bundle.test,
            norm,
            denormalize=ctx.denormalize,
            n_perms=args.n_perms,
            seed=ctx.train_config.seed,
        )
        rows = [
            {"permutation": i, "mse": v} for i, v in enumerate(rep["mse_values"])
        ]
        rows.append({"permutation": "mean", "mse": rep["mean"]})
        rows.append({"permutation": "std", "mse": rep["std"]})
        tr.write_summary_csv(ctx.path("robustness.csv"), rows)
        print(f"robustness: mean {rep['mean']:.6f} std {rep['std']:.6f}")
        return 0

    # correlation
    rep = an.correlation_preservation(model, ctx.bundle.test)
    rows = []
    c = rep["r_x"].shape[0]
    names = ctx.bundle.channel_names
    for i in range(c):
        for j in range(c):
            rows.append(
                {
                    "channel_i": names[i],
                    "channel_j": names[j],
                    "r_input": rep["r_x"][i, j],
                    "r_embedding": rep["r_z"][i, j],
                }
            )
    tr.write_summary_csv(ctx.path("correlation.csv"), rows)
    _write_report(
        ctx.path("correlation_report.json"),
        {
            "gap_mse": rep["gap_mse"],
            "mean_abs_offdiag_x": rep["mean_abs_offdiag_x"],
            "mean_abs_offdiag_z": rep["mean_abs_offdiag_z"],
        },
    )
    print(f"correlation gap {rep['gap_mse']:.6f}")
    return 0


def cmd_export_embeddings(ctx: RunContext, args, model) -> int:
    names = ctx.bundle.channel_names
    for key, mat in an.view_embeddings(model, ctx.bundle.test).items():
        rows = [
            {"channel": names[c], **{f"d{j}": mat[c, j] for j in range(mat.shape[1])}}
            for c in range(mat.shape[0])
        ]
        path = ctx.path(f"embeddings_{key}.csv")
        tr.write_summary_csv(path, rows)
        print(f"embeddings -> {path}")
    return 0


# ---- argument parsing --------------------------------------------------------


def _values(convert, low, high, want, listed=True):
    """An argparse type: the value's comma-separated items (the whole value
    unless ``listed``) through ``convert``, each in [low, high), else a usage
    error that says ``want``."""

    def parse(text: str):
        try:
            values = tuple(convert(v) for v in (text.split(",") if listed else [text]))
        except ValueError:
            values = ()
        if not values or not all(low <= v < high for v in values):
            raise argparse.ArgumentTypeError(f"{want}, got {text!r}")
        return values if listed else values[0]

    return parse


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sormamba",
        description="Channel-dependency selective-scan forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name: str, summary: str):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted keys, YAML-typed values)",
        )
        p.add_argument("--out-root", default=None, help="output root directory")
        if name in CHECKPOINT_COMMANDS or name == "analyze":
            p.add_argument("--checkpoint", default=None)
        return p

    common("prepare-data", "split, window, and describe the dataset")
    common("train", "supervised training")
    p = common("pretrain", "self-supervised pretraining")
    p.add_argument("--task", choices=tr.PRETEXT_MODES, default="ccm")
    common("probe", "probe from a pretrained checkpoint")
    common("finetune", "finetune from a pretrained checkpoint")
    p = common("evaluate", "metrics for a trained checkpoint")
    p.add_argument("--split", choices=("val", "test"), default="test")
    p = common("analyze", "diagnostic reports")
    p.add_argument("kind", choices=ANALYZE_KINDS)
    p.add_argument(
        "--rates",
        type=_values(float, 0.0, 1.0, "rates must be comma-separated numbers in [0, 1)"),
        default="0,0.25,0.5,0.75",
    )
    p.add_argument(
        "--seeds",
        type=_values(int, 0, math.inf, "seeds must be comma-separated integers >= 0"),
        default="0,1,2",
    )
    p.add_argument(
        "--n-perms",
        type=_values(int, 1, math.inf, "n_perms must be an integer >= 1", listed=False),
        default=5,
    )
    common("export-embeddings", "per-channel embedding CSVs")

    return parser


HANDLERS = {
    "prepare-data": cmd_prepare_data,
    "train": cmd_train,
    "pretrain": cmd_pretrain,
    "probe": cmd_probe,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "export-embeddings": cmd_export_embeddings,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # a usage error (2) or --help (0), already printed
        return e.code
    try:
        cfg = apply_overrides(load_config(args.config), args.sets)
        # analyze efficiency counts parameters and reads no windows
        ctx = RunContext(cfg, args.out_root, windows=getattr(args, "kind", None) != "efficiency")
        model = load_run_model(ctx, args)
        ctx.write_resolved_config()
        return HANDLERS[args.command](ctx, args, model)
    except ValueError as e:  # ConfigError is one
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
