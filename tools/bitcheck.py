"""Print a checkout's benchmark results bit for bit, to compare two commits.

    python3 tools/bitcheck.py <checkout> > a.txt
    python3 tools/bitcheck.py <old checkout> --grads old.npz > a.txt
    python3 tools/bitcheck.py <new checkout> --against old.npz > b.txt

Imports ``sormamba`` from ``<checkout>/src`` and the benchmark's workloads
from ``<checkout>/perfbench/workloads.py`` (read, never changed), and runs
each workload's ``setup`` and ``make_run`` at seed 3 with one BLAS thread:

* first, before anything else has scanned, the scan kernels alone on two
  shapes in turn, a small one ([B, S, D, N] = [5, 9, 6, 4]) and the weather
  shape ([64, 21, 128, 16], 64 one-row batch tiles), alternating the two
  discretizations and the token order (natural, reversed, a seeded
  permutation), so that calls grow and shrink into what earlier calls left:
  per call, a sha256 of y and of each of the five gradients of
  ``scan_forward`` and ``scan_backward``, one order per call;
* then two orders per call at the weather, etth1, small and solar shapes
  ([8, 137, 128, 16]): a sha256 of each order's y, and of each of the five
  gradients of the objective summed over the orders;
* before anything trains, each workload's untrained model (seed 3) under
  ``no_grad`` on its first batch: a sha256 of the forecast, and whether the
  forecast of the channel-reversed batch, put back in channel order, equals
  it. The read-path and CLI lines below come from models trained first, so
  a change that moves only gradients moves them too; these lines show
  whether the forward itself moved;
* train-solar, train-etth1: a sha256 of each parameter's gradient after one
  ``step()``, then ``parameter_fingerprint`` after three steps; then the
  number of nodes on the tape of one training loss (the first batch's,
  ``autodiff._ordered_tape``) and the ``tracemalloc`` peak of one more,
  warmed-up ``step()`` in MiB. These two are the lines that a change to what
  the tape keeps is meant to move; every other line is a value;
* analyze-weather: the ``reversal_bias`` MSEs and the
  ``permutation_robustness(n_perms=2, seed=3)`` MSEs as ``float.hex()``;
* 32 small model variants that no workload runs (uni/bi x conv on/off x the
  four order modes x both discretizations, two layers, seed 7): after one
  ``forecast``, ``total_loss`` and ``backward``, the loss as ``float.hex()``
  and a sha256 over every parameter's name, value and gradient;
* the read paths over a small synthetic split (5 channels, seed 7; its
  73 test windows are a batch of 64 and a partial one of 9): the
  validation losses and best epoch of a 2-epoch ``train_supervised``,
  ``evaluate`` of the trained model, sha256s of
  ``view_embeddings`` for a one-view and a two-view model,
  ``consistency_gap``, ``correlation_preservation``'s ``gap_mse`` and a
  sha256 of its ``r_z``, the ``reversal_bias`` MSEs and the
  ``permutation_robustness(n_perms=2, seed=7)`` MSEs of the trained model
  as ``float.hex()``, which pin the per-batch channel reordering, the
  validation losses of a 2-epoch ``pretrain`` in each pretext mode, and the
  best epoch and validation losses of a 2-epoch ``linear_probe`` started
  from the ccm-pretrained model;
* the CLI, in-process in a temporary directory on a small synthetic config
  (5 channels, seed 7): prepare-data, train, pretrain ccm, probe and
  finetune from the pretrained checkpoint, evaluate, the five analyze kinds
  and export-embeddings from the trained one, each into its own run
  directory. Each command's exit code, then a sha256 of every ``.csv``,
  ``.json``, ``.npz`` and ``.yaml`` they wrote; the ``.jsonl`` logs hold
  timings and are skipped, and of ``lineage.json``, which holds an absolute
  path, only ``source_sha256`` and ``produced``.

Two checkouts that compute the same numbers print the same lines, apart
from the ``tape-nodes`` and ``step-peak-mib`` lines when they keep
different things on the tape; ``diff`` the outputs to see which parameters,
errors or memory figures moved.

A hash only says that a gradient moved, not by how much. ``--grads PATH``
saves every gradient hashed above (the two-order scans, the train
workloads' first step and the variants) to an ``.npz``. ``--against PATH``
reads such a file, made from another checkout, and appends one ``against``
line per two-order scan, per train workload and per variant: the largest
relative difference over its parameters, where a parameter's difference is
max |g - g_ref| / max |g_ref|, and the parameter that has it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

SEED = 3
TRAIN_STEPS = 3
VARIANT_SEED = 7


def _import_checkout(root: Path):
    for part in ("perfbench", "src"):
        sys.path.insert(0, str(root / part))
    import sormamba
    import workloads

    for module, where in ((sormamba, root / "src"), (workloads, root / "perfbench")):
        if not Path(module.__file__).resolve().is_relative_to(where.resolve()):
            sys.exit(f"bitcheck: imported {module.__file__}, not from {where}")
    return workloads


def _digest(array) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to run")
    parser.add_argument("--grads", type=Path, help="save the hashed gradients to this .npz")
    parser.add_argument(
        "--against", type=Path, help="compare the gradients with an .npz saved by --grads"
    )
    args = parser.parse_args(argv)
    workloads = _import_checkout(args.checkout.resolve())
    grads: dict[str, dict] = {}
    _print_scan_reuse(grads)
    from sormamba import analysis
    from sormamba import model as sm_model

    runs = {}
    for name, w in workloads.WORKLOADS.items():
        bundle, model = workloads.setup(w, SEED)
        runs[name] = workloads.make_run(w, bundle, model, SEED)
    _print_forward(runs)

    for name in ("train-solar", "train-etth1"):
        run = runs[name]
        model = run.model
        run.step()
        grads[name] = {p: t.grad.copy() for p, t in model.param_items() if t.grad is not None}
        for param, t in model.param_items():
            print(name, "grad", param, "none" if t.grad is None else _digest(t.grad))
        for _ in range(TRAIN_STEPS - 1):
            run.step()
        print(name, "fingerprint", sm_model.parameter_fingerprint(model))
        _print_step_memory(name, run)

    name = "analyze-weather"
    run = runs[name]
    bias = analysis.reversal_bias(run.model, run.ds, run.normalizer)
    print(name, "reversal_bias", bias.mse_fwd.hex(), bias.mse_rev.hex())
    robust = analysis.permutation_robustness(
        run.model, run.ds, run.normalizer, n_perms=2, seed=SEED
    )
    print(name, "permutation_robustness", *(v.hex() for v in robust["mse_values"]))

    _print_variants(grads)
    _print_read_paths()
    _print_cli()
    if args.grads:
        _save_grads(args.grads, grads)
    if args.against:
        _print_against(args.against, grads)
    return 0


SCAN_SHAPES = {
    "small": (5, 9, 6, 4),
    "weather": (64, 21, 128, 16),
    "etth1": (32, 7, 256, 16),
    "solar": (8, 137, 128, 16),
}
# (shape, discretization, order): grow from empty, grow, shrink, reuse, ...
SCAN_CALLS = (
    ("small", "euler-b", "natural"),
    ("weather", "zoh-exact", "natural"),
    ("small", "zoh-exact", "reversed"),
    ("weather", "euler-b", "permuted"),
    ("small", "euler-b", "permuted"),
    ("weather", "zoh-exact", "reversed"),
    ("small", "euler-b", "natural"),
)
# (shape, discretization, two orders) scanned in one call
SCAN_PAIRS = (
    ("weather", "zoh-exact", ("natural", "reversed")),
    ("etth1", "euler-b", ("natural", "reversed")),
    ("small", "zoh-exact", ("permuted", "reversed")),
    ("solar", "euler-b", ("natural", "reversed")),
)


def _scan_case(shape_name, order_names):
    """Seeded kernel inputs (delta, a, b_t, c_t, x), gy [V, B, S, D] and the
    named orders (natural is None)."""
    import numpy as np

    batch, steps, dim, state = SCAN_SHAPES[shape_name]
    rng = np.random.default_rng(VARIANT_SEED)
    delta = rng.uniform(0.05, 0.8, size=(batch, steps, dim))
    a = -rng.uniform(0.3, 2.0, size=(dim, state))
    b_t, c_t = rng.normal(size=(batch, steps, state)), rng.normal(size=(batch, steps, state))
    x = rng.normal(size=(batch, steps, dim))
    gy = np.stack([rng.normal(size=(batch, steps, dim)) for _ in order_names])
    orders = tuple(
        {
            "natural": None,
            "reversed": np.arange(steps)[::-1],
            "permuted": rng.permutation(steps),
        }[name]
        for name in order_names
    )
    return (delta, a, b_t, c_t, x), gy, orders


def _scan(scan_kernels, inputs, mode, orders, gy):
    """Each order's y and the five gradients of the summed objective, from
    one call over the tuple of ``orders``."""
    y = scan_kernels.scan_forward(*inputs, mode, orders)
    grads = scan_kernels.scan_backward(*inputs, mode, gy, orders)
    return list(y), grads


def _print_scan_reuse(grads: dict[str, dict]) -> None:
    from sormamba import scan_kernels

    for shape_name, mode, order_name in SCAN_CALLS:
        inputs, gy, orders = _scan_case(shape_name, (order_name,))
        (y,), one = _scan(scan_kernels, inputs, mode, orders, gy)
        print("scan", shape_name, mode, order_name, *(_digest(v) for v in (y, *one)))
    for shape_name, mode, order_names in SCAN_PAIRS:
        inputs, gy, orders = _scan_case(shape_name, order_names)
        ys, pair_grads = _scan(scan_kernels, inputs, mode, orders, gy)
        tag = ("scan-pair", shape_name, mode, "+".join(order_names))
        print(*tag, "y", *(_digest(y) for y in ys))
        print(*tag, "grads", *(_digest(g) for g in pair_grads))
        grads[" ".join(tag)] = dict(zip(("delta", "a", "b_t", "c_t", "x"), pair_grads))


def _print_forward(runs: dict) -> None:
    """Per workload, the untrained model's forecast of its first batch: a
    sha256, and whether the forecast of the channel-reversed batch, put back
    in channel order, equals it bit for bit."""
    import numpy as np

    from sormamba import autodiff

    for name, run in runs.items():
        x = run.first_batch()
        with autodiff.no_grad():
            pred, _ = run.model.forecast(autodiff.Tensor(x))
            rev, _ = run.model.forecast(autodiff.Tensor(np.ascontiguousarray(x[..., ::-1])))
        same = np.array_equal(rev.data[..., ::-1], pred.data)
        print(name, "forward", _digest(pred.data), "reversed-equal", same)


def _print_step_memory(name: str, run) -> None:
    """The tape's node count for the loss of a training forward on the first
    batch, then the tracemalloc peak of one more ``step()``, in MiB above the
    traced level when it starts."""
    import tracemalloc

    from sormamba import autodiff, losses

    cfg = run.model.config
    x = run.first_batch()
    pred, pairs = run.model.forecast(autodiff.Tensor(x))
    loss = losses.total_loss(pred, run.y[: len(x)], pairs, cfg.reg_weight, cfg.reg_metric)
    print(name, "tape-nodes", len(autodiff._ordered_tape(loss.total)))
    del pred, pairs, loss
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(name, "step-peak-mib", f"{(peak - base) / 2**20:.3f}")


def _print_variants(grads: dict[str, dict]) -> None:
    import itertools

    import numpy as np

    from sormamba import autodiff, losses
    from sormamba.model import ModelConfig, SORMambaModel

    grid = itertools.product(
        ("uni", "bi"),
        (False, True),
        ("fixed-reverse", "fixed-random", "random-pair", "random-reverse"),
        ("euler-b", "zoh-exact"),
    )
    for direction, conv, order_mode, discretization in grid:
        cfg = ModelConfig(
            lookback=16, horizon=8, n_channels=5, d_model=8, n_layers=2, d_state=4,
            reg_weight=0.1, direction=direction, conv=conv, order_mode=order_mode,
            discretization=discretization,
        )
        model = SORMambaModel(cfg, seed=VARIANT_SEED)
        rng = np.random.default_rng(VARIANT_SEED)
        x = autodiff.Tensor(rng.normal(size=(3, cfg.lookback, cfg.n_channels)))
        y = rng.normal(size=(3, cfg.horizon, cfg.n_channels))
        pred, pairs = model.forecast(x, rng=rng)
        loss = losses.total_loss(pred, y, pairs, cfg.reg_weight, cfg.reg_metric).total
        autodiff.backward(loss)
        h = hashlib.sha256()
        for param, t in model.param_items():
            h.update(param.encode())
            h.update(np.ascontiguousarray(t.data).tobytes())
            h.update(b"none" if t.grad is None else np.ascontiguousarray(t.grad).tobytes())
        conv_tag = "conv" if conv else "noconv"
        tag = " ".join(("variant", direction, conv_tag, order_mode, discretization))
        grads[tag] = {p: t.grad for p, t in model.param_items() if t.grad is not None}
        print(tag, float(loss.data).hex(), h.hexdigest())


def _print_read_paths() -> None:
    from sormamba import analysis, data, synthetic, training
    from sormamba.model import ModelConfig, SORMambaModel

    values = synthetic.correlated_series(5, 400, seed=VARIANT_SEED)
    series = data.RawSeries(
        name="read", values=values, channel_names=[f"ch{i}" for i in range(5)]
    )
    bundle = data.build_splits(series, "other", 16, 8)
    cfg = training.TrainConfig(max_epochs=2, batch_size=16, seed=VARIANT_SEED)

    def small_model(two_view: bool = True) -> SORMambaModel:
        mcfg = ModelConfig(
            lookback=16, horizon=8, n_channels=5, d_model=8, n_layers=2, d_state=4,
            reg_weight=0.1, two_view=two_view,
        )
        return SORMambaModel(mcfg, seed=VARIANT_SEED)

    model = small_model()
    fit = training.train_supervised(model, bundle.train, bundle.val, cfg)
    print("read train_supervised", fit.best_epoch, *(e.val_loss.hex() for e in fit.epochs))
    metrics = training.evaluate(model, bundle.test, bundle.normalizer)
    print("read evaluate", metrics["mse"].hex(), metrics["mae"].hex())
    for tag, m in (("one-view", small_model(two_view=False)), ("two-view", model)):
        embeds = analysis.view_embeddings(m, bundle.test)
        print("read view_embeddings", tag, *(f"{k}={_digest(v)}" for k, v in embeds.items()))
    print("read consistency_gap", analysis.consistency_gap(model, bundle.test).hex())
    corr = analysis.correlation_preservation(model, bundle.test)
    print("read correlation_preservation", corr["gap_mse"].hex(), _digest(corr["r_z"]))
    bias = analysis.reversal_bias(model, bundle.test, bundle.normalizer)
    print("read reversal_bias", bias.mse_fwd.hex(), bias.mse_rev.hex())
    robust = analysis.permutation_robustness(
        model, bundle.test, bundle.normalizer, n_perms=2, seed=VARIANT_SEED
    )
    print("read permutation_robustness", *(v.hex() for v in robust["mse_values"]))
    for mode in training.PRETEXT_MODES:
        pretrained = small_model()
        fit = training.pretrain(pretrained, bundle.train, bundle.val, cfg, mode=mode)
        print("read pretrain", mode, *(e.val_loss.hex() for e in fit.epochs))
        if mode == "ccm":
            ccm_model = pretrained
    fit = training.linear_probe(ccm_model, bundle.train, bundle.val, cfg)
    print("read linear_probe", fit.best_epoch, *(e.val_loss.hex() for e in fit.epochs))


CLI_CONFIG = {
    "run_name": "cli",
    "dataset": {
        "kind": "synthetic-correlated", "name": "cli", "channels": 5, "length": 400,
        "seed": VARIANT_SEED, "family": "other",
    },
    "model": {
        "lookback": 16, "horizon": 8, "d_model": 8, "n_layers": 2, "d_state": 4,
        "reg_weight": 0.1,
    },
    "train": {"max_epochs": 2, "batch_size": 16, "seed": VARIANT_SEED},
}
CLI_HASHED = (".csv", ".json", ".npz", ".yaml")


def _print_cli() -> None:
    import contextlib
    import io
    import json
    import tempfile

    import yaml

    from sormamba import cli

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "exp.yaml"
        config.write_text(yaml.safe_dump(CLI_CONFIG))
        out = root / "out"
        pretrained = str(out / "pretrain" / "pretrained.npz")
        trained = str(out / "train" / "checkpoint.npz")
        commands = [
            ("prepare", ["prepare-data"]),
            ("train", ["train"]),
            ("pretrain", ["pretrain", "--task", "ccm"]),
            ("probe", ["probe", "--checkpoint", pretrained]),
            ("finetune", ["finetune", "--checkpoint", pretrained]),
            ("evaluate", ["evaluate", "--checkpoint", trained]),
            ("bias", ["analyze", "bias", "--checkpoint", trained]),
            ("robustness", ["analyze", "robustness", "--checkpoint", trained, "--n-perms", "2"]),
            ("correlation", ["analyze", "correlation", "--checkpoint", trained]),
            ("efficiency", ["analyze", "efficiency"]),
            ("missingness", ["analyze", "missingness", "--rates", "0,0.5", "--seeds", "0"]),
            ("export", ["export-embeddings", "--checkpoint", trained]),
        ]
        for run_name, argv in commands:
            argv = argv + ["--config", str(config), "--out-root", str(out)]
            argv += ["--set", f"run_name={run_name}"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            print("cli", run_name, "exit", rc)
        for path in sorted(out.rglob("*")):
            rel = path.relative_to(out).as_posix()
            if path.name == "lineage.json":
                lineage = json.loads(path.read_text())
                print("cli file", rel, lineage["source_sha256"], lineage["produced"])
            elif path.suffix in CLI_HASHED:
                print("cli file", rel, hashlib.sha256(path.read_bytes()).hexdigest())


def _save_grads(path: Path, grads: dict[str, dict]) -> None:
    import numpy as np

    arrays = {f"{group}/{param}": g for group, items in grads.items() for param, g in items.items()}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _print_against(path: Path, grads: dict[str, dict]) -> None:
    """One line per group: the worst relative gradient difference and where."""
    import numpy as np

    with np.load(path, allow_pickle=False) as saved:
        ref = {key: saved[key] for key in saved.files}
    for group, items in grads.items():
        worst, where = 0.0, "-"
        for param, g in items.items():
            want = ref.get(f"{group}/{param}")
            if want is None or want.shape != g.shape:
                worst, where = float("inf"), f"{param}(missing)"
                break
            scale = np.max(np.abs(want))
            diff = np.max(np.abs(g - want))
            rel = diff / scale if scale > 0 else (0.0 if diff == 0 else float("inf"))
            if rel > worst:
                worst, where = rel, param
        print("against", group, f"{worst:.3g}", where)


if __name__ == "__main__":
    # before numpy is first imported, which is when OpenBLAS reads them
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
