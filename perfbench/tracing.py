"""Spans around calls into sormamba's public functions, for the traced run.

The wrappers are installed from outside the package. Each target is named by
module and attribute and resolved when tracing starts; a module-level
function is rebound in every loaded ``sormamba`` module that holds the same
object, so a name taken in with ``from .x import y`` is traced too. A target
that no longer exists is reported as absent instead of failing the run.

Spans stay in memory (name, start, end, parent, step id and a few computed
attributes) and are written out once the run ends. ``autodiff.from_op`` gets
a counter instead of a span: it adds the op and the bytes of its output to
the innermost open span, so op counts are attributed where the op ran.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

MIB = float(1 << 20)


def _scan_steps(args, result):
    return {"scan_steps": args[0].shape[1]}


def _scan_forward_attrs(args, result):
    return {"scan_steps": args[0].shape[1], "hs_bytes": result[1].nbytes}


def _window_bytes(args, result):
    return {"bytes": sum(part.nbytes for part in result)}


def _param_count(args, result):
    return {"params": sum(p.size for p in args[0].parameters())}


@dataclass(frozen=True)
class Target:
    module: str  # under the sormamba package
    attr: str  # dotted below the module, e.g. "Adam.step"
    span: str
    # computed attributes of one call, from its arguments and result
    annotate: Callable | None = None


TARGETS = (
    Target("synthetic", "correlated_series", "synthetic.series"),
    Target("data", "build_splits", "data.build_splits"),
    Target("data", "make_windows", "data.make_windows", _window_bytes),
    Target("model", "SORMambaModel.__init__", "model.init", _param_count),
    Target("model", "SORMambaModel.forecast", "model.forecast"),
    Target("blocks", "DirectionalEncoderCD.forward_pair", "blocks.forward_pair"),
    Target("blocks", "CDMambaBlock.__call__", "blocks.block"),
    Target("ssm", "selective_scan", "ssm.selective_scan"),
    Target("ssm", "discretize", "ssm.discretize"),
    Target("ssm", "scan_core", "ssm.scan_core"),
    Target("scan_kernels", "scan_forward", "scan_kernels.scan_forward", _scan_forward_attrs),
    Target("scan_kernels", "scan_backward", "scan_kernels.scan_backward", _scan_steps),
    Target("autodiff", "backward", "autodiff.backward"),
    Target("autodiff", "layer_norm", "autodiff.layer_norm"),
    Target("losses", "total_loss", "losses.total_loss"),
    Target("training", "Adam.step", "training.adam"),
    Target("training", "evaluate", "training.evaluate"),
    Target("analysis", "reversal_bias", "analysis.reversal_bias"),
    Target("analysis", "permutation_robustness", "analysis.permutation_robustness"),
)
OP_COUNTER = Target("autodiff", "from_op", "autodiff.from_op")


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "attrs")

    def __init__(self, name, start, parent, step):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.step = step
        self.attrs = {}

    def to_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "step": self.step,
            **self.attrs,
        }


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.step: str | None = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.step))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def current(self) -> int | None:
        return self._open[-1] if self._open else None

    def add(self, index: int | None, attrs: dict) -> None:
        if index is None:
            return
        target = self.spans[index].attrs
        for key, value in attrs.items():
            target[key] = target.get(key, 0) + value

    def run_step(self, step_id: str, fn):
        """Run ``fn`` as the root span of one workload step or set-up."""
        self.step = step_id
        index = self.begin("bench.step")
        try:
            return fn()
        finally:
            self.end(index)
            self.step = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")


def _resolve(target: Target):
    module = sys.modules.get(f"sormamba.{target.module}")
    owner = module
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


class Installed:
    """Wrappers in place; ``restore`` puts every original back."""

    def __init__(self, tracer: Tracer):
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []
        for target in TARGETS:
            self._wrap(target, self._span_wrapper(tracer, target))
        self._wrap(OP_COUNTER, self._op_counter(tracer))

    def _wrap(self, target: Target, make) -> None:
        found = _resolve(target)
        if found is None:
            self.absent.append(target.span)
            return
        owner, attr = found
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        if isinstance(owner, type):
            own = attr in vars(owner)
            setattr(owner, attr, wrapper)
            self._undo.append(
                (lambda: setattr(owner, attr, original))
                if own
                else (lambda: delattr(owner, attr))
            )
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "sormamba" or name.startswith("sormamba.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, original)
                    )

    @staticmethod
    def _span_wrapper(tracer: Tracer, target: Target):
        def make(fn):
            def wrapper(*args, **kwargs):
                index = tracer.begin(target.span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                if target.annotate is not None:
                    try:
                        tracer.add(index, target.annotate(args, result))
                    except (AttributeError, IndexError, TypeError):
                        pass  # signature changed: the computed count is absent
                return result

            return wrapper

        return make

    @staticmethod
    def _op_counter(tracer: Tracer):
        def make(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                value = out.data
                counts = {"ops": 1, "op_bytes": value.nbytes}
                if value.ndim == 4:
                    counts["op4d_bytes"] = value.nbytes
                tracer.add(tracer.current(), counts)
                return out

            return wrapper

        return make

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# derived per-layer figures


def _per_step(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per step id: inclusive and self seconds and call counts per span
    name, plus the computed attributes summed by where they belong."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    in_ssm = [False] * len(spans)
    for i, span in enumerate(spans):
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
            in_ssm[i] = in_ssm[span.parent]
        if span.name == "ssm.selective_scan":
            in_ssm[i] = True
    steps: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        acc = steps.setdefault(span.step, {})
        dur = span.end - span.start

        def put(key, value):
            acc[key] = acc.get(key, 0) + value

        put(f"{span.name}.inc", dur)
        put(f"{span.name}.self", dur - child_time[i])
        put(f"{span.name}.calls", 1)
        for key, value in span.attrs.items():
            put(f"{span.name}.{key}", value)
            if key in ("ops", "op_bytes", "scan_steps"):
                put(key, value)
            if key == "op4d_bytes" and in_ssm[i]:
                put("ssm_op4d_bytes", value)
    return steps


def _median(rows: list[dict], key: str, scale: float = 1.0) -> float:
    if not rows:
        return 0.0
    return statistics.median(row.get(key, 0) for row in rows) * scale


# (metric, unit, source key, scale); sources read ``_per_step`` rows. A step
# is one train step, or one analysis round on analyze-weather. Where each
# group should show in the end-to-end figures:
# - scan_kernels.*, ssm.*: step_ms.p50 and step_peak_mib, most on train-solar
#   and least on train-etth1; the forward side also on analyze-weather
# - blocks.*: step_ms.p50 on every workload
# - autodiff.*: step_ms.p50 and step_peak_mib on the train workloads (the
#   backward figures are 0 on analyze-weather, which records no tape)
# - model.forecast_ms, losses.*, training.adam_ms: step_ms.p50; Adam most
#   on train-etth1
# - training.evaluate_s, analysis.*: windows_per_s on analyze-weather
# - set-up figures: setup_s and setup_peak_mib, most on train-solar
STEP_METRICS = (
    ("scan_kernels.scan_forward_ms", "ms", "scan_kernels.scan_forward.inc", 1e3),
    ("scan_kernels.scan_backward_ms", "ms", "scan_kernels.scan_backward.inc", 1e3),
    ("scan_kernels.steps", "count", "scan_steps", 1),
    ("scan_kernels.hs_mib", "MiB", "scan_kernels.scan_forward.hs_bytes", 1 / MIB),
    ("ssm.selective_scan_ms", "ms", "ssm.selective_scan.inc", 1e3),
    ("ssm.discretize_ms", "ms", "ssm.discretize.inc", 1e3),
    ("ssm.scan_core_ms", "ms", "ssm.scan_core.inc", 1e3),
    ("ssm.state4d_mib", "MiB", "ssm_op4d_bytes", 1 / MIB),
    ("blocks.forward_pair_ms", "ms", "blocks.forward_pair.inc", 1e3),
    ("blocks.block_ms", "ms", "blocks.block.inc", 1e3),
    ("blocks.block_calls", "count", "blocks.block.calls", 1),
    ("autodiff.ops", "count", "ops", 1),
    ("autodiff.op_out_mib", "MiB", "op_bytes", 1 / MIB),
    ("autodiff.backward_ms", "ms", "autodiff.backward.inc", 1e3),
    ("autodiff.backward_self_ms", "ms", "autodiff.backward.self", 1e3),
    ("autodiff.layer_norm_ms", "ms", "autodiff.layer_norm.inc", 1e3),
    ("model.forecast_ms", "ms", "model.forecast.self", 1e3),
    ("losses.total_loss_ms", "ms", "losses.total_loss.inc", 1e3),
    ("training.adam_ms", "ms", "training.adam.inc", 1e3),
    ("training.evaluate_s", "s", "training.evaluate.inc", 1),
    ("analysis.reversal_bias_s", "s", "analysis.reversal_bias.inc", 1),
    ("analysis.permutation_robustness_s", "s", "analysis.permutation_robustness.inc", 1),
)
SETUP_METRICS = (
    ("model.init_s", "s", "model.init.inc", 1),
    ("model.params", "count", "model.init.params", 1),
    ("synthetic.series_s", "s", "synthetic.series.inc", 1),
    ("data.build_splits_s", "s", "data.build_splits.inc", 1),
    ("data.make_windows_s", "s", "data.make_windows.inc", 1),
    ("data.window_mib", "MiB", "data.make_windows.bytes", 1 / MIB),
)
# targets behind the metrics whose source key does not name a span
_SOURCES = {
    "scan_kernels.steps": {"scan_kernels.scan_forward", "scan_kernels.scan_backward"},
    "autodiff.ops": {"autodiff.from_op"},
    "autodiff.op_out_mib": {"autodiff.from_op"},
    "ssm.state4d_mib": {"autodiff.from_op", "ssm.selective_scan"},
}


def layer_metrics(tracer: Tracer, step_ids, setup_ids) -> dict[str, tuple[float, str, int]]:
    """Median over steps (or set-ups) of each per-layer figure, with its
    unit and sample count."""
    per_step = _per_step(tracer)
    steps = [per_step.get(s, {}) for s in step_ids]
    setups = [per_step.get(s, {}) for s in setup_ids]
    out = {}
    for rows, table in ((steps, STEP_METRICS), (setups, SETUP_METRICS)):
        for name, unit, source, scale in table:
            out[name] = (_median(rows, source, scale), unit, len(rows))
    return out


def absent_metrics(absent_spans: list[str]) -> list[str]:
    """Metrics that read a target missing from the code under test."""
    missing = []
    for name, _, source, _ in STEP_METRICS + SETUP_METRICS:
        spans = _SOURCES.get(name, {source.rsplit(".", 1)[0]})
        if spans & set(absent_spans):
            missing.append(name)
    return missing
