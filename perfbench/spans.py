"""In-memory spans around the abn layer boundaries, and their per-layer summary.

Tracing works from outside the package: ``Tracer.install`` replaces each
function in ``TARGETS`` with a wrapper at the module attribute its callers
look up (``abn.recurrent.abn_forward``, ``abn.gradcheck.stack_forward``, ...)
and ``Tracer.uninstall`` puts the originals back. Nothing under ``src/abn``
knows it is being traced.

A span is ``[name, start, end, parent, step]``: wall-clock seconds from
``time.perf_counter``, the index of the enclosing span (``None`` for a root)
and the id of the root span it belongs to. Roots are opened by the runner,
one per workload step (``"step"``) or per set-up repetition (``"setup"``).
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute, span name). A span name is ``<layer>.<what>``, where
# the layer is the abn module whose work the span covers.
TARGETS = (
    ("abn.synth", "synth_generate", "synth.generate"),
    ("abn.batching", "make_batches", "batching.make_batches"),
    ("abn.recurrent", "stack_forward", "recurrent.stack_forward"),
    ("abn.train", "stack_forward", "recurrent.stack_forward"),
    ("abn.gradcheck", "stack_forward", "recurrent.stack_forward"),
    ("abn.recurrent", "bilstm_layer", "recurrent.bilstm"),
    ("abn.recurrent", "abn_forward", "generators.abn_forward"),
    ("abn.generators", "standardize_batch", "normalization.standardize"),
    ("abn.generators", "bn_forward", "normalization.bn_forward"),
    ("abn.normalization", "standardize_batch", "normalization.standardize"),
    ("abn.ctc", "sequence_ctc_loss", "ctc.loss"),
    ("abn.train", "sequence_ctc_loss", "ctc.loss"),
    ("abn.gradcheck", "sequence_ctc_loss", "ctc.loss"),
    ("abn.train", "greedy_decode", "ctc.decode"),
    ("abn.train", "edit_distance", "ctc.decode"),
    ("abn.tensor", "backward", "tensor.backward"),
    ("abn.optim", "adam_step", "optim.adam"),
    ("abn.gradcheck", "finite_diff_check", "gradcheck.finite_diff"),
)

# Span name -> per-step self-time metric (ms), before the ".<variant>" suffix.
SELF_MS_METRIC = {
    "tensor.backward": "tensor.backward_ms",
    "recurrent.bilstm": "recurrent.bilstm_ms",
    "recurrent.stack_forward": "recurrent.stack_forward_self_ms",
    "generators.abn_forward": "generators.abn_forward_ms",
    "normalization.standardize": "normalization.standardize_ms",
    "normalization.bn_forward": "normalization.standardize_ms",
    "ctc.loss": "ctc.loss_ms",
    "ctc.decode": "ctc.decode_ms",
    "optim.adam": "optim.adam_ms",
}
# The spans that make up one evaluation inside a finite-difference check.
GRADCHECK_EVAL = ("recurrent.stack_forward", "ctc.loss")
SETUP_MS_METRIC = {
    "synth.generate": "synth.generate_ms",
    "batching.make_batches": "batching.make_batches_ms",
}
# Layers whose self-time shares of a step are reported; "other" is the
# step's own self time (the benchmark loop and unwrapped program code).
SHARE_LAYERS = (
    "tensor", "recurrent", "generators", "normalization", "ctc", "optim", "gradcheck", "other",
)


class Tracer:
    """Collects spans in memory; wraps and unwraps the ``TARGETS``."""

    def __init__(self):
        self.spans: list[list] = []
        self.roots: dict[int, tuple[str, str]] = {}  # step id -> (kind, variant)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._step = -1
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._step])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was innermost")

    def begin_root(self, kind: str, variant: str) -> int:
        if self._stack:
            raise RuntimeError("a root span cannot open inside another span")
        self._step += 1
        self.roots[self._step] = (kind, variant)
        return self.begin(kind)

    def _wrap(self, original, name: str):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end(index)

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str, header: dict) -> None:
        """Spans as JSON, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), parent, step]
            for name, s, e, parent, step in self.spans
        ]
        doc = dict(header)
        doc["span_fields"] = ["name", "start_us", "end_us", "parent", "step"]
        doc["roots"] = {str(k): list(v) for k, v in self.roots.items()}
        doc["unwrapped"] = self.missing
        doc["spans"] = rows
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the summed durations of its children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def summarize(tracer: Tracer, variants) -> dict:
    """Per-variant means per step, in ms, plus set-up means and shares.

    Returns ``{"steps": {v: n}, "step_ms": {v: ms}, "self_ms": {v: {metric: ms}},
    "shares": {v: {layer: pct}}, "forward_evals": {v: n},
    "eval_ms": {v: ms}, "setup_ms": {metric: ms}}``. Every per-step value is
    a mean over the variant's traced steps, so the shares of one variant
    add up to 100 percent of its ``step_ms``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    steps = {v: 0 for v in variants}
    step_s = {v: 0.0 for v in variants}
    layer_s = {v: {layer: 0.0 for layer in SHARE_LAYERS} for v in variants}
    self_s = {v: dict.fromkeys(SELF_MS_METRIC.values(), 0.0) for v in variants}
    evals = {v: 0 for v in variants}
    eval_s = {v: 0.0 for v in variants}
    setups = 0
    setup_s = {m: 0.0 for m in SETUP_MS_METRIC.values()}

    for (name, start, end, parent, step), own in zip(spans, selfs):
        kind, variant = tracer.roots[step]
        if kind == "setup":
            if parent is None:
                setups += 1
            elif name in SETUP_MS_METRIC:
                setup_s[SETUP_MS_METRIC[name]] += own
            continue
        if parent is None:
            steps[variant] += 1
            step_s[variant] += end - start
            layer_s[variant]["other"] += own
            continue
        layer_s[variant][name.split(".", 1)[0]] += own
        if name in SELF_MS_METRIC:
            self_s[variant][SELF_MS_METRIC[name]] += own
        if spans[parent][0] == "gradcheck.finite_diff" and name in GRADCHECK_EVAL:
            # One evaluation of the checked function: forward, then loss.
            if name == "recurrent.stack_forward":
                evals[variant] += 1
            eval_s[variant] += end - start

    def per_step(seconds, v):
        return 1e3 * seconds / steps[v] if steps[v] else 0.0

    return {
        "steps": steps,
        "step_ms": {v: per_step(step_s[v], v) for v in variants},
        "self_ms": {
            v: {metric: per_step(s, v) for metric, s in self_s[v].items()} for v in variants
        },
        "shares": {
            v: {
                layer: (100.0 * s / step_s[v] if step_s[v] else 0.0)
                for layer, s in layer_s[v].items()
            }
            for v in variants
        },
        "forward_evals": {v: (evals[v] / steps[v] if steps[v] else 0.0) for v in variants},
        "eval_ms": {v: (1e3 * eval_s[v] / evals[v] if evals[v] else 0.0) for v in variants},
        "setup_ms": {m: (1e3 * s / setups if setups else 0.0) for m, s in setup_s.items()},
    }
