"""The benchmark workloads and the closed-loop runner that times them.

Every workload runs the three normalizer variants, interleaved step by step
so that drift in machine speed hits them alike. A single caller issues the
next step when the previous one returns (a closed loop); nothing runs
concurrently. A "pass" is every step of a workload once per variant; the
runner keeps starting passes while the next one still fits the time budget,
and always runs at least one.

Workloads (all sizes follow ``configs/desk.cfg`` unless stated):

* ``train-desk``: full training steps on the desk training set (600
  utterances, about 6,400 valid frames in 27 batches), as ``run_training``
  makes them per batch: taped ``stack_forward``, ``sequence_ctc_loss``,
  ``backward``, ``adam_step`` and the greedy-decode error count.
* ``infer-long``: ``evaluate`` with no tape, one batch per call, on 60
  utterances of 15 to 20 tokens (45 to 80 frames each) batched under a
  1,000-frame budget. Generator heads are drawn at random so that the
  abn variants do not reduce to plain batch norm.
* ``gradcheck-small``: ``model_gradient_check`` (hidden 4, B=2) at T=7, the
  longest of the Tier-1 lengths (1, 2, 5, 7), on the Tier-1 check's own
  data (seed 0); one call is one step. At these shapes every op is per-op
  overhead, and T=7 is where a whole-sequence LSTM has steps to fuse. It
  is about 30% of the full check, which takes about 105 s for the three
  variants: more than one run may take, and a traced run, which runs every
  step twice, could not fit even T=1 and T=7 in a slow phase of the host.

A unit of work is 1,000 valid frames on the first two and one model
gradient check on the third; ``sec_per_unit.<variant>`` is its wall time,
taken as the variant's busy time over the units done in the whole measured
window. Set-up is timed within the same window: throwaway set-ups run
between the steps, taking up to ``SETUP_SHARE`` of it, and ``setup_s`` is
their median. Both are reported at reference host speed: divided by the
host factor that a calibration kernel, sampling the untraced steps and
set-ups for about ``CALIB_SHARE`` of their time, measures in the same
window (see ``hostspeed.py``). The raw wall times are printed beside them.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

from abn import batching, ctc, gradcheck, optim, recurrent, synth, tensor, train
from abn.config import load_config
from abn.data import SequenceBatch
from abn.errors import AbnError

import hostspeed
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_CONFIG = os.path.join(ROOT, "configs", "desk.cfg")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

VARIANTS = ("bn", "abn-f", "abn-u")
# Throwaway set-ups between the measured steps take this share of the
# steps' busy time (at least one set-up per run), at most SETUPS_PER_STEP
# of them after one step, so that a cheap set-up is not repeated thousands
# of times.
SETUP_SHARE = 0.1
SETUPS_PER_STEP = 20
# The calibration kernel samples every untraced step for about this share
# of the step's wall time.
CALIB_SHARE = 0.1
FRAMES_PER_UNIT = 1000

# Output checks. Losses are compared to references recorded from the
# unoptimized code with this relative tolerance, which leaves room for
# reordered floating-point sums (fused kernels, batched reductions) but
# not for a changed result. TER is a ratio of integer counts and must
# match exactly. The gradient check uses the acceptance tolerance.
LOSS_RTOL = 1e-7
GRADCHECK_TOL = 1e-4
# The reference cases are pinned, whatever --seed says: a small training
# run and a small evaluation whose outputs are recorded in reference.json.
# The training run makes two passes over its 3 batches, so that the Adam
# moments and every earlier update feed the losses checked.
REFERENCE_SEED = 0
REFERENCE_TRAIN_UTTERANCES = 40
REFERENCE_TRAIN_EPOCHS = 2
REFERENCE_INFER_UTTERANCES = 12
# The Tier-1 gradient check runs at seed 0. At some other seeds its worst
# error exceeds the tolerance (bn at T=1, seeds 3 and 11; abn-u at T=2,
# seed 3), an open precision problem of the check itself, so the check's
# data stays pinned here and --seed only drives the set-up's node-count
# batch and models.
GRADCHECK_SEED = 0


def desk_config(seed: int, **overrides):
    return dataclasses.replace(load_config(DESK_CONFIG), seed=seed, **overrides)


def count_nodes(model, batches, mode: str) -> float:
    """Tape nodes per valid frame of taped forwards plus CTC loss on ``batches``.

    Taping changes no result, so for an untaped workload this counts the
    primitive operations its forwards execute.
    """
    nodes = 0
    for batch in batches:
        tape = tensor.GradTape()
        with tensor.recording(tape):
            logits = recurrent.stack_forward(batch.features, model, mode, rng=np.random.default_rng(0))
            ctc.sequence_ctc_loss(logits, batch.labels)
        nodes += len(tape)
    return nodes / sum(b.features.valid_frames() for b in batches)


class TrainDesk:
    """Full training steps at the desk shape."""

    name = "train-desk"
    unit = "1,000 valid frames through full training steps"

    def __init__(self, seed: int, utterances: int | None = None, hidden: int | None = None):
        overrides = {"train_utterances": utterances, "hidden": hidden}
        self.cfg = desk_config(seed, **{k: v for k, v in overrides.items() if v is not None})

    def setup(self) -> None:
        cfg = self.cfg
        utts = synth.sorted_for_batching(
            synth.synth_generate(cfg.task(), cfg.train_utterances, seed=1)
        )
        self.batches = batching.make_batches(utts, cfg.max_frames_per_batch)
        self.models, self.adam, self.drop_rng = {}, {}, {}
        for v in VARIANTS:
            model = recurrent.Model(cfg.model_config(v), np.random.default_rng([cfg.seed, 1]))
            self.models[v] = model
            self.adam[v] = optim.AdamState(
                model.parameters(), beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps
            )
            self.drop_rng[v] = np.random.default_rng([cfg.seed, 2])
        self.losses = {v: [] for v in VARIANTS}
        self.tape_nodes = {v: {} for v in VARIANTS}  # batch index -> nodes

    @property
    def n_steps(self) -> int:
        return len(self.batches)

    @property
    def units_per_pass(self) -> float:
        return sum(b.features.valid_frames() for b in self.batches) / FRAMES_PER_UNIT

    def step(self, v: str, i: int) -> bool:
        batch, model = self.batches[i], self.models[v]
        tape = tensor.GradTape()
        with tensor.recording(tape):
            logits = recurrent.stack_forward(batch.features, model, "train", rng=self.drop_rng[v])
            loss = ctc.sequence_ctc_loss(logits, batch.labels)
        self.tape_nodes[v][i] = len(tape)
        value = loss.item()
        self.losses[v].append(value)
        if not np.isfinite(value):
            return False  # run_training skips the update of such a batch
        grads = tensor.backward(tape, loss)
        params = model.parameters()
        grad_arrays = {name: grads.wrt(t) for name, t in params.items()}
        for name, t in optim.adam_step(params, grad_arrays, self.adam[v], self.cfg.initial_lr).items():
            model.set_parameter(name, t)
        train._decode_errors(logits, batch.labels)
        return True

    def report(self) -> list[str]:
        return [
            f"loss.{v} first step {self.losses[v][0]:.4f}, last step {self.losses[v][-1]:.4f}"
            for v in VARIANTS
        ]

    def node_probe(self, v: str) -> float:
        """Tape nodes per valid frame over the steps taken so far."""
        nodes = self.tape_nodes[v]
        return sum(nodes.values()) / sum(self.batches[i].features.valid_frames() for i in nodes)

    @staticmethod
    def reference_outputs() -> dict:
        """Losses of every training step of the pinned reference case."""
        ref = TrainDesk(REFERENCE_SEED, utterances=REFERENCE_TRAIN_UTTERANCES)
        ref.setup()
        for _ in range(REFERENCE_TRAIN_EPOCHS):
            for i in range(ref.n_steps):
                for v in VARIANTS:
                    ref.step(v, i)
        return {v: {"losses": ref.losses[v]} for v in VARIANTS}


class InferLong:
    """Untaped ``evaluate`` on long utterances."""

    name = "infer-long"
    unit = "1,000 valid frames through evaluate"

    def __init__(self, seed: int, utterances: int = 60, hidden: int | None = None):
        overrides = {"hidden": hidden} if hidden is not None else {}
        self.cfg = desk_config(
            seed,
            task_min_tokens=15,
            task_max_tokens=20,
            dev_utterances=utterances,
            max_frames_per_batch=1000,
            **overrides,
        )

    def setup(self) -> None:
        cfg = self.cfg
        utts = synth.sorted_for_batching(
            synth.synth_generate(cfg.task(), cfg.dev_utterances, seed=2)
        )
        self.batches = batching.make_batches(utts, cfg.max_frames_per_batch)
        self.models = {}
        for v in VARIANTS:
            model = recurrent.Model(cfg.model_config(v), np.random.default_rng([cfg.seed, 1]))
            heads = np.random.default_rng([cfg.seed, 3])
            for name, t in model.parameters().items():
                if name.endswith((".gen.w_gamma", ".gen.w_beta")):
                    model.set_parameter(name, tensor.Tensor(heads.normal(0.0, 0.1, size=t.shape)))
            self.models[v] = model
        self.results = {v: [] for v in VARIANTS}

    @property
    def n_steps(self) -> int:
        return len(self.batches)

    @property
    def units_per_pass(self) -> float:
        return sum(b.features.valid_frames() for b in self.batches) / FRAMES_PER_UNIT

    def step(self, v: str, i: int) -> bool:
        loss, ter = train.evaluate(self.models[v], [self.batches[i]])
        self.results[v].append((loss, ter))
        return bool(np.isfinite(loss)) and 0.0 <= ter

    def report(self) -> list[str]:
        return [
            f"batch loss.{v} {min(r[0] for r in self.results[v]):.4f}"
            f" to {max(r[0] for r in self.results[v]):.4f}"
            for v in VARIANTS
        ]

    def node_probe(self, v: str) -> float:
        return count_nodes(self.models[v], self.batches, "infer")

    @staticmethod
    def reference_outputs() -> dict:
        """Dev loss and TER of ``evaluate`` on the pinned reference case."""
        ref = InferLong(REFERENCE_SEED, utterances=REFERENCE_INFER_UTTERANCES)
        ref.setup()
        out = {}
        for v in VARIANTS:
            loss, ter = train.evaluate(ref.models[v], ref.batches)
            out[v] = {"loss": loss, "ter": ter}
        return out


class GradcheckSmall:
    """The Tier-1 model gradient check at its longest sequence length."""

    name = "gradcheck-small"
    unit = "one model gradient check at T=7"
    # model_gradient_check's own shapes: two layers, B=2, 3 symbols,
    # generator widths 2; hidden 4 and 6 features unless shrunk for tests.
    VOCAB = 3

    def __init__(self, seed: int, hidden: int = 4, features: int = 6, t_values=(7,)):
        self.seed = seed
        self.hidden = hidden
        self.features = features
        self.t_values = tuple(t_values)

    def setup(self) -> None:
        """A batch and a model per variant at the check's shape, for the node count.

        The check builds its own models and data, so this is all the set-up
        it has.
        """
        t_max = max(self.t_values)
        rng = np.random.default_rng([self.seed, 1])
        lengths = [t_max, max(1, (t_max + 1) // 2)]
        self.batch = batching.Batch(
            SequenceBatch(tensor.Tensor(rng.normal(size=(2, t_max, self.features))), lengths),
            [ctc.LabelSequence([1]) for _ in lengths],
        )
        self.models = {}
        for v in VARIANTS:
            cfg = recurrent.ModelConfig(
                2, self.hidden, self.features, self.VOCAB, v,
                dropout=0.0, embed_dim=2, attn_dim=2,
            )
            self.models[v] = recurrent.Model(cfg, rng)
        self.worst = {v: [] for v in VARIANTS}

    @property
    def n_steps(self) -> int:
        return len(self.t_values)

    units_per_pass = 1.0

    def step(self, v: str, i: int) -> bool:
        """The check at one length; a pass covers every length once."""
        worst = gradcheck.model_gradient_check(
            v,
            seed=GRADCHECK_SEED,
            t_values=(self.t_values[i],),
            hidden=self.hidden,
            features=self.features,
        )
        self.worst[v].append(worst)
        return worst < GRADCHECK_TOL

    def report(self) -> list[str]:
        return [
            f"worst gradient error.{v} {max(self.worst[v]):.3e} (tolerance {GRADCHECK_TOL:g})"
            for v in VARIANTS
        ]

    def node_probe(self, v: str) -> float:
        return count_nodes(self.models[v], [self.batch], "train")

    @staticmethod
    def reference_outputs() -> dict:
        return {}


WORKLOADS = {w.name: w for w in (TrainDesk, InferLong, GradcheckSmall)}


def environment() -> dict:
    """Interpreter, library and BLAS settings the numbers were taken under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Output checks attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@contextlib.contextmanager
def traced(tracer: spans.Tracer | None, kind: str, variant: str):
    """Trace the block under a root span of its own, or run it plain.

    The tracer's wrappers are installed only for the block, so traced and
    untraced work can alternate within one measured window.
    """
    if tracer is None:
        yield
        return
    tracer.install()
    root = tracer.begin_root(kind, variant)
    try:
        yield
    finally:
        tracer.end(root)
        tracer.uninstall()


def run_once(
    wl, v: str, i: int, tracer: spans.Tracer | None, calibration: hostspeed.Calibration
) -> tuple[float, bool]:
    """Step ``i`` of variant ``v``: its wall seconds and whether it passed.

    An untraced step is sampled by ``calibration``; the kernel's time is
    taken out of the step's.
    """
    sampling = calibration.sampling(v) if tracer is None else contextlib.nullcontext()
    with traced(tracer, "step", v), sampling:
        kernel_s = calibration.total_s
        t0 = time.perf_counter()
        try:
            ok = wl.step(v, i)
        except AbnError as exc:
            print(f"step {i} of {v} raised {type(exc).__name__}: {exc}")
            ok = False
        seconds = time.perf_counter() - t0 - (calibration.total_s - kernel_s)
    return seconds, ok


def time_setup(wl, tracer: spans.Tracer | None, calibration: hostspeed.Calibration) -> float:
    """Wall seconds of one set-up of a throwaway copy of ``wl``.

    An untraced set-up is sampled by ``calibration`` like a step.
    """
    scratch = copy.copy(wl)  # set-up rebinds attributes, so ``wl`` keeps its state
    sampling = calibration.sampling("setup") if tracer is None else contextlib.nullcontext()
    with traced(tracer, "setup", ""), sampling:
        kernel_s = calibration.total_s
        t0 = time.perf_counter()
        scratch.setup()
        return time.perf_counter() - t0 - (calibration.total_s - kernel_s)


def measure(wl, seconds: float, tally: Tally, tracer: spans.Tracer | None = None) -> dict:
    """Closed-loop passes within ``seconds``; seconds per unit and per set-up.

    Each step runs once per variant, the variants one after another. With a
    tracer, every variant's step runs twice, untraced and traced, in an order
    that flips from one step to the next. After each step, throwaway set-ups
    run until their busy time is ``SETUP_SHARE`` of the untraced steps', up
    to ``SETUPS_PER_STEP`` of them.
    Set-ups are traced when a tracer is given. Untraced steps and set-ups
    are sampled by the calibration kernel for about ``CALIB_SHARE`` of their
    time, and the kernel's time is taken out of theirs.

    Returns ``{"plain": {v: s}, "traced": {v: s} or None, "setup_s": s,
    "setups": n, "host_factor": {v or "setup": x}}``: a variant's total step
    time over the units of work done, i.e. the inverse of its throughput
    over the whole measured window, the median wall time of the set-ups,
    and the host factors measured in the window. All times are raw wall
    times.
    """
    sides = (None, tracer) if tracer else (None,)
    busy = [dict.fromkeys(VARIANTS, 0.0) for _ in sides]
    setup_times, turn, passes = [], 0, 0
    calibration = hostspeed.Calibration(CALIB_SHARE)
    with calibration.installed():
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for i in range(wl.n_steps):
                for v in VARIANTS:
                    order = range(len(sides)) if turn % 2 == 0 else reversed(range(len(sides)))
                    turn += 1
                    for side in order:
                        spent, ok = run_once(wl, v, i, sides[side], calibration)
                        busy[side][v] += spent
                        tally.check(ok, f"{wl.name} step {i} of {v}")
                for _ in range(SETUPS_PER_STEP):
                    if setup_times and sum(setup_times) >= SETUP_SHARE * sum(busy[0].values()):
                        break
                    setup_times.append(time_setup(wl, tracer, calibration))
            passes += 1
            now = time.perf_counter()
            if (now - start) + (now - pass_start) > seconds:
                break
    units = passes * wl.units_per_pass
    per_unit = [{v: b[v] / units for v in VARIANTS} for b in busy]
    return {
        "plain": per_unit[0],
        "traced": per_unit[1] if tracer else None,
        "setup_s": statistics.median(setup_times),
        "setups": len(setup_times),
        "host_factor": {k: calibration.host_factor(k) for k in VARIANTS + ("setup",)},
    }


def check_references(wl, tally: Tally) -> list[str]:
    """Compare the pinned reference case with reference.json; report lines."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["outputs"].get(wl.name, {})
    lines = []
    for v, got in wl.reference_outputs().items():
        for key, value in got.items():
            want = expected[v][key]
            if key == "ter":
                ok = value == want
            else:
                ok = np.allclose(value, want, rtol=LOSS_RTOL, atol=0.0)
            tally.check(ok, f"{wl.name} reference {key} of {v}")
            lines.append(
                f"check {'PASS' if ok else 'FAIL'} reference {key}.{v}: {value} vs {want}"
            )
    return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Outcome:
    metrics: dict           # name -> {"value": float, "unit": str}
    attempted: int
    failed: int
    lines: list             # human-readable report
    summary: dict | None = None
    tracer: spans.Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def workload_metric_lines(workload: str, unit_s: dict) -> list[str]:
    """The per-workload names: train_fps, infer_fps and gradcheck_s."""
    lines = []
    for v, s in unit_s.items():
        if workload == "gradcheck-small":
            lines.append(f"gradcheck_s.{v} {s:.4f} s")
        else:
            prefix = "train_fps" if workload == "train-desk" else "infer_fps"
            lines.append(f"{prefix}.{v} {FRAMES_PER_UNIT / s:.1f} frames/s")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, **sizes) -> Outcome:
    """Set up, measure and check one workload; ``sizes`` shrink it for tests."""
    wl = WORKLOADS[name](seed, **sizes)
    tally = Tally()
    tracer = spans.Tracer() if trace else None
    wl.setup()
    timed = measure(wl, seconds, tally, tracer)

    lines = [f"env {json.dumps(environment(), sort_keys=True)}"]
    if not trace:
        factor = timed["host_factor"]
        unit_s = {v: s / factor[v] for v, s in timed["plain"].items()}
        setup_s = timed["setup_s"] / factor["setup"]
        metrics = {f"sec_per_unit.{v}": {"value": unit_s[v], "unit": "s"} for v in VARIANTS}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
        lines.append(
            "host_factor " + ", ".join(f"{k} {x:.4f}" for k, x in factor.items())
            + " (raw wall times below are divided by them)"
        )
        lines += [f"raw {line}" for line in workload_metric_lines(name, timed["plain"])]
        lines += workload_metric_lines(name, unit_s)
        lines.append(f"setup_s {setup_s:.4f} s (median of {timed['setups']}, raw {timed['setup_s']:.4f} s)")
        lines.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
        summary = None
    else:
        summary = spans.summarize(tracer, VARIANTS)
        plain, traced_s = timed["plain"], timed["traced"]
        overhead = 100.0 * (sum(traced_s.values()) / sum(plain.values()) - 1.0)
        metrics = layer_metrics(wl, summary, overhead)
        lines += layer_lines(summary, overhead)

    lines += wl.report()
    lines += check_references(wl, tally)
    failed = len(tally.failures)
    lines.append(f"fail_ratio {failed / tally.attempted:.4g} ({failed}/{tally.attempted})")
    lines += [f"failed: {what}" for what in tally.failures]
    return Outcome(metrics, tally.attempted, failed, lines, summary, tracer)


def layer_metrics(wl, summary: dict, overhead_pct: float) -> dict:
    metrics = {}
    for v in VARIANTS:
        metrics[f"tensor.nodes_per_frame.{v}"] = {"value": wl.node_probe(v), "unit": "nodes/frame"}
        for metric, ms in summary["self_ms"][v].items():
            metrics[f"{metric}.{v}"] = {"value": ms, "unit": "ms"}
        metrics[f"gradcheck.forward_evals.{v}"] = {
            "value": summary["forward_evals"][v], "unit": "count"
        }
        metrics[f"gradcheck.eval_ms.{v}"] = {"value": summary["eval_ms"][v], "unit": "ms"}
        metrics[f"step_ms.{v}"] = {"value": summary["step_ms"][v], "unit": "ms"}
    for metric, ms in summary["setup_ms"].items():
        metrics[metric] = {"value": ms, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


def layer_lines(summary: dict, overhead_pct: float) -> list[str]:
    lines = []
    for v in VARIANTS:
        base = summary["step_ms"][v]
        shares = ", ".join(f"{layer} {pct:.1f}%" for layer, pct in summary["shares"][v].items())
        lines.append(
            f"shares.{v} of step_ms.{v} = {base:.3f} ms over {summary['steps'][v]} steps: {shares}"
        )
    lines.append(f"trace.overhead_pct {overhead_pct:.2f} %")
    return lines
