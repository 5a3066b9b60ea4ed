"""Fault census: which Tier-1 test classes catch which planted fault.

Run ``python3 tests/fault_census.py`` (no options). Each fault of
``FAULTS`` is a text patch to one module of ``src/abn``. For each, the
census patches a temporary copy of ``COPIED`` and runs Tier-1 on it once
in a pytest subprocess, two at a time, less ``LEFT_OUT``: the slow trend
check, and ``TestFaultCensus``, which fails on every patched copy by design.
It prints the test classes that fail for each fault, a module-level test
being a class of its own, then the faults that each class alone catches.
The pinned-output tests (``PINNED``) fail on any change to the numbers, so
they print in a column apart and never count as catching a fault; counted,
the hash check alone would excuse almost every unit test.

It stops, naming the fault, if a patch's old text does not occur exactly
once or the patched module does not compile, and exits 1 if the unpatched
copy fails or a fault fails no test outside the pinned column.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ElementTree
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")
LEFT_OUT = ("tests/test_acceptance.py::TestTrendCheck", "tests/test_harness.py::TestFaultCensus")
WORKERS = 2
TIMEOUT_S = 900  # for one Tier-1 run, which takes 20-40 s on 2 busy cores
PINNED = {  # test function: its tag in the pinned column
    "test_outputs_match_pinned_hashes": "hashes",
    "test_worst_errors_match_pinned": "worst-errors",
    "test_pinned_references": "bench-refs",
    "test_train_step_reproduces_train_desk": "train-step",
    "test_bytes_pinned": "synth-bytes",
}


class Fault(NamedTuple):
    """Replace ``old``, which must occur once in ``src/abn/<file>``, by ``new``."""

    name: str
    file: str
    old: str
    new: str


def _in(file: str, *patches: tuple[str, str, str]) -> list[Fault]:
    return [Fault(name, file, old, new) for name, old, new in patches]


FAULTS = [
    # The LSTM direction: forward, live rows and BPTT. "pass" drops a statement.
    *_in("recurrent.py",
         ("forget bias starts at 0", "2 * hidden] = 1.0", "2 * hidden] = 0.0"),
         ("peephole dropped from the forward", "o += w_co * c_new", "pass"),
         ("live rows: forward cell mask dropped", "c_new *= mask[t, :k]", "pass"),
         ("live rows: out zeroing dropped", "h_new[..., k:, :] = c_new", "c_new"),
         ("live rows: cell zeroing dropped", "= c_new[..., k:, :] = 0.0", "= 0.0"),
         ("live rows: dz zeroing dropped", "dz4[t, k:] = 0.0", "pass"),
         ("live rows: dh mask dropped", "dh_t *= mask[at]", "pass"),
         ("live rows: dc mask dropped", "dc_t *= mask[at]", "pass"),
         ("bptt: peephole term dropped", "dc_t += da_o * w_co", "pass"),
         ("bptt: forget factor (1 - f) dropped", "c_in * f * (1.0 - f)", "c_in * f"),
         ("bptt: cell carry through f dropped", "dc_t *= f[at]", "pass"),
         ("bptt: peephole weight reads c_in", "(dz4[:, :, 3] * cell)", "(dz4[:, :, 3] * c_in)"),
         ("bilstm dropout vjp unscaled", "g = g * scale", "pass"),
         ("projection bias dropped", "logits += tc.per_replica(bias.data, 1, 4)", "pass")),
    # The generators: every forward stage, then the VJPs.
    *_in("generators.py",
         ("abn-f embed: tanh dropped", "return np.tanh(e, out=e)", "return e"),
         ("abn-f attention: sum, not mean", "dtype=np.float64) / float(e.shape[-1])",
          "dtype=np.float64)"),
         ("abn-f pool: weights dropped", "np.sum(e * alpha[..., None],", "np.sum(e,"),
         ("heads: beta reads w_gamma", "(z, gen.w_beta.data)", "(z, gen.w_gamma.data)"),
         ("abn-u project: k and q swapped", "gen.w_key, gen.w_query", "gen.w_query, gen.w_key"),
         ("abn-u attention: 1/sqrt(d_a) dropped", "return q / math.sqrt(float(k.shape[-1])),",
          "return q,"),
         ("abn-u context: attention transposed", "return alpha @ v", "return alpha.mT @ v"),
         ("bn pair vjp: gamma and beta swapped", "(g_gamma, g_beta)", "(g_beta, g_gamma)"),
         ("heads vjp: beta share of z dropped", "return g_z + g_z_gamma,", "return g_z_gamma,"),
         ("abn-f vjp: softmax share of g_e dropped",
          "g_e += (g_means / float(e.shape[-1]))[:, :, None]", "pass"),
         ("abn-f vjp: dropout scale dropped", "g_e *= scale", "pass"),
         ("abn-f vjp: g_x += g_x_embed dropped", "g_x += g_x_embed", "pass"),
         ("abn-u vjp: g_v not transposed", "g_v = np.swapaxes(alpha, -1, -2) @", "g_v = alpha @"),
         ("abn-u vjp: g_q missing 1/sqrt(d_a)",
          "(g_scores @ np.swapaxes(k_t, -1, -2)) / math.sqrt(float(k.shape[-1]))",
          "g_scores @ np.swapaxes(k_t, -1, -2)"),
         ("abn-u vjp: g_x += g_x_k dropped", "g_x += g_x_k", "pass")),
    # The normalizer and the masked affine.
    *_in("normalization.py",
         ("bn: padded frames enter the mean", "np.sum(flat * maskcol,", "np.sum(flat,"),
         ("bn: variance over n - 1", "var = np.sum(squares, axis=-2, keepdims=True) / n",
          "var = np.sum(squares, axis=-2, keepdims=True) / (n - 1)"),
         ("bn: running mean momentum swapped", "(1.0 - m) * state.running_mean.data + m *",
          "m * state.running_mean.data + (1.0 - m) *"),
         ("bn vjp: xhat * sum(g * xhat) term dropped",
          " / n + xhat * (np.sum(g * xhat, axis=0) / n)", " / n"),
         ("bn vjp: infer mode ignores std", "return g / std", "return g"),
         ("affine: forward mask dropped", "y *= mask", "pass"),
         ("affine vjp: g * mask dropped", "g = g * mask", "pass")),
    # CTC: the lattice, alpha, the total, each term of beta, decoding.
    # "-np.inf" drops a term of a log-space sum.
    *_in("ctc.py",
         ("lattice: skip allowed into a repeat", " & (ext[:, 2:] != ext[:, :-2])", ""),
         ("lattice: repeats need no extra frame", "s_lens // 2 + repeats", "s_lens // 2"),
         ("live rows: a minimum for the shift", "shift = np.maximum(", "shift = np.minimum("),
         ("alpha: cannot start on the first token", "alpha[0, :, :2] = emit[0, :, :2]",
          "alpha[0, :, :1] = emit[0, :, :1]"),
         ("live rows: one row too few in alpha", "k = frames.live[t]",
          "k = max(frames.live[t] - 1, 0)"),
         ("alpha: advance term dropped", "prev[..., :-1],", "-np.inf,"),
         ("live rows: alpha skip reads the wrong column", "prev[..., 1:-2:2]", "prev[..., :-3:2]"),
         ("alpha: emission dropped", "acc += emit_by_rep[t, :, :k]", "pass"),
         ("total: ending on the last token dropped", "np.logaddexp(final[utt, s_lens - 1],",
          "np.logaddexp(-np.inf,"),
         ("beta: last-blank end preset dropped", "beta[ends, utt, s_lens - 1] = 0.0", "pass"),
         ("beta: last-token end preset dropped",
          "beta[ends, utt, np.maximum(s_lens - 2, 0)] = 0.0", "pass"),
         ("beta: emission dropped", "beta[t + 1] + emit[t + 1]", "beta[t + 1]"),
         ("beta: stay term dropped", "(nxt[:, :-1], nxt[:, 1:],", "(-np.inf, nxt[:, 1:],"),
         ("beta: advance term dropped", "(nxt[:, :-1], nxt[:, 1:],", "(nxt[:, :-1], -np.inf,"),
         ("beta: skip term dropped", "nxt[:, 3::2] + tok_skip", "-np.inf"),
         ("beta: end-frame preset overwritten", "np.maximum(beta[t], acc, out=beta[t])",
          "beta[t] = acc"),
         ("ctc vjp: padded frames get gradient", "frames.mask[:, :, None] * (", "("),
         ("greedy decode: repeats not collapsed", "&= picks[:, 1:] != picks[:, :-1]", "&= True"),
         ("edit distance: insertions dropped", "np.minimum.accumulate(c - j, axis=1) + j", "c")),
    # Frames, the tensor core, Adam and the schedule, training, the check.
    *_in("data.py",
         ("live rows: live as a plain count",
          "(running * np.arange(1, len(lengths) + 1)).max(axis=1)", "running.sum(axis=1)"),
         ("frames: full is the longest length", "int(lengths.min())", "int(lengths.max())")),
    *_in("tensor.py",
         ("softmax vjp: centring dropped", "(g - (g * p).sum(axis=-1, keepdims=True))", "g"),
         ("linear vjp: weight rows misaligned", "x.reshape(-1, x.shape[-1])",
          "x.reshape(-1, x.shape[-1])[::-1]"),
         ("dropout: kept entries not rescaled", "return keep / (1.0 - rate)", "return keep"),
         ("backward: shares overwrite, not add", "None else prior + part", "None else part")),
    *_in("optim.py",
         ("adam: first moment not bias-corrected", "step = m / bc1", "step = m.copy()"),
         ("adam: second moment not squared", "square *= g", "pass"),
         ("adam: epsilon dropped", "denom += state.eps", "pass"),
         ("schedule: improvement sign flipped", "r = (prev - curr)", "r = (curr - prev)")),
    *_in("train.py",
         ("train step: non-finite gradients not counted",
          "state.nonfinite_gradients += grads is not None", "pass")),
    *_in("gradcheck.py", ("gradcheck: central difference over h", "/ (2.0 * h)", "/ h")),
]


def patched_source(fault: Fault) -> str:
    """``fault``'s file with the patch applied. ``ValueError``, naming the
    fault, unless the old text occurs once and the result compiles."""
    path = os.path.join(ROOT, "src", "abn", fault.file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if text.count(fault.old) != 1:
        raise ValueError(f"fault {fault.name!r}: its old text occurs"
                         f" {text.count(fault.old)} times in src/abn/{fault.file}")
    patched = text.replace(fault.old, fault.new)
    try:
        compile(patched, path, "exec")
    except SyntaxError as err:
        raise ValueError(f"fault {fault.name!r}: src/abn/{fault.file} does not"
                         f" compile: {err}") from None
    return patched


class Runs:
    """The pytest process groups of one census run. Once stopped, it kills
    every group it started and starts no other."""

    def __init__(self):
        self.lock, self.groups, self.stopped = threading.Lock(), set(), False

    def start(self, cmd: list[str], **kwargs) -> subprocess.Popen:
        with self.lock:
            if self.stopped:
                raise RuntimeError("the census is stopping")
            proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
            self.groups.add(proc.pid)
        return proc

    def end(self, proc: subprocess.Popen) -> None:
        """Kill ``proc``'s group, with any child it left, and reap ``proc``."""
        with self.lock:
            self.groups.discard(proc.pid)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def stop(self) -> None:
        with self.lock:
            self.stopped = True
            for group in self.groups:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(group, signal.SIGKILL)


def _test_class(classname: str, name: str) -> str:
    """``file.py::Class`` of a junit test case; a module-level test is its
    own class, and a collection error reads ``tests.file (collection)``."""
    if not classname:
        return f"{name} (collection)"
    module, _, cls = classname.removeprefix("tests.").partition(".")
    return f"{module}.py::{cls or name.split('[')[0]}"


def run_tier1(fault: Fault | None, runs: Runs) -> tuple[frozenset[str], frozenset[str]]:
    """The failing test classes outside the pinned column, and the failing
    pinned tests' tags, of one Tier-1 run (less ``LEFT_OUT``) on a
    temporary copy of the tree with ``fault`` applied."""
    with tempfile.TemporaryDirectory(prefix="abn-census-") as tmp:
        shutil.copytree(ROOT, tmp, dirs_exist_ok=True, ignore=lambda path, names: [
            name for name in names if name in ("__pycache__", ".bench_trace")
            or path == ROOT and name not in COPIED])
        if fault:
            with open(os.path.join(tmp, "src", "abn", fault.file), "w", encoding="utf-8") as f:
                f.write(patched_source(fault))
        report = os.path.join(tmp, "report.xml")
        proc = runs.start([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", f"--junitxml={report}",
                           *(f"--deselect={node}" for node in LEFT_OUT)],
                          cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            runs.end(proc)
        if code not in (0, 1) or not os.path.exists(report):
            return frozenset({f"pytest exit {code}"}), frozenset()
        catchers, pinned = set(), set()
        for case in ElementTree.parse(report).iter("testcase"):
            if case.find("failure") is None and case.find("error") is None:
                continue
            test = case.get("name", "")
            if test.split("[")[0] in PINNED:
                pinned.add(PINNED[test.split("[")[0]])
            else:
                catchers.add(_test_class(case.get("classname", ""), test))
        return frozenset(catchers), frozenset(pinned)


def main() -> int:
    try:
        for fault in FAULTS:
            patched_source(fault)
    except ValueError as err:
        sys.exit(f"fault census: {err}")
    t0 = time.monotonic()
    print(f"fault census: {len(FAULTS)} faults, {WORKERS} workers", flush=True)
    found, runs = {}, Runs()
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as pool:
        try:
            clean = pool.submit(run_tier1, None, runs)
            futures = {pool.submit(run_tier1, fault, runs): fault for fault in FAULTS}
            failed = set().union(*clean.result())
            if failed:
                print(f"the unpatched copy fails: {', '.join(sorted(failed))}")
                return 1
            print("the unpatched copy passes", flush=True)
            for future in concurrent.futures.as_completed(futures):
                found[futures[future]] = future.result()
                print(f"  [{len(found)}/{len(FAULTS)}] {futures[future].name}", flush=True)
        finally:  # on an early return or an interrupt, stop every run
            pool.shutdown(wait=False, cancel_futures=True)
            runs.stop()

    print("\n| fault | pinned column | failing test classes outside it |\n|---|---|---|")
    for fault in FAULTS:
        catchers, pinned = found[fault]
        print(f"| {fault.name} ({fault.file}) | {', '.join(sorted(pinned)) or '-'}"
              f" | {', '.join(sorted(catchers)) or 'NONE'} |")
    print("\n| test class | faults it catches | faults it alone catches |\n|---|---|---|")
    for cls in sorted(set().union(*(catchers for catchers, _ in found.values()))):
        caught = [fault for fault in FAULTS if cls in found[fault][0]]
        alone = [fault.name for fault in caught if found[fault][0] == {cls}]
        print(f"| {cls} | {len(caught)} | {'; '.join(alone) or '-'} |")
    uncaught = [fault.name for fault in FAULTS if not found[fault][0]]
    sole = sum(len(found[fault][0]) == 1 for fault in FAULTS)
    print(f"\n{len(FAULTS) - len(uncaught)} of {len(FAULTS)} faults caught outside the pinned"
          f" column, {sole} by one class alone; {time.monotonic() - t0:.0f} s")
    if uncaught:
        print(f"caught by no test outside the pinned column: {'; '.join(uncaught)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
