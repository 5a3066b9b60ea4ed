"""The acceptance gate.

Each test is one headline requirement, prints a single PASS/FAIL line
(visible under ``pytest -s``), and enforces its own runtime budget.
"""

import dataclasses
import hashlib
import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from abn.batching import Utterance, make_batches
from abn.config import load_config
from abn.ctc import CtcTargets, LabelSequence, ctc_brute_force, sequence_ctc_loss
from abn.data import SequenceBatch
from abn.generators import (
    FrameAbnGenerator,
    LearnedScaleShift,
    UttAbnGenerator,
    abn_forward,
    frame_attention,
    frame_embed,
    frame_pool,
    head_params,
    utt_attention,
    utt_context,
    utt_project,
)
from abn.gradcheck import model_gradient_check
from abn.normalization import BatchNormState, standardize_batch
from abn.optim import lr_schedule
from abn.tensor import Tensor
from abn.train import run_training

import taped
from taped import finite_diff_check

DESK_CONFIG = "configs/desk.cfg"


def _verdict(ok: bool, name: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _random_batch(rng, batch=3, t_max=6, dim=5) -> SequenceBatch:
    lengths = rng.integers(2, t_max + 1, size=batch)
    lengths[0] = t_max
    feats = rng.normal(size=(batch, t_max, dim))
    for b, length in enumerate(lengths):
        feats[b, length:] = 0.0
    return SequenceBatch(Tensor(feats), lengths)


def _op_gradient_cases():
    """One finite-difference case per differentiable primitive, plus the
    batched forms that the generators use."""
    rng = np.random.default_rng(7)
    m = Tensor(rng.normal(size=(2, 3)))
    pos = Tensor(np.abs(rng.normal(size=(2, 3))) + 0.5)
    vec = Tensor(rng.normal(size=4))
    c23 = Tensor(rng.normal(size=(2, 3)))
    c32 = Tensor(rng.normal(size=(3, 2)))
    c3 = Tensor(rng.normal(size=3))
    w23 = Tensor(rng.normal(size=(2, 3)))
    x43 = Tensor(rng.normal(size=(4, 3)))
    p2 = Tensor(rng.normal(size=2))
    p22 = Tensor(rng.normal(size=(2, 2)))
    p23 = Tensor(rng.normal(size=(2, 3)))
    p32 = Tensor(rng.normal(size=(3, 2)))
    p42 = Tensor(rng.normal(size=(4, 2)))
    p43 = Tensor(rng.normal(size=(4, 3)))
    p4 = Tensor(rng.normal(size=4))
    mask2 = np.array([True, True, False])
    # Batched [B, ...] operands, drawn apart so the cases above keep their data.
    brng = np.random.default_rng(8)
    m234 = Tensor(brng.normal(size=(2, 3, 4)))
    c242 = Tensor(brng.normal(size=(2, 4, 2)))
    s233 = Tensor(brng.normal(size=(2, 3, 3)))
    p232 = Tensor(brng.normal(size=(2, 3, 2)))
    p233 = Tensor(brng.normal(size=(2, 3, 3)))
    p243 = Tensor(brng.normal(size=(2, 4, 3)))
    key_mask = np.array([[[True, True, False]], [[True, False, False]]])
    # The batch-norm nodes, on data of their own: a padded [3, 4, 2] batch
    # and a T=1 batch of 2 frames, probed on every row, padded ones too.
    nrng = np.random.default_rng(9)
    lengths = [4, 2, 3]
    x342 = Tensor(nrng.normal(1.0, 2.0, size=(3, 4, 2)))
    x212 = Tensor(nrng.normal(1.0, 2.0, size=(2, 1, 2)))
    probe_rows = Tensor(nrng.normal(size=(12, 2)).reshape(3, 4, 2))
    probe_t1 = Tensor(nrng.normal(size=(2, 2)).reshape(2, 1, 2))
    running = (Tensor(nrng.normal(size=2)), Tensor(nrng.uniform(0.5, 2.0, size=2)))
    xhat342 = Tensor(nrng.normal(size=(3, 4, 2)))
    probe342 = Tensor(nrng.normal(size=(3, 4, 2)))
    scale_shift = {
        shape: (Tensor(nrng.normal(size=shape)), Tensor(nrng.normal(size=shape)))
        for shape in ((2,), (3, 1, 2), (3, 4, 2))
    }

    def dot(a, probe):
        return taped.tsum(taped.mul(a, probe))

    def standardize(theta, lens, mode):
        state = BatchNormState(*running, 1e-5, 0.1)
        return taped.standardize(SequenceBatch(theta, lens), state, mode)

    def affine(xhat, gamma, beta):
        return taped.masked_affine(xhat, gamma, beta, SequenceBatch(x342, lengths)).features

    def affine_cases():
        for shape, (gamma, beta) in scale_shift.items():
            tag = "x".join(map(str, shape))
            yield (f"affine_mask_gamma_{tag}",
                   lambda th, beta=beta: dot(affine(xhat342, th, beta), probe342), gamma)
            yield (f"affine_mask_beta_{tag}",
                   lambda th, gamma=gamma: dot(affine(xhat342, gamma, th), probe342), beta)

    return [
        ("add", lambda th: dot(taped.add(th, c23), p23), m),
        ("sub", lambda th: dot(taped.sub(c23, th), p23), m),
        ("mul", lambda th: dot(taped.mul(th, c23), p23), m),
        ("div", lambda th: dot(taped.div(c23, th), p23), pos),
        ("matmul", lambda th: dot(taped.matmul(th, c32), p22), m),
        ("transpose", lambda th: dot(taped.transpose(th), p23), Tensor(c32.data)),
        ("matmul_3d", lambda th: dot(taped.matmul(th, c242), p232), m234),
        ("transpose_3d", lambda th: dot(taped.transpose(th), p243), m234),
        ("linear_x", lambda th: dot(taped.linear(th, w23), p42), x43),
        ("linear_w", lambda th: dot(taped.linear(x43, th), p42), w23),
        ("affine_b", lambda th: dot(taped.affine(x43, w23, th), p42), Tensor(rng.normal(size=2))),
        ("sigmoid", lambda th: dot(taped.sigmoid(th), p23), m),
        ("tanh", lambda th: dot(taped.tanh(th), p23), m),
        ("sqrt", lambda th: dot(taped.sqrt(th), p23), pos),
        ("tsum_axis", lambda th: dot(taped.tsum(th, axis=1), p2), m),
        ("tmean", lambda th: dot(taped.tmean(th, axis=0), c3), m),
        ("softmax_1d", lambda th: dot(taped.masked_softmax(th, np.arange(4) < 3), p4), vec),
        ("softmax_2d", lambda th: dot(taped.masked_softmax(th, mask2), p23), m),
        ("softmax_3d", lambda th: dot(taped.masked_softmax(th, key_mask), p233), s233),
        ("reshape", lambda th: dot(taped.reshape(th, (3, 2)), p32), m),
        ("concat", lambda th: dot(taped.concat((th, c23), axis=0), p43), m),
        ("standardize_train",
         lambda th: dot(standardize(th, lengths, "train"), probe_rows), x342),
        ("standardize_t1", lambda th: dot(standardize(th, [1, 1], "train"), probe_t1), x212),
        ("standardize_infer",
         lambda th: dot(standardize(th, lengths, "infer"), probe_rows), x342),
        ("affine_mask_x",
         lambda th: dot(affine(th, *scale_shift[(3, 4, 2)]), probe342), xhat342),
        *affine_cases(),
    ]


# repr of model_gradient_check(variant, seed=seed, t_values=(t,)) at T = 1,
# 2, 5 and 7, per (variant, seed): the check's worst relative error at each
# length, as its default problem and step give it.
PINNED_WORST_ERRORS = {
    ("bn", 0): ("8.101403179237122e-05", "1.3184792726320623e-06",
                "1.7657845961488306e-06", "3.993948721648032e-05"),
    ("bn", 1): ("2.6621984866132066e-05", "4.862976566049416e-06",
                "1.1986062568962528e-06", "1.319667554267698e-06"),
    ("bn", 2): ("1.6701552968859092e-05", "1.2010481956478731e-05",
                "1.9603362771404015e-06", "7.09948887017378e-06"),
    ("bn", 3): ("0.0001530343337589471", "1.8086159419273779e-06",
                "8.759975141999925e-07", "2.647841327204666e-07"),
    ("abn-f", 0): ("3.5935309054667293e-06", "2.4650257485810372e-05",
                   "2.3351046971182656e-06", "4.1873176189588316e-07"),
    ("abn-f", 1): ("7.41004569845305e-05", "1.618676765593298e-05",
                   "1.201604282933416e-06", "4.597405119381763e-06"),
    ("abn-f", 2): ("1.0252717058097057e-05", "1.1409018143179798e-05",
                   "6.135085174491597e-06", "9.985728013365342e-07"),
    ("abn-f", 3): ("0.00010031887951123387", "1.7539415352365709e-06",
                   "3.958527189420695e-06", "8.402536124073209e-07"),
    ("abn-u", 0): ("1.3892260419909927e-05", "5.1924560907007245e-06",
                   "5.385088390263468e-07", "1.5697214006361714e-06"),
    ("abn-u", 1): ("1.6941954981935645e-05", "4.8083505103481016e-06",
                   "1.698130526044354e-06", "2.966381040877417e-06"),
    ("abn-u", 2): ("4.72124395125286e-05", "3.775416369509881e-05",
                   "1.945960997521164e-06", "4.4169586124282645e-06"),
    ("abn-u", 3): ("0.001214808042189608", "0.00015011997712182404",
                   "7.2429628890793554e-06", "7.627438454680833e-07"),
}


class TestGradientSuite:
    def test_gradients(self):
        t0 = time.monotonic()
        worst_op, worst_op_name = 0.0, "-"
        for name, f, theta in _op_gradient_cases():
            err = finite_diff_check(f, theta)
            if err > worst_op:
                worst_op, worst_op_name = err, name
        results = {v: model_gradient_check(v) for v in ("bn", "abn-f", "abn-u")}
        elapsed = time.monotonic() - t0
        worst = max(max(results.values()), worst_op)
        ok = worst < 1e-4 and elapsed < 60.0
        assert _verdict(
            ok,
            "gradient suite",
            f"ops worst {worst_op:.2e} ({worst_op_name}); "
            + "; ".join(f"{v} {e:.2e}" for v, e in results.items())
            + f"; tol 1e-4; {elapsed:.1f}s (limit 60s)",
        )

    def test_worst_errors_match_pinned(self):
        """The model check's worst error at each variant, seed 0-3 and
        length is ``PINNED_WORST_ERRORS``, bit for bit, so a change to the
        check or to any gradient it compares fails here. A deliberate change,
        such as drawing the generator heads, updates the constants and logs
        both values in CHANGES.md.

        As with ``PINNED_SHA256``, the values hold for numpy 2.4.6 and scipy
        1.17.1 with OpenBLAS on one thread. Another numpy, scipy or BLAS may
        round differently and fail this test with the program unchanged. The
        48 checks took 1.0-1.5 s on a 2-core x86 machine; the limit leaves
        about 7 times the slowest.
        """
        t0 = time.monotonic()
        wrong = []
        for (variant, seed), pinned in PINNED_WORST_ERRORS.items():
            for t, want in zip((1, 2, 5, 7), pinned):
                got = repr(model_gradient_check(variant, seed=seed, t_values=(t,)))
                if got != want:
                    wrong.append(f"{variant} seed {seed} T={t}: {got}, pinned {want}")
        elapsed = time.monotonic() - t0
        assert _verdict(
            not wrong and elapsed < 10.0,
            "pinned worst errors",
            f"{len(wrong)} of {4 * len(PINNED_WORST_ERRORS)} differ from PINNED_WORST_ERRORS"
            + "".join(f"; {w}" for w in wrong)
            + (" (a deliberate change updates the constants and logs both values"
               " in CHANGES.md)" if wrong else "")
            + f"; {elapsed:.1f}s (limit 10s)",
        )


class TestReductionEquivalence:
    def test_zero_generators_reduce_to_bn(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(11)
        worst = 0.0
        for variant in ("abn-f", "abn-u"):
            for _ in range(100):
                batch = _random_batch(rng)
                if variant == "abn-f":
                    gen = FrameAbnGenerator.init(5, 3, rng)
                else:
                    gen = UttAbnGenerator.init(5, 3, rng)
                plain = abn_forward(
                    batch, BatchNormState.fresh(5), LearnedScaleShift.init(5), "train"
                )
                adaptive = abn_forward(batch, BatchNormState.fresh(5), gen, "train")
                worst = max(worst, float(np.max(np.abs(plain.features.data - adaptive.features.data))))
        elapsed = time.monotonic() - t0
        ok = worst <= 1e-12 and elapsed < 5.0
        assert _verdict(
            ok,
            "reduction equivalence",
            f"max |abn - bn| {worst:.2e} over 100 batches/variant"
            f" (tol 1e-12); {elapsed:.1f}s (limit 5s)",
        )


class TestBnStatistics:
    def test_standardized_moments(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(13)
        worst_mean, worst_var = 0.0, 0.0
        eps = 1e-5
        for _ in range(50):
            batch = _random_batch(rng, batch=4, t_max=7, dim=6)
            state = BatchNormState.fresh(6, epsilon=eps)
            xhat = standardize_batch(batch, state, "train")[0].reshape(-1, 6)
            mask = batch.frames.mask.reshape(-1)
            valid = xhat[mask]
            raw = batch.features.data.reshape(-1, 6)[mask]
            sigma2 = raw.var(axis=0)
            target = sigma2 / (sigma2 + eps)
            worst_mean = max(worst_mean, float(np.max(np.abs(valid.mean(axis=0)))))
            worst_var = max(worst_var, float(np.max(np.abs(valid.var(axis=0) - target))))

        # Garbage written into padded frames must not leak anywhere.
        batch = _random_batch(rng, batch=3, t_max=6, dim=6)
        noisy = batch.features.data.copy()
        for b, length in enumerate(batch.lengths):
            noisy[b, length:] = 1e6
        tampered = SequenceBatch(Tensor(noisy), batch.lengths)
        bn = LearnedScaleShift.init(6)
        out_a = abn_forward(batch, BatchNormState.fresh(6), bn, "train").features.data
        out_b = abn_forward(tampered, BatchNormState.fresh(6), bn, "train").features.data
        pad_leak = float(np.max(np.abs(out_a - out_b)))

        elapsed = time.monotonic() - t0
        ok = worst_mean < 1e-9 and worst_var < 1e-6 and pad_leak == 0.0 and elapsed < 5.0
        assert _verdict(
            ok,
            "bn statistics",
            f"|mean| {worst_mean:.2e} (tol 1e-9); var dev {worst_var:.2e}"
            f" (tol 1e-6); pad leak {pad_leak:.1e}; {elapsed:.1f}s (limit 5s)",
        )


class TestAttentionProperties:
    def test_rows_masses_and_permutations(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(17)
        row_dev = 0.0
        pad_mass = 0.0
        for _ in range(30):
            scores = Tensor(rng.normal(scale=3.0, size=(5, 5)))
            valid = int(rng.integers(1, 6))
            alpha = taped.masked_softmax(scores, np.arange(5) < valid).data
            row_dev = max(row_dev, float(np.max(np.abs(alpha.sum(axis=1) - 1.0))))
            pad_mass = max(pad_mass, float(np.abs(alpha[:, valid:]).max(initial=0.0)))

        h = rng.normal(size=(6, 5))
        frame_gen = FrameAbnGenerator(
            w_embed=Tensor(rng.normal(size=(3, 5))),
            b_embed=Tensor(rng.normal(size=3)),
            w_gamma=Tensor(rng.normal(size=(5, 3))),
            b_gamma=Tensor(rng.normal(size=5)),
            w_beta=Tensor(rng.normal(size=(5, 3))),
            b_beta=Tensor(rng.normal(size=5)),
        )
        utt_gen = UttAbnGenerator(
            w_key=Tensor(rng.normal(size=(3, 5))),
            w_query=Tensor(rng.normal(size=(3, 5))),
            w_value=Tensor(rng.normal(size=(3, 5))),
            w_gamma=Tensor(rng.normal(size=(5, 3))),
            b_gamma=Tensor(rng.normal(size=5)),
            w_beta=Tensor(rng.normal(size=(5, 3))),
            b_beta=Tensor(rng.normal(size=5)),
        )
        perm = rng.permutation(6)
        h_perm = h[perm]

        def pooled_params(frames):
            e = frame_embed(frames, frame_gen)
            alpha = frame_attention(e, np.ones(len(e), bool))
            row_sum = float(np.sum(alpha))
            gamma, beta = head_params(frame_pool(e, alpha), frame_gen)
            return row_sum, gamma, beta

        sum_a, gamma_a, beta_a = pooled_params(h)
        sum_b, gamma_b, beta_b = pooled_params(h_perm)
        frame_sum_dev = max(abs(sum_a - 1.0), abs(sum_b - 1.0))
        frame_perm_dev = max(
            float(np.max(np.abs(gamma_a - gamma_b))),
            float(np.max(np.abs(beta_a - beta_b))),
        )

        def per_frame_params(frames):
            k, q, v = utt_project(frames, utt_gen)
            alpha = utt_attention(k, q, np.ones(len(k), bool))
            rows_dev = float(np.max(np.abs(alpha.sum(axis=1) - 1.0)))
            gamma, beta = head_params(utt_context(alpha, v), utt_gen)
            return rows_dev, gamma, beta

        rows_a, gamma_u, _ = per_frame_params(h)
        rows_b, gamma_up, _ = per_frame_params(h_perm)
        utt_sum_dev = max(rows_a, rows_b)
        utt_equiv_dev = float(np.max(np.abs(gamma_u[perm] - gamma_up)))

        elapsed = time.monotonic() - t0
        ok = (
            row_dev <= 1e-12
            and pad_mass == 0.0
            and frame_sum_dev <= 1e-12
            and frame_perm_dev <= 1e-12
            and utt_sum_dev <= 1e-12
            and utt_equiv_dev <= 1e-12
            and elapsed < 5.0
        )
        assert _verdict(
            ok,
            "attention properties",
            f"row-sum dev {max(row_dev, frame_sum_dev, utt_sum_dev):.1e} (tol 1e-12);"
            f" padded mass {pad_mass:.1e}; pooled perm-invariance {frame_perm_dev:.1e};"
            f" per-frame equivariance {utt_equiv_dev:.1e}; {elapsed:.1f}s (limit 5s)",
        )


class TestCtcOracle:
    def test_exhaustive_agreement(self):
        t0 = time.monotonic()
        worst = 0.0
        cases = 0
        inf_mismatch = 0
        for vocab in (2, 3):
            rng = np.random.default_rng(100 + vocab)
            label_sets = [
                LabelSequence(list(c))
                for n in range(4)
                for c in itertools.product(range(1, vocab), repeat=n)
            ]
            for t_frames in range(1, 7):
                for labels in label_sets:
                    logits = rng.normal(size=(t_frames, vocab))
                    y_log = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                    expect = ctc_brute_force(y_log, labels)
                    one = SequenceBatch(Tensor(logits[None]), [t_frames])
                    got = sequence_ctc_loss(one, CtcTargets([labels])).item()
                    cases += 1
                    if np.isinf(expect) or np.isinf(got):
                        inf_mismatch += expect != got
                    else:
                        worst = np.maximum(worst, abs(got - expect))  # a NaN fails
        elapsed = time.monotonic() - t0
        ok = worst <= 1e-9 and inf_mismatch == 0 and elapsed < 30.0
        assert _verdict(
            ok,
            "ctc oracle",
            f"{cases} cases; max |fused - enumerated| {worst:.2e} (tol 1e-9);"
            f" infeasible mismatches {inf_mismatch}; {elapsed:.1f}s (limit 30s)",
        )


class TestScheduleBatching:
    def test_tabulated_cases(self):
        t0 = time.monotonic()
        sched_ok = (
            lr_schedule([10.0, 9.9]) == "keep"
            and lr_schedule([10.0, 9.97]) == "halve"
            and lr_schedule([10.0, 9.999]) == "stop"
        )

        rng = np.random.default_rng(23)

        def utts(lengths):
            return [
                Utterance(rng.normal(size=(n, 2)), LabelSequence([1]))
                for n in lengths
            ]

        sizes = lambda batches: [b.features.batch_size for b in batches]
        batch_ok = (
            sizes(make_batches(utts([2500, 2400, 100]), 5000)) == [2, 1]
            and sizes(make_batches(utts([5000]), 5000)) == [1]
            and sizes(make_batches(utts([1000] * 7), 5000)) == [5, 2]
        )
        elapsed = time.monotonic() - t0
        ok = sched_ok and batch_ok and elapsed < 1.0
        assert _verdict(
            ok,
            "schedule/batching",
            f"schedule cases {'ok' if sched_ok else 'WRONG'};"
            f" batch splits {'ok' if batch_ok else 'WRONG'}; {elapsed:.2f}s (limit 1s)",
        )


TREND_RUNS = [(variant, seed) for variant in ("bn", "abn-f", "abn-u") for seed in (0, 1, 2)]


class TestTrendCheck:
    def test_desk_scale_ordering(self, tmp_path):
        t0 = time.monotonic()
        base = load_config(DESK_CONFIG)
        # Two worker processes, one per core of the reference machine. Each
        # run is a pure function of its config, and the summaries are
        # gathered in the serial order. Spawned workers import afresh and
        # inherit the environment, BLAS pinning included.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            futures = [
                pool.submit(run_training, dataclasses.replace(base, seed=seed), variant,
                            str(tmp_path / f"{variant}-{seed}"))
                for variant, seed in TREND_RUNS
            ]
            summaries = [future.result() for future in futures]
        losses = {}
        ters = {}
        for (variant, _), summary in zip(TREND_RUNS, summaries):
            assert summary["epochs_run"] <= 30
            losses.setdefault(variant, []).append(summary["final_dev_loss"])
            ters.setdefault(variant, []).append(summary["final_dev_ter"])
        elapsed = time.monotonic() - t0

        for variant in losses:
            per_seed = ", ".join(
                f"seed{s}: loss {l:.4f} ter {t:.4f}"
                for s, (l, t) in enumerate(zip(losses[variant], ters[variant]))
            )
            print(f"  trend {variant}: {per_seed}")

        worst_ter = max(max(v) for v in ters.values())
        mean_bn = float(np.mean(losses["bn"]))
        mean_f = float(np.mean(losses["abn-f"]))
        rel_gap = (mean_bn - mean_f) / mean_bn
        if abs(mean_f - mean_bn) <= 0.01 * mean_bn:
            ordering = "inconclusive (within 1% relative)"
            order_ok = True
        else:
            order_ok = mean_f < mean_bn
            ordering = f"abn-f {'below' if order_ok else 'ABOVE'} bn by {rel_gap:+.1%}"
        ok = worst_ter <= 0.05 and order_ok and elapsed < 900.0
        assert _verdict(
            ok,
            "trend check",
            f"max dev ter {worst_ter:.4f} (bar 0.05); mean final dev loss"
            f" bn {mean_bn:.4f} vs abn-f {mean_f:.4f} -> {ordering};"
            f" {elapsed:.0f}s (limit 900s)",
        )


# sha256 of (metrics.csv, model.ckpt) of each pinned run: TestDeterminism's
# desk config per variant and dropout, under ABN_DETERMINISTIC=1 (conftest.py).
PINNED_SHA256 = {
    ("bn", 0.0): ("4c21648b7dbb1094d3bb1b4534dc6996e97af6ca9bb88fd664bfff6570154c9f",
                  "3e197170213aa52788c99e6590e58d0b0b3cd6f023df08e56971743eecfb8749"),
    ("bn", 0.3): ("8e27c0fbda514b19cce427f12b5d5f7ea3a07dc844363bfd5cbfff5cee1a9b3e",
                  "cc72e627de5e43901ba9ba42b5b2d38905dff7dc149d35196c291423db7d3dc1"),
    ("abn-f", 0.0): ("17535a8a348a65d72a33ae842e0d7e0908d86e69349bbe9fb8191dea838c1898",
                     "3f79c14d57f8667d44430de62ff0cd64a2fe7259696353e5530856cc29783df4"),
    ("abn-f", 0.3): ("261253656da249f15e9ea472f6f25508f6d81a7a9d55b84cf7df8a0747f74932",
                     "65a6c8ed97c7e2879a2ec5b67c58e263d68f8748c0d8c207368d8a6e00c0c921"),
    ("abn-u", 0.0): ("28317f1f6b76d0ccf4474f3b3272cd3cbc750db294e5d68d7e05c293bd85e5a2",
                     "ea2cfc10cd643e1bdcb5e90a1de5f43a91f0278a88996a005bae3a845eb9976f"),
    ("abn-u", 0.3): ("bd89913e83dfb6e5c97709611534a1d6a7abbcf7e054f306741f46f501ebf7d9",
                     "cac106779c87ad0aba6f1362703f9454949a9a9b665298917e95c933924de229"),
}


class TestDeterminism:
    CONFIG = dict(train_utterances=80, dev_utterances=30, epochs=3)

    def test_same_seed_same_metrics(self, tmp_path):
        t0 = time.monotonic()
        cfg = dataclasses.replace(load_config(DESK_CONFIG), **self.CONFIG)
        run_training(cfg, "abn-f", str(tmp_path / "a"))
        run_training(cfg, "abn-f", str(tmp_path / "b"))
        text_a = (tmp_path / "a" / "metrics.csv").read_text()
        text_b = (tmp_path / "b" / "metrics.csv").read_text()
        elapsed = time.monotonic() - t0
        ok = text_a == text_b and len(text_a.splitlines()) == 1 + 2 * 3
        assert _verdict(
            ok,
            "determinism",
            f"metrics for 3 epochs {'identical' if text_a == text_b else 'DIFFER'};"
            f" {elapsed:.1f}s",
        )

    def test_outputs_match_pinned_hashes(self, tmp_path):
        """Each variant, at dropout 0.0 and 0.3, writes the bytes of
        ``PINNED_SHA256``, so a change that alters any number of a training
        run fails here, not only one that makes two runs differ.

        The hashes hold for numpy 2.4.6 and scipy 1.17.1 with OpenBLAS on
        one thread. Another numpy, scipy or BLAS may round differently and
        fail this test with the program unchanged. The 6 runs took 2.0 s on
        a 2-core x86 machine; the limit leaves 10 times that.
        """
        t0 = time.monotonic()
        cfg = dataclasses.replace(load_config(DESK_CONFIG), **self.CONFIG)
        wrong = []
        for (variant, dropout), pinned in PINNED_SHA256.items():
            out = tmp_path / f"{variant}-{dropout}"
            run_training(dataclasses.replace(cfg, dropout=dropout), variant, str(out))
            for name, want in zip(("metrics.csv", "model.ckpt"), pinned):
                got = hashlib.sha256((out / name).read_bytes()).hexdigest()
                if got != want:
                    wrong.append(f"{variant} dropout {dropout} {name}: sha256 {got},"
                                 f" pinned {want}")
        elapsed = time.monotonic() - t0
        assert _verdict(
            not wrong and elapsed < 20.0,
            "pinned outputs",
            f"{len(wrong)} of {2 * len(PINNED_SHA256)} files differ from PINNED_SHA256"
            + "".join(f"; {w}" for w in wrong)
            + (" (a deliberate output change updates the constant and logs both hashes"
               " in CHANGES.md)" if wrong else "")
            + f"; {elapsed:.1f}s (limit 20s)",
        )
