"""Attention-generated scale/shift: both variants, reduction, gradients."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest

from abn import tensor as tc
from abn.batching import make_batches
from abn.config import load_config
from abn.ctc import sequence_ctc_loss
from abn.data import SequenceBatch
from abn.generators import (
    VARIANTS,
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
from abn.normalization import BatchNormState, standardize_batch
from abn.recurrent import Model, stack_forward
from abn.synth import sorted_for_batching, synth_generate
from abn.tensor import GradTape, Tensor, backward, recording

import taped
from taped import finite_diff_check


def zero_frame_gen(p=4, d_e=2):
    g = FrameAbnGenerator.init(p, d_e, np.random.default_rng(0))
    g.w_embed = tc.zeros(d_e, p)
    return g


def random_frame_gen(p=4, d_e=2, seed=0):
    g = FrameAbnGenerator.init(p, d_e, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    g.w_gamma = Tensor(rng.normal(0, 0.3, size=(p, d_e)))
    g.w_beta = Tensor(rng.normal(0, 0.3, size=(p, d_e)))
    g.b_embed = Tensor(rng.normal(0, 0.3, size=(d_e,)))
    return g


def random_utt_gen(p=4, d_a=3, seed=0):
    g = UttAbnGenerator.init(p, d_a, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    g.w_gamma = Tensor(rng.normal(0, 0.3, size=(p, d_a)))
    g.w_beta = Tensor(rng.normal(0, 0.3, size=(p, d_a)))
    return g


def random_learned(p=4, seed=0):
    rng = np.random.default_rng(seed)
    gamma, beta = rng.normal(1.0, 0.3, size=p), rng.normal(0, 0.3, size=p)
    return LearnedScaleShift(Tensor(gamma), Tensor(beta))


def random_source(variant, p=4, seed=0):
    """A scale/shift source of ``variant`` with every field away from its
    initial value."""
    if variant == "bn":
        return random_learned(p, seed)
    if variant == "abn-f":
        return random_frame_gen(p, p // 2, seed)
    return random_utt_gen(p, 3, seed)


def plain_bn(batch, p):
    """Train-mode plain batch norm: the normalizer node with a fresh state and learned pair."""
    return abn_forward(batch, BatchNormState.fresh(p), LearnedScaleShift.init(p), "train")


class TestFrameEmbed:
    def test_zero_map(self):
        g = zero_frame_gen()
        out = frame_embed(np.random.default_rng(1).normal(size=(3, 4)), g)
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_tanh_inversion(self):
        g = zero_frame_gen()
        g.b_embed = Tensor(np.full(2, math.atanh(0.5)))
        out = frame_embed(np.ones((3, 4)), g)
        np.testing.assert_allclose(out, np.full((3, 2), 0.5), atol=1e-15)

    def test_opposing_features_cancel(self):
        g = zero_frame_gen(p=2, d_e=1)
        g.w_embed = Tensor([[1.0, 1.0]])
        out = frame_embed(np.array([[1.0, -1.0]]), g)
        assert out.tolist() == [[0.0]]


class TestFrameAttention:
    def test_identical_frames_get_uniform_weights(self):
        e = np.tile([[0.3, -0.7]], (5, 1))
        alpha = frame_attention(e, np.ones(5, bool))
        np.testing.assert_allclose(alpha, np.full(5, 0.2), atol=1e-15)

    def test_closed_form_two_frames(self):
        e = np.array([[math.log(3.0)], [0.0]])
        alpha = frame_attention(e, np.ones(2, bool))
        np.testing.assert_allclose(alpha, [0.75, 0.25], atol=1e-15)

    def test_mask_excludes_padded_frame(self):
        e = np.array([[0.0], [0.0], [0.9]])
        alpha = frame_attention(e, np.arange(3) < 2)
        assert alpha.tolist() == [0.5, 0.5, 0.0]

    def test_mean_over_embedding_elements(self):
        # Means (ln2, 0) after averaging the two components.
        e = np.array([[2.0 * math.log(2.0), 0.0], [0.0, 0.0]])
        alpha = frame_attention(e, np.ones(2, bool))
        np.testing.assert_allclose(alpha, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


class TestFramePool:
    def test_one_hot(self):
        u = frame_pool(np.array([[1.0, 2.0], [9.0, 9.0]]), np.array([1.0, 0.0]))
        assert u.tolist() == [1.0, 2.0]

    def test_even_mix(self):
        u = frame_pool(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
        assert u.tolist() == [0.5, 0.5]

    def test_constant_rows_fixed_point(self):
        e = np.tile([[2.0, -1.0]], (4, 1))
        u = frame_pool(e, np.array([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_allclose(u, [2.0, -1.0], atol=1e-15)


class TestFrameParams:
    def test_zero_init_reduces_to_bn_defaults(self):
        g = zero_frame_gen()
        gamma, beta = head_params(np.array([0.4, -0.2]), g)
        assert gamma.tolist() == [1.0] * 4
        assert beta.tolist() == [0.0] * 4

    def test_zero_input_returns_biases(self):
        g = random_frame_gen()
        gamma, beta = head_params(np.zeros(2), g)
        np.testing.assert_array_equal(gamma, g.b_gamma.data)
        np.testing.assert_array_equal(beta, g.b_beta.data)

    def test_hand_case(self):
        g = zero_frame_gen(p=3, d_e=1)
        g.w_gamma = Tensor([[2.0], [2.0], [2.0]])
        gamma, _ = head_params(np.array([3.0]), g)
        assert gamma.tolist() == [7.0, 7.0, 7.0]


class TestUttProject:
    def test_zero_weights(self):
        g = random_utt_gen()
        g.w_key = g.w_query = g.w_value = tc.zeros(3, 4)
        for t in utt_project(np.ones((2, 4)), g):
            np.testing.assert_array_equal(t, np.zeros((2, 3)))

    def test_selector_row(self):
        g = random_utt_gen(p=3, d_a=1)
        g.w_key = Tensor([[0.0, 1.0, 0.0]])
        h = np.array([[1.0, 5.0, 2.0], [0.0, -3.0, 9.0]])
        k, _, _ = utt_project(h, g)
        assert k.tolist() == [[5.0], [-3.0]]

    def test_matches_matmul(self):
        rng = np.random.default_rng(31)
        g = random_utt_gen(seed=31)
        h = rng.normal(size=(5, 4))
        k, q, v = utt_project(h, g)
        np.testing.assert_allclose(k, h @ g.w_key.data.T, atol=1e-15)
        np.testing.assert_allclose(q, h @ g.w_query.data.T, atol=1e-15)
        np.testing.assert_allclose(v, h @ g.w_value.data.T, atol=1e-15)


class TestUttAttention:
    def test_single_frame(self):
        alpha = utt_attention(np.array([[0.7, -0.2]]), np.array([[1.5, 0.0]]), np.ones(1, bool))
        assert alpha.tolist() == [[1.0]]

    def test_uniform_scores(self):
        k = np.ones((3, 4))
        alpha = utt_attention(k, k, np.ones(3, bool))
        # every score is 4/sqrt(4) = 2, so rows are uniform
        np.testing.assert_allclose(alpha, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_diagonal_concentrates_with_scale(self):
        base = np.eye(3)
        weak = utt_attention(base, base, np.ones(3, bool))
        strong = utt_attention(10.0 * base, 10.0 * base, np.ones(3, bool))
        assert np.all(np.diag(strong) > np.diag(weak))
        assert np.all(np.diag(strong) > 0.99)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(37)
        alpha = utt_attention(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)), np.ones(6, bool))
        assert np.all(alpha >= 0)
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(6), atol=1e-12)

    def test_mask_zeroes_padded_columns(self):
        rng = np.random.default_rng(38)
        alpha = utt_attention(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), np.arange(4) < 2)
        assert np.all(alpha[:, 2:] == 0.0)
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(4), atol=1e-12)


class TestUttContext:
    def test_identity_attention_selects_self(self):
        v = np.random.default_rng(39).normal(size=(3, 2))
        np.testing.assert_array_equal(utt_context(np.eye(3), v), v)

    def test_uniform_average(self):
        c = utt_context(np.full((2, 2), 0.5), np.array([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(c, np.ones((2, 2)), atol=1e-15)

    def test_constant_values_fixed_point(self):
        alpha = np.array([[0.9, 0.1], [0.5, 0.5]])
        v = np.tile([[3.0, -1.0]], (2, 1))
        np.testing.assert_allclose(utt_context(alpha, v), v, atol=1e-15)


class TestUttParams:
    def test_zero_init_reduces_to_bn_defaults(self):
        g = UttAbnGenerator.init(4, 3, np.random.default_rng(0))
        gamma, beta = head_params(np.random.default_rng(1).normal(size=(5, 3)), g)
        np.testing.assert_array_equal(gamma, np.ones((5, 4)))
        np.testing.assert_array_equal(beta, np.zeros((5, 4)))

    def test_zero_context_returns_biases(self):
        g = random_utt_gen()
        gamma, beta = head_params(np.zeros((2, 3)), g)
        np.testing.assert_array_equal(gamma, np.tile(g.b_gamma.data, (2, 1)))
        np.testing.assert_array_equal(beta, np.tile(g.b_beta.data, (2, 1)))

    def test_identical_context_identical_params(self):
        g = random_utt_gen()
        c = np.tile([[0.3, 0.8, -0.5]], (4, 1))
        gamma, beta = head_params(c, g)
        for row in range(1, 4):
            np.testing.assert_array_equal(gamma[row], gamma[0])
            np.testing.assert_array_equal(beta[row], beta[0])


def random_batch(seed, batch=2, t_max=5, p=4, lengths=(5, 3)):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(batch, t_max, p))
    mask = np.arange(t_max)[None, :] < np.asarray(lengths)[:, None]
    feats = feats * mask[:, :, None]
    return SequenceBatch(Tensor(feats), list(lengths))


class TestReduction:
    def test_fresh_generators_reproduce_bn_exactly(self):
        for variant, make in (
            ("abn-f", lambda: FrameAbnGenerator.init(4, 2, np.random.default_rng(5))),
            ("abn-u", lambda: UttAbnGenerator.init(4, 3, np.random.default_rng(5))),
        ):
            batch = random_batch(50)
            ref = plain_bn(batch, 4)
            out = abn_forward(batch, BatchNormState.fresh(4), make(), "train")
            diff = np.abs(ref.features.data - out.features.data).max()
            assert diff <= 1e-12, f"{variant} diverged from plain bn by {diff}"

    def test_reduction_holds_across_many_batches(self):
        gen_f = FrameAbnGenerator.init(3, 2, np.random.default_rng(0))
        gen_u = UttAbnGenerator.init(3, 2, np.random.default_rng(0))
        for seed in range(20):
            lengths = (np.random.default_rng(seed).integers(1, 7), 6)
            batch = random_batch(seed, batch=2, t_max=6, p=3, lengths=lengths)
            ref = plain_bn(batch, 3)
            for gen in (gen_f, gen_u):
                out = abn_forward(batch, BatchNormState.fresh(3), gen, "train")
                assert np.abs(ref.features.data - out.features.data).max() <= 1e-12


class TestAbnForward:
    def test_distinct_utterances_get_distinct_params(self):
        batch = random_batch(61)
        gen = random_frame_gen()
        out = abn_forward(batch, BatchNormState.fresh(4), gen, "train")
        ref = plain_bn(batch, 4)
        # Both utterances must deviate from plain bn, and differently:
        # recover each utterance's effective gamma by ratio where beta is small.
        d0 = out.features.data[0, :3] - ref.features.data[0, :3]
        d1 = out.features.data[1, :3] - ref.features.data[1, :3]
        assert np.abs(d0).max() > 0
        assert not np.allclose(d0, d1)

    def test_abn_u_single_frame_matches_abn_f_when_matched(self):
        # With one frame, both variants reduce to a linear map of the single
        # standardized frame. Make the frame generator emit a constant
        # embedding equal to what the value projection produces.
        p, d = 4, 2
        rng = np.random.default_rng(70)
        feats = rng.normal(size=(2, 1, p))
        batch = SequenceBatch(Tensor(feats), [1, 1])

        gen_u = UttAbnGenerator.init(p, d, np.random.default_rng(71))
        heads = np.random.default_rng(72)
        w_gamma = Tensor(heads.normal(0, 0.4, size=(p, d)))
        w_beta = Tensor(heads.normal(0, 0.4, size=(p, d)))
        gen_u.w_gamma, gen_u.w_beta = w_gamma, w_beta

        out_u = abn_forward(batch, BatchNormState.fresh(p), gen_u, "train")

        # Compute the standardized frames to find the value vectors, then
        # build a frame generator whose pooled embedding equals each one.
        xhat, _ = standardize_batch(batch, BatchNormState.fresh(p), "train")
        for b in range(2):
            h = xhat[b, 0]  # single standardized frame of utterance b
            v = gen_u.w_value.data @ h
            assert np.all(np.abs(v) < 0.99), "values too large for tanh inversion"
            gen_f = FrameAbnGenerator.init(p, d, np.random.default_rng(73))
            gen_f.w_embed = tc.zeros(d, p)
            gen_f.b_embed = Tensor(np.arctanh(v))
            gen_f.w_gamma, gen_f.w_beta = w_gamma, w_beta
            out_f = abn_forward(batch, BatchNormState.fresh(p), gen_f, "train")
            np.testing.assert_allclose(
                out_f.features.data[b], out_u.features.data[b], atol=1e-10
            )

    def test_padding_invariance(self):
        for gen in (random_frame_gen(), random_utt_gen()):
            rng = np.random.default_rng(80)
            feats = rng.normal(size=(2, 5, 4))
            lengths = [4, 2]
            b1 = SequenceBatch(Tensor(feats), lengths)
            corrupted = feats.copy()
            corrupted[0, 4:] = 7e5
            corrupted[1, 2:] = -7e5
            b2 = SequenceBatch(Tensor(corrupted), lengths)
            o1 = abn_forward(b1, BatchNormState.fresh(4), gen, "train")
            o2 = abn_forward(b2, BatchNormState.fresh(4), gen, "train")
            np.testing.assert_array_equal(o1.features.data, o2.features.data)

    def test_permuting_frames_permutes_abn_u_output(self):
        gen = random_utt_gen()
        rng = np.random.default_rng(81)
        feats = rng.normal(size=(2, 4, 4))
        batch = SequenceBatch(Tensor(feats), [4, 4])
        out = abn_forward(batch, BatchNormState.fresh(4), gen, "train")
        perm = np.array([2, 0, 3, 1])
        permuted = feats.copy()
        permuted[0] = feats[0][perm]
        out_p = abn_forward(
            SequenceBatch(Tensor(permuted), [4, 4]), BatchNormState.fresh(4), gen, "train"
        )
        np.testing.assert_allclose(out_p.features.data[0], out.features.data[0][perm], atol=1e-12)
        np.testing.assert_allclose(out_p.features.data[1], out.features.data[1], atol=1e-12)

    def test_permuting_frames_leaves_pooled_params_unchanged(self):
        gen = random_frame_gen()
        rng = np.random.default_rng(82)
        feats = rng.normal(size=(2, 4, 4))
        batch = SequenceBatch(Tensor(feats), [4, 4])
        out = abn_forward(batch, BatchNormState.fresh(4), gen, "train")
        perm = np.array([3, 1, 0, 2])
        permuted = feats.copy()
        permuted[0] = feats[0][perm]
        out_p = abn_forward(
            SequenceBatch(Tensor(permuted), [4, 4]), BatchNormState.fresh(4), gen, "train"
        )
        np.testing.assert_allclose(out_p.features.data[0], out.features.data[0][perm], atol=1e-12)


def per_utterance_reference(batch, state, gen, variant, mode):
    """``abn_forward`` rebuilt from the unbatched helpers, applied to each
    utterance's valid frames on their own."""
    xhat, _ = standardize_batch(batch, state, mode)
    out = np.zeros(batch.features.shape)
    for b, length in enumerate(batch.lengths):
        h = xhat[b, :length]
        every_frame = np.ones(length, bool)
        if variant == "abn-f":
            e = frame_embed(h, gen)
            gamma, beta = head_params(frame_pool(e, frame_attention(e, every_frame)), gen)
        else:
            k, q, v = utt_project(h, gen)
            gamma, beta = head_params(utt_context(utt_attention(k, q, every_frame), v), gen)
        out[b, :length] = h * gamma + beta
    return out


class TestBatchedMatchesPerUtterance:
    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("variant", ["abn-f", "abn-u"])
    def test_mixed_lengths(self, variant, mode):
        p = 4
        gen = random_frame_gen(p, seed=110) if variant == "abn-f" else random_utt_gen(p, seed=110)
        lengths = (6, 1, 4, 3, 1)
        batch = random_batch(111, batch=5, t_max=6, p=p, lengths=lengths)
        # Running statistics away from (0, 1), so infer mode is not a no-op.
        stats = np.random.default_rng(112)
        mean, var = Tensor(stats.normal(size=p)), Tensor(stats.uniform(0.5, 2.0, size=p))

        def state():
            return BatchNormState(mean, var, 1e-5, 0.1)

        out = abn_forward(batch, state(), gen, mode).features.data
        ref = per_utterance_reference(batch, state(), gen, variant, mode)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12)
        for b, length in enumerate(lengths):
            assert np.all(out[b, length:] == 0.0)


class TestGradientChecks:
    @pytest.mark.parametrize("t_max,lengths", [(1, (1, 1)), (2, (2, 1)), (7, (7, 4))])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_parameters(self, variant, t_max, lengths):
        # Seeds 85-87 for bn, 90-92 for abn-f and 95-97 for abn-u.
        p, seed = 4, 85 + 5 * VARIANTS.index(variant)
        batch = random_batch(seed + t_max, batch=2, t_max=t_max, p=p, lengths=lengths)
        probe = Tensor(np.random.default_rng(seed + 1).normal(size=(2, t_max, p)))
        base = random_source(variant, p, seed=seed + 2)
        source, fields = type(base), type(base).__slots__

        for field in fields:
            def f(theta, field=field):
                gen = source(**{k: (theta if k == field else getattr(base, k)) for k in fields})
                out = abn_forward(batch, BatchNormState.fresh(p), gen, "train")
                return taped.tsum(taped.mul(out.features, probe))

            err = finite_diff_check(f, getattr(base, field))
            assert err < 1e-4, f"{variant} {field} grad err {err} at t_max={t_max}"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradient_through_input_features(self, variant):
        p = 4
        batch_feats = np.random.default_rng(98).normal(size=(2, 3, p))
        probe = Tensor(np.random.default_rng(99).normal(size=(2, 3, p)))
        gen = random_source(variant, p, seed=100)

        def f(theta):
            out = abn_forward(
                SequenceBatch(theta, [3, 2]), BatchNormState.fresh(p), gen, "train"
            )
            return taped.tsum(taped.mul(out.features, probe))

        assert finite_diff_check(f, Tensor(batch_feats)) < 1e-4


def taped_generator(xhat, batch, gen, dropout_rate=0.0, rng=None):
    """A generator's scale and shift and the affine, rebuilt from taped
    primitives on the standardized frames ``xhat`` (``[B, T, p]``): the
    reference for ``scale_shift``'s forward, its VJP and its random draws."""
    b, t_max, p = batch.features.shape
    mask = batch.frames.mask
    if isinstance(gen, FrameAbnGenerator):
        e = taped.dropout(taped.tanh(taped.affine(xhat, gen.w_embed, gen.b_embed)), dropout_rate, rng)
        alpha = taped.masked_softmax(taped.tmean(e, axis=-1), mask)
        u = taped.tsum(taped.mul(e, taped.reshape(alpha, alpha.shape + (1,))), axis=-2)
        z = taped.reshape(u, (b, 1, u.shape[1]))
    else:
        k = taped.linear(xhat, gen.w_key)
        q = taped.linear(xhat, gen.w_query)
        v = taped.linear(xhat, gen.w_value)
        scaled = taped.div(q, math.sqrt(float(k.shape[-1])))
        alpha = taped.masked_softmax(taped.matmul(scaled, taped.transpose(k)), mask[:, None, :])
        z = taped.dropout(taped.matmul(alpha, v), dropout_rate, rng)
    gamma = taped.affine(z, gen.w_gamma, gen.b_gamma)
    beta = taped.affine(z, gen.w_beta, gen.b_beta)
    return taped.masked_affine(xhat, gamma, beta, batch)


def taped_normalizer(batch, state, gen, mode, dropout_rate=0.0, rng=None):
    """``abn_forward`` rebuilt from the tests' reference nodes: the
    standardization, then the taped generator or, for bn, the affine with
    the learned pair."""
    xhat = taped.standardize(batch, state, mode)
    if isinstance(gen, LearnedScaleShift):
        return taped.masked_affine(xhat, gen.gamma, gen.beta, batch)
    return taped_generator(xhat, batch, gen, dropout_rate, rng)


def run_normalizer(node, batch, state, gen, mode, rate, seed):
    """Output, gradients (the features, then each field of ``gen``), the
    running statistics and the final dropout-RNG state of one probed pass
    through ``node``."""
    rng = np.random.default_rng(seed)
    probe = Tensor(np.random.default_rng(seed + 1).normal(size=batch.features.shape))
    tape = GradTape()
    with recording(tape):
        out = node(batch, state, gen, mode, rate, rng)
        loss = taped.tsum(taped.mul(out.features, probe))
    grads = backward(tape, loss)
    wrt = [batch.features] + [getattr(gen, f) for f in type(gen).__slots__]
    stats = [state.running_mean.data, state.running_var.data]
    return out.features.data, [grads.wrt(t) for t in wrt], stats, rng.bit_generator.state


class TestFusedNodeMatchesTapedComposition:
    """Each variant's single normalizer node against the taped composition
    it replaces: output, every gradient, the running statistics and the RNG
    stream, bit for bit."""

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("lengths,p", [((6, 1, 4, 1, 3), 4), ((7, 7, 2, 1), 16)])
    def test_bit_for_bit(self, variant, mode, rate, lengths, p):
        t_max = max(lengths)
        batch = random_batch(120 + p, batch=len(lengths), t_max=t_max, p=p, lengths=lengths)
        stats = np.random.default_rng(121)
        mean, var = Tensor(stats.normal(size=p)), Tensor(stats.uniform(0.5, 2.0, size=p))
        gen = random_source(variant, p, seed=122)
        ref = run_normalizer(taped_normalizer, batch, BatchNormState(mean, var, 1e-5, 0.1),
                             gen, mode, rate, seed=123)
        got = run_normalizer(abn_forward, batch, BatchNormState(mean, var, 1e-5, 0.1),
                             gen, mode, rate, seed=123)
        np.testing.assert_array_equal(got[0], ref[0])
        names = ["features", *type(gen).__slots__]
        for name, g_got, g_ref in zip(names, got[1], ref[1]):
            assert np.array_equal(g_got, g_ref), f"{variant} {mode} rate {rate}: d{name} differs"
        for s_got, s_ref in zip(got[2], ref[2]):
            assert np.array_equal(s_got, s_ref), f"{variant} {mode} rate {rate}: statistics differ"
        assert got[3] == ref[3]
        # The node applies the rate it is given, in either mode: the pass's
        # gate (``run_layers``) hands it 0.0 at inference.
        drew = got[3] != np.random.default_rng(123).bit_generator.state
        assert drew == (rate > 0 and variant != "bn")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_records_one_node(self, variant):
        batch = random_batch(130, batch=3, t_max=5, p=4, lengths=(5, 1, 3))
        tape = GradTape()
        with recording(tape):
            abn_forward(batch, BatchNormState.fresh(4), random_source(variant), "train",
                        0.3, np.random.default_rng(132))
        assert len(tape) == 1


def _closure_arrays(fn):
    """The arrays that ``fn``'s closure keeps alive, also inside tuples."""
    for cell in fn.__closure__:
        value = cell.cell_contents
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def test_untaped_utt_generator_keeps_no_attention_in_its_back():
    # Untaped, nothing calls ``back``, so it must not keep the [B, T, T]
    # attention weights alive; taped, it needs them.
    batch = random_batch(140, batch=2, t_max=5, p=4, lengths=(5, 3))
    x, mask = batch.features.data, batch.frames.mask
    gen = random_utt_gen(p=4, d_a=3, seed=141)
    results = []
    for record in (False, True):
        with recording(GradTape()) if record else contextlib.nullcontext():
            gamma, beta, back = gen.scale_shift(x, mask, 0.0, None)
        square = [a for a in _closure_arrays(back) if a.shape == (2, 5, 5)]
        results.append((gamma, beta, len(square)))
    (gamma_u, beta_u, kept_u), (gamma_t, beta_t, kept_t) = results
    assert (kept_u, kept_t) == (0, 1)
    np.testing.assert_array_equal(gamma_u, gamma_t)
    np.testing.assert_array_equal(beta_u, beta_t)


def _desk_train_tape(variants, dropout):
    """The tape of one desk train batch's forward and loss; a list of
    ``variants`` names each layer's."""
    cfg = dataclasses.replace(load_config("configs/desk.cfg"), dropout=dropout)
    if isinstance(variants, list):
        cfg = dataclasses.replace(cfg, num_layers=len(variants))
    utts = sorted_for_batching(synth_generate(cfg.task(), 40, seed=1))
    batch = make_batches(utts, cfg.max_frames_per_batch)[0]
    model = Model(cfg.model_config(variants), np.random.default_rng([cfg.seed, 1]))
    tape = GradTape()
    with recording(tape):
        logits = stack_forward(batch.features, model, "train", np.random.default_rng(0))
        sequence_ctc_loss(logits, batch.labels)
    return tape


def test_every_variant_records_the_same_nodes_per_desk_batch():
    counts = {variant: len(_desk_train_tape(variant, 0.0)) for variant in VARIANTS}
    # Per layer: the normalizer and the BiLSTM; then the projection and the
    # CTC loss.
    assert counts == dict.fromkeys(VARIANTS, 6), counts
    assert len(_desk_train_tape(["abn-f", "abn-u", "bn"], 0.0)) == 2 * 3 + 2


# The fused nodes of the program, by the function that records them.
FUSED_NODES = {"abn_forward", "bilstm_layer", "project", "sequence_ctc_loss"}


@pytest.mark.parametrize("variant", VARIANTS)
def test_desk_train_step_with_dropout_records_only_fused_nodes(variant):
    tape = _desk_train_tape(variant, 0.3)
    # Dropout adds no node: the generators and the BiLSTM layers apply it
    # inside theirs.
    assert len(tape) == 6
    owners = {node.vjp.__qualname__.split(".<locals>")[0] for node in tape.nodes}
    assert owners <= FUSED_NODES, owners - FUSED_NODES
