"""Attention-generated scale/shift: both variants, reduction, gradients."""

import math

import numpy as np
import pytest

from abn import errors
from abn import tensor as tc
from abn.data import SequenceBatch
from abn.generators import (
    FrameAbnGenerator,
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
from abn.normalization import BatchNormState, bn_forward, standardize_batch
from abn.tensor import Tensor, finite_diff_check


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


class TestFrameEmbed:
    def test_zero_map(self):
        g = zero_frame_gen()
        out = frame_embed(Tensor(np.random.default_rng(1).normal(size=(3, 4))), g)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_tanh_inversion(self):
        g = zero_frame_gen()
        g.b_embed = Tensor(np.full(2, math.atanh(0.5)))
        out = frame_embed(Tensor(np.ones((3, 4))), g)
        np.testing.assert_allclose(out.data, np.full((3, 2), 0.5), atol=1e-15)

    def test_opposing_features_cancel(self):
        g = zero_frame_gen(p=2, d_e=1)
        g.w_embed = Tensor([[1.0, 1.0]])
        out = frame_embed(Tensor([[1.0, -1.0]]), g)
        assert out.data.tolist() == [[0.0]]


class TestFrameAttention:
    def test_identical_frames_get_uniform_weights(self):
        e = Tensor(np.tile([[0.3, -0.7]], (5, 1)))
        alpha = frame_attention(e)
        np.testing.assert_allclose(alpha.data, np.full(5, 0.2), atol=1e-15)

    def test_closed_form_two_frames(self):
        e = Tensor([[math.log(3.0)], [0.0]])
        alpha = frame_attention(e)
        np.testing.assert_allclose(alpha.data, [0.75, 0.25], atol=1e-15)

    def test_mask_excludes_padded_frame(self):
        e = Tensor([[0.0], [0.0], [0.9]])
        alpha = frame_attention(e, valid=2)
        assert alpha.data.tolist() == [0.5, 0.5, 0.0]

    def test_mean_over_embedding_elements(self):
        # Means (ln2, 0) after averaging the two components.
        e = Tensor([[2.0 * math.log(2.0), 0.0], [0.0, 0.0]])
        alpha = frame_attention(e)
        np.testing.assert_allclose(alpha.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


class TestFramePool:
    def test_one_hot(self):
        e = Tensor([[1.0, 2.0], [9.0, 9.0]])
        u = frame_pool(e, Tensor([1.0, 0.0]))
        assert u.data.tolist() == [1.0, 2.0]

    def test_even_mix(self):
        e = Tensor([[1.0, 0.0], [0.0, 1.0]])
        u = frame_pool(e, Tensor([0.5, 0.5]))
        assert u.data.tolist() == [0.5, 0.5]

    def test_constant_rows_fixed_point(self):
        e = Tensor(np.tile([[2.0, -1.0]], (4, 1)))
        u = frame_pool(e, Tensor([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_allclose(u.data, [2.0, -1.0], atol=1e-15)


class TestFrameParams:
    def test_zero_init_reduces_to_bn_defaults(self):
        g = zero_frame_gen()
        gamma, beta = head_params(Tensor([0.4, -0.2]), g)
        assert gamma.data.tolist() == [1.0] * 4
        assert beta.data.tolist() == [0.0] * 4

    def test_zero_input_returns_biases(self):
        g = random_frame_gen()
        gamma, beta = head_params(tc.zeros(2), g)
        np.testing.assert_array_equal(gamma.data, g.b_gamma.data)
        np.testing.assert_array_equal(beta.data, g.b_beta.data)

    def test_hand_case(self):
        g = zero_frame_gen(p=3, d_e=1)
        g.w_gamma = Tensor([[2.0], [2.0], [2.0]])
        gamma, _ = head_params(Tensor([3.0]), g)
        assert gamma.data.tolist() == [7.0, 7.0, 7.0]

    def test_embed_width_must_be_smaller_than_features(self):
        with pytest.raises(errors.ContractError):
            FrameAbnGenerator.init(4, 4, np.random.default_rng(0))


class TestUttProject:
    def test_zero_weights(self):
        g = random_utt_gen()
        g.w_key = g.w_query = g.w_value = tc.zeros(3, 4)
        k, q, v = utt_project(Tensor(np.ones((2, 4))), g)
        for t in (k, q, v):
            np.testing.assert_array_equal(t.data, np.zeros((2, 3)))

    def test_selector_row(self):
        g = random_utt_gen(p=3, d_a=1)
        g.w_key = Tensor([[0.0, 1.0, 0.0]])
        h = Tensor([[1.0, 5.0, 2.0], [0.0, -3.0, 9.0]])
        k, _, _ = utt_project(h, g)
        assert k.data.tolist() == [[5.0], [-3.0]]

    def test_matches_matmul(self):
        rng = np.random.default_rng(31)
        g = random_utt_gen(seed=31)
        h = Tensor(rng.normal(size=(5, 4)))
        k, q, v = utt_project(h, g)
        np.testing.assert_allclose(k.data, h.data @ g.w_key.data.T, atol=1e-15)
        np.testing.assert_allclose(q.data, h.data @ g.w_query.data.T, atol=1e-15)
        np.testing.assert_allclose(v.data, h.data @ g.w_value.data.T, atol=1e-15)


class TestUttAttention:
    def test_single_frame(self):
        alpha = utt_attention(Tensor([[0.7, -0.2]]), Tensor([[1.5, 0.0]]))
        assert alpha.data.tolist() == [[1.0]]

    def test_uniform_scores(self):
        k = Tensor(np.ones((3, 4)))
        alpha = utt_attention(k, k)
        # every score is 4/sqrt(4) = 2, so rows are uniform
        np.testing.assert_allclose(alpha.data, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_diagonal_concentrates_with_scale(self):
        base = np.eye(3)
        weak = utt_attention(Tensor(base), Tensor(base))
        strong = utt_attention(Tensor(10.0 * base), Tensor(10.0 * base))
        assert np.all(np.diag(strong.data) > np.diag(weak.data))
        assert np.all(np.diag(strong.data) > 0.99)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(37)
        alpha = utt_attention(Tensor(rng.normal(size=(6, 3))), Tensor(rng.normal(size=(6, 3))))
        assert np.all(alpha.data >= 0)
        np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(6), atol=1e-12)

    def test_mask_zeroes_padded_columns(self):
        rng = np.random.default_rng(38)
        alpha = utt_attention(
            Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3))), valid=2
        )
        assert np.all(alpha.data[:, 2:] == 0.0)
        np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(4), atol=1e-12)


class TestUttContext:
    def test_identity_attention_selects_self(self):
        v = Tensor(np.random.default_rng(39).normal(size=(3, 2)))
        c = utt_context(Tensor(np.eye(3)), v)
        np.testing.assert_array_equal(c.data, v.data)

    def test_uniform_average(self):
        c = utt_context(Tensor(np.full((2, 2), 0.5)), Tensor([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(c.data, np.ones((2, 2)), atol=1e-15)

    def test_constant_values_fixed_point(self):
        alpha = Tensor([[0.9, 0.1], [0.5, 0.5]])
        v = Tensor(np.tile([[3.0, -1.0]], (2, 1)))
        c = utt_context(alpha, v)
        np.testing.assert_allclose(c.data, v.data, atol=1e-15)


class TestUttParams:
    def test_zero_init_reduces_to_bn_defaults(self):
        g = UttAbnGenerator.init(4, 3, np.random.default_rng(0))
        gamma, beta = head_params(Tensor(np.random.default_rng(1).normal(size=(5, 3))), g)
        np.testing.assert_array_equal(gamma.data, np.ones((5, 4)))
        np.testing.assert_array_equal(beta.data, np.zeros((5, 4)))

    def test_zero_context_returns_biases(self):
        g = random_utt_gen()
        gamma, beta = head_params(tc.zeros(2, 3), g)
        np.testing.assert_array_equal(gamma.data, np.tile(g.b_gamma.data, (2, 1)))
        np.testing.assert_array_equal(beta.data, np.tile(g.b_beta.data, (2, 1)))

    def test_identical_context_identical_params(self):
        g = random_utt_gen()
        c = Tensor(np.tile([[0.3, 0.8, -0.5]], (4, 1)))
        gamma, beta = head_params(c, g)
        for row in range(1, 4):
            np.testing.assert_array_equal(gamma.data[row], gamma.data[0])
            np.testing.assert_array_equal(beta.data[row], beta.data[0])


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
            ref = bn_forward(batch, BatchNormState.fresh(4), "train")
            out = abn_forward(batch, BatchNormState.fresh(4), make(), "train")
            diff = np.abs(ref.features.data - out.features.data).max()
            assert diff <= 1e-12, f"{variant} diverged from plain bn by {diff}"

    def test_reduction_holds_across_many_batches(self):
        gen_f = FrameAbnGenerator.init(3, 2, np.random.default_rng(0))
        gen_u = UttAbnGenerator.init(3, 2, np.random.default_rng(0))
        for seed in range(20):
            lengths = (np.random.default_rng(seed).integers(1, 7), 6)
            batch = random_batch(seed, batch=2, t_max=6, p=3, lengths=lengths)
            ref = bn_forward(batch, BatchNormState.fresh(3), "train")
            for gen in (gen_f, gen_u):
                out = abn_forward(batch, BatchNormState.fresh(3), gen, "train")
                assert np.abs(ref.features.data - out.features.data).max() <= 1e-12


class TestAbnForward:
    def test_bn_variant_delegates(self):
        batch = random_batch(60)
        ref = bn_forward(batch, BatchNormState.fresh(4), "train")
        out = abn_forward(batch, BatchNormState.fresh(4), None, "train")
        np.testing.assert_array_equal(ref.features.data, out.features.data)

    def test_distinct_utterances_get_distinct_params(self):
        batch = random_batch(61)
        gen = random_frame_gen()
        out = abn_forward(batch, BatchNormState.fresh(4), gen, "train")
        ref = bn_forward(batch, BatchNormState.fresh(4), "train")
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
        from abn.normalization import standardize_batch

        xhat = standardize_batch(batch, BatchNormState.fresh(p), "train")
        for b in range(2):
            h = xhat.data[b]  # single standardized frame of utterance b
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
    xhat = standardize_batch(batch, state, mode).data.reshape(batch.features.shape)
    out = np.zeros(batch.features.shape)
    for b, length in enumerate(batch.lengths):
        h = Tensor(xhat[b, :length])
        if variant == "abn-f":
            e = frame_embed(h, gen)
            gamma, beta = head_params(frame_pool(e, frame_attention(e)), gen)
        else:
            k, q, v = utt_project(h, gen)
            gamma, beta = head_params(utt_context(utt_attention(k, q), v), gen)
        out[b, :length] = tc.add(tc.mul(h, gamma), beta).data
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
            return BatchNormState(tc.ones(p), tc.zeros(p), mean, var, 1e-5, 0.1)

        out = abn_forward(batch, state(), gen, mode).features.data
        ref = per_utterance_reference(batch, state(), gen, variant, mode)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12)
        for b, length in enumerate(lengths):
            assert np.all(out[b, length:] == 0.0)


class TestGradientChecks:
    @pytest.mark.parametrize("t_max,lengths", [(1, (1, 1)), (2, (2, 1)), (7, (7, 4))])
    def test_abn_f_all_parameters(self, t_max, lengths):
        p, d_e = 4, 2
        batch = random_batch(90 + t_max, batch=2, t_max=t_max, p=p, lengths=lengths)
        probe = Tensor(np.random.default_rng(91).normal(size=(2, t_max, p)))
        base = random_frame_gen(p, d_e, seed=92)
        fields = ("w_embed", "b_embed", "w_gamma", "b_gamma", "w_beta", "b_beta")

        for field in fields:
            def f(theta, field=field):
                gen = FrameAbnGenerator(
                    **{k: (theta if k == field else getattr(base, k)) for k in fields}
                )
                out = abn_forward(batch, BatchNormState.fresh(p), gen, "train")
                return tc.tsum(tc.mul(out.features, probe))

            err = finite_diff_check(f, getattr(base, field))
            assert err < 1e-4, f"{field} grad err {err} at t_max={t_max}"

    @pytest.mark.parametrize("t_max,lengths", [(1, (1, 1)), (2, (2, 1)), (7, (7, 4))])
    def test_abn_u_all_parameters(self, t_max, lengths):
        p, d_a = 4, 3
        batch = random_batch(95 + t_max, batch=2, t_max=t_max, p=p, lengths=lengths)
        probe = Tensor(np.random.default_rng(96).normal(size=(2, t_max, p)))
        base = random_utt_gen(p, d_a, seed=97)
        fields = ("w_key", "w_query", "w_value", "w_gamma", "b_gamma", "w_beta", "b_beta")

        for field in fields:
            def f(theta, field=field):
                gen = UttAbnGenerator(
                    **{k: (theta if k == field else getattr(base, k)) for k in fields}
                )
                out = abn_forward(batch, BatchNormState.fresh(p), gen, "train")
                return tc.tsum(tc.mul(out.features, probe))

            err = finite_diff_check(f, getattr(base, field))
            assert err < 1e-4, f"{field} grad err {err} at t_max={t_max}"

    def test_gradient_through_input_features(self):
        p = 3
        batch_feats = np.random.default_rng(98).normal(size=(2, 3, p))
        probe = Tensor(np.random.default_rng(99).normal(size=(2, 3, p)))
        gen = random_frame_gen(p, 2, seed=100)

        def f(theta):
            out = abn_forward(
                SequenceBatch(theta, [3, 2]), BatchNormState.fresh(p), gen, "train"
            )
            return tc.tsum(tc.mul(out.features, probe))

        assert finite_diff_check(f, Tensor(batch_feats)) < 1e-4
