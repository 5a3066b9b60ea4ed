"""Batch normalization: statistics, standardization, masking, gradients."""

import numpy as np
import pytest

from abn import errors
from abn.data import SequenceBatch
from abn.generators import LearnedScaleShift, abn_forward
from abn.normalization import BatchNormState, standardize_batch
from abn.recurrent import Model, ModelConfig, stack_forward
from abn.tensor import GradTape, Tensor, backward, recording

import taped
from taped import finite_diff_check


def batch_of(features, lengths):
    return SequenceBatch(Tensor(features), lengths)


def plain_bn(batch, state, mode):
    """Plain batch norm: the normalizer node with a fresh learned pair."""
    return abn_forward(batch, state, LearnedScaleShift.init(batch.dim), mode)


def batch_statistics(batch):
    """Mean and variance of a train-mode standardization, read back from
    running averages with momentum 1, which copy the batch's exactly."""
    state = BatchNormState.fresh(batch.dim, momentum=1.0)
    standardize_batch(batch, state, "train")
    return state.running_mean, state.running_var


def standardize_with(x, mu, var, epsilon):
    """Infer-mode standardization of rows ``x`` with the given statistics."""
    x = np.asarray(x, dtype=float)
    state = BatchNormState(Tensor(mu), Tensor(var), epsilon, 0.1)
    xhat, _ = standardize_batch(batch_of(x[:, None, :], [1] * x.shape[0]), state, "infer")
    return Tensor(xhat.reshape(x.shape))


def affine_of(xhat, gamma, beta):
    """The masked affine on rows ``xhat``, each a one-frame utterance."""
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    batch = batch_of(np.zeros((xhat.shape[0], 1, xhat.shape[1])), [1] * xhat.shape[0])
    return taped.masked_affine(xhat, gamma, beta, batch).features


class TestStatistics:
    def test_two_values(self):
        b = batch_of([[[1.0], [3.0]]], [2])
        mu, var = batch_statistics(b)
        assert mu.data.tolist() == [2.0]
        assert var.data.tolist() == [1.0]

    def test_constant_input(self):
        b = batch_of(np.full((2, 3, 2), 7.0), [3, 3])
        mu, var = batch_statistics(b)
        np.testing.assert_array_equal(mu.data, [7.0, 7.0])
        np.testing.assert_array_equal(var.data, [0.0, 0.0])

    def test_padding_excluded(self):
        feats = np.zeros((1, 3, 1))
        feats[0, 0, 0] = 1.0
        feats[0, 1, 0] = 3.0
        feats[0, 2, 0] = 100.0  # padded frame
        b = batch_of(feats, [2])
        mu, var = batch_statistics(b)
        assert mu.data.tolist() == [2.0]
        assert var.data.tolist() == [1.0]

    def test_pools_across_utterances(self):
        feats = np.zeros((2, 2, 1))
        feats[0, :, 0] = [1.0, 3.0]
        feats[1, 0, 0] = 5.0
        b = batch_of(feats, [2, 1])
        mu, var = batch_statistics(b)
        assert mu.data.tolist() == [3.0]
        # population variance of {1,3,5}
        assert var.data.tolist() == [pytest.approx(8.0 / 3.0)]

    def test_single_frame_rejected(self):
        # The pass's gate refuses it before layer 0 takes statistics.
        model = Model(ModelConfig(1, 2, 3, 4, "bn"), np.random.default_rng(0))
        b = batch_of(np.ones((1, 2, 3)), [1])
        with pytest.raises(errors.DegenerateBatchError):
            stack_forward(b, model, "train")
        assert model.layers[0].norm.running_mean.data.tolist() == [0.0, 0.0, 0.0]


class TestNormalize:
    def test_standardizes_pair(self):
        out = standardize_with([[1.0], [3.0]], [2.0], [1.0], 1e-300)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-12)

    def test_centered_point_maps_to_zero(self):
        out = standardize_with([[2.0, 5.0]], [2.0, 5.0], [3.0, 0.5], 1e-5)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_epsilon_floors_zero_variance(self):
        out = standardize_with([[3.0]], [2.0], [0.0], 1e-5)
        assert out.item() == pytest.approx(1.0 / np.sqrt(1e-5))
        assert out.item() == pytest.approx(316.22776601683796)


class TestAffine:
    def test_default_is_identity(self):
        x = [[0.3, -1.2]]
        out = affine_of(x, np.ones(2), np.zeros(2))
        np.testing.assert_array_equal(out.data, [x])

    def test_hand_case(self):
        out = affine_of([-1.0], [2.0], [1.0])
        assert out.data.tolist() == [[[-1.0]]]

    def test_zero_gamma_gives_beta(self):
        out = affine_of([[9.0, 9.0]], np.zeros(2), [4.0, -4.0])
        assert out.data.tolist() == [[[4.0, -4.0]]]

    def test_per_utterance_and_per_frame_parameters(self):
        xhat = np.arange(12.0).reshape(2, 3, 2)
        batch = batch_of(np.zeros((2, 3, 2)), [3, 2])
        gamma = np.array([[[2.0, -1.0]], [[0.5, 3.0]]])  # [B, 1, p]
        beta = np.full((2, 1, 2), 0.25)
        out = taped.masked_affine(xhat, gamma, beta, batch).features.data
        expect = (xhat * gamma + beta) * batch.frames.mask[:, :, None]
        np.testing.assert_array_equal(out, expect)
        gamma_t = np.random.default_rng(5).normal(size=(2, 3, 2))  # [B, T, p]
        out = taped.masked_affine(xhat, gamma_t, gamma_t, batch)
        expect = (xhat * gamma_t + gamma_t) * batch.frames.mask[:, :, None]
        np.testing.assert_array_equal(out.features.data, expect)


def taped_standardize(batch, state, mode):
    """The standardization rebuilt from taped primitives: the reference for
    closed-form forward and VJP of ``standardize_batch``."""
    b, t_max, p = batch.features.shape
    flat = taped.reshape(batch.features, (b * t_max, p))
    if mode == "train":
        n = float(batch.valid_frames())
        maskcol = Tensor(batch.frames.mask.astype(float).reshape(-1, 1))
        mu = taped.div(taped.tsum(taped.mul(flat, maskcol), axis=0), n)
        centered = taped.mul(taped.sub(flat, mu), maskcol)
        var = taped.div(taped.tsum(taped.mul(centered, centered), axis=0), n)
    else:
        mu, var = state.running_mean, state.running_var
    xhat = taped.div(taped.sub(flat, mu), taped.sqrt(taped.add(var, state.epsilon)))
    return taped.reshape(xhat, (b, t_max, p))


class TestStandardizeNode:
    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize(
        "lengths,t_max", [((5, 2, 4), 5), ((1, 1), 1), ((3, 3), 3), ((4, 1, 1, 2), 4)]
    )
    def test_matches_taped_composition(self, lengths, t_max, mode):
        # Bitwise forward; the closed-form VJP within roundoff of the taped
        # chain, under an upstream gradient on every row, padded ones too.
        rng = np.random.default_rng(31)
        p = 3
        feats = Tensor(rng.normal(1.0, 2.0, size=(len(lengths), t_max, p)))
        probe = Tensor(rng.normal(size=(len(lengths) * t_max, p)).reshape(-1, t_max, p))

        mean, var = Tensor(rng.normal(size=p)), Tensor(rng.uniform(0.5, 2.0, size=p))

        def state():
            return BatchNormState(mean, var, 1e-5, 0.1)

        grads, outs = [], []
        for fn in (taped.standardize, taped_standardize):
            tape = GradTape()
            with recording(tape):
                out = fn(SequenceBatch(feats, lengths), state(), mode)
                loss = taped.tsum(taped.mul(out, probe))
            outs.append(out.data)
            grads.append(backward(tape, loss).wrt(feats))
            if fn is taped.standardize:
                assert len(tape) == 3  # the node, then the probe's mul and sum
        np.testing.assert_array_equal(outs[0], outs[1])
        # Both cancel terms of size |g| / std, which set the roundoff; at
        # T=1 the gradient itself is far smaller (two frames standardize to
        # nearly +-1 whatever their values).
        valid = feats.data[SequenceBatch(feats, lengths).frames.mask]
        used_var = valid.var(axis=0) if mode == "train" else var.data
        scale = np.max(np.abs(probe.data)) / np.sqrt(used_var.min() + 1e-5)
        np.testing.assert_allclose(grads[0], grads[1], rtol=0.0, atol=1e-12 * scale)

    def test_running_update_matches_batch_statistics(self):
        rng = np.random.default_rng(37)
        batch = batch_of(rng.normal(size=(3, 4, 2)), [4, 1, 3])
        state = BatchNormState.fresh(2, momentum=0.25)
        standardize_batch(batch, state, "train")
        valid = batch.features.data[batch.frames.mask]
        np.testing.assert_allclose(state.running_mean.data, 0.25 * valid.mean(axis=0),
                                   rtol=1e-14)
        np.testing.assert_allclose(state.running_var.data, 0.75 + 0.25 * valid.var(axis=0),
                                   rtol=1e-14)


class TestForward:
    def test_train_output_standardized(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(loc=5.0, scale=2.0, size=(3, 6, 4))
        lengths = [6, 4, 5]
        b = batch_of(feats, lengths)
        state = BatchNormState.fresh(4)
        out = plain_bn(b, state, "train")
        mask = b.frames.mask
        vals = out.features.data[mask]  # [n_valid, 4]
        n = vals.shape[0]
        mean = vals.mean(axis=0)
        var = ((vals - mean) ** 2).sum(axis=0) / n
        assert np.all(np.abs(mean) < 1e-9)
        # variance shrinks to sigma^2 / (sigma^2 + eps)
        _, raw_var = batch_statistics(b)
        expect = raw_var.data / (raw_var.data + state.epsilon)
        assert np.all(np.abs(var - expect) < 1e-6)

    def test_train_updates_running_stats(self):
        b = batch_of([[[1.0], [3.0]]], [2])
        state = BatchNormState.fresh(1, momentum=0.1)
        plain_bn(b, state, "train")
        assert state.running_mean.data.tolist() == [pytest.approx(0.9 * 0.0 + 0.1 * 2.0)]
        assert state.running_var.data.tolist() == [pytest.approx(0.9 * 1.0 + 0.1 * 1.0)]

    def test_momentum_one_copies_batch_stats(self):
        b = batch_of([[[1.0], [3.0]]], [2])
        state = BatchNormState.fresh(1, momentum=1.0)
        plain_bn(b, state, "train")
        assert state.running_mean.data.tolist() == [2.0]
        assert state.running_var.data.tolist() == [1.0]

    def test_infer_uses_running_stats(self):
        b = batch_of([[[1.0], [2.0]]], [2])
        state = BatchNormState.fresh(1, epsilon=1e-5)
        out = plain_bn(b, state, "infer")
        expect = np.array([1.0, 2.0]) / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.features.data[0, :, 0], expect)

    def test_infer_does_not_touch_running_stats(self):
        b = batch_of([[[1.0], [2.0]]], [2])
        state = BatchNormState.fresh(1)
        before = state.running_mean.data.copy()
        plain_bn(b, state, "infer")
        np.testing.assert_array_equal(state.running_mean.data, before)

    def test_padded_frames_zeroed(self):
        feats = np.ones((2, 4, 3))
        feats[0, 2:] = 50.0
        feats[1, 1:] = -9.0
        b = batch_of(feats, [2, 1])
        state = BatchNormState.fresh(3)
        out = plain_bn(b, state, "train")
        assert np.all(out.features.data[0, 2:] == 0.0)
        assert np.all(out.features.data[1, 1:] == 0.0)

    def test_padding_content_invariance(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(2, 5, 3))
        lengths = [4, 2]
        out1 = plain_bn(batch_of(feats, lengths), BatchNormState.fresh(3), "train")
        corrupted = feats.copy()
        corrupted[0, 4:] = 1e6
        corrupted[1, 2:] = -1e6
        out2 = plain_bn(batch_of(corrupted, lengths), BatchNormState.fresh(3), "train")
        np.testing.assert_array_equal(out1.features.data, out2.features.data)


class TestGradients:
    def test_forward_grad_through_statistics(self):
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(2, 3, 2))
        lengths = [3, 2]
        probe = Tensor(rng.normal(size=(2, 3, 2)))

        def f(theta):
            state = BatchNormState.fresh(2)
            out = plain_bn(SequenceBatch(theta, lengths), state, "train")
            return taped.tsum(taped.mul(out.features, probe))

        assert finite_diff_check(f, Tensor(feats)) < 1e-4

    def test_gamma_beta_grads(self):
        rng = np.random.default_rng(19)
        feats = Tensor(rng.normal(size=(2, 3, 2)))
        lengths = [3, 2]
        probe = Tensor(rng.normal(size=(2, 3, 2)))

        def loss_with(gamma, beta):
            out = abn_forward(SequenceBatch(feats, lengths), BatchNormState.fresh(2),
                              LearnedScaleShift(gamma, beta), "train")
            return taped.tsum(taped.mul(out.features, probe))

        base_beta = Tensor(rng.normal(size=(2,)))
        err = finite_diff_check(lambda g: loss_with(g, base_beta), Tensor([1.3, 0.7]))
        assert err < 1e-4
        err = finite_diff_check(lambda b: loss_with(Tensor([1.3, 0.7]), b), base_beta)
        assert err < 1e-4

    def test_padded_frames_get_zero_gradient(self):
        rng = np.random.default_rng(23)
        feats = Tensor(rng.normal(size=(1, 4, 2)))
        probe = Tensor(rng.normal(size=(1, 4, 2)))
        tape = GradTape()
        with recording(tape):
            out = plain_bn(SequenceBatch(feats, [2]), BatchNormState.fresh(2), "train")
            loss = taped.tsum(taped.mul(out.features, probe))
        g = backward(tape, loss).wrt(feats)
        assert np.all(g[0, 2:] == 0.0)
        assert np.any(g[0, :2] != 0.0)


class TestStateValidation:
    def test_fresh_defaults(self):
        pair = LearnedScaleShift.init(3)
        assert pair.gamma.data.tolist() == [1.0, 1.0, 1.0]
        assert pair.beta.data.tolist() == [0.0, 0.0, 0.0]
        s = BatchNormState.fresh(3)
        assert s.running_mean.data.tolist() == [0.0, 0.0, 0.0]
        assert s.running_var.data.tolist() == [1.0, 1.0, 1.0]
        assert s.epsilon == 1e-5
        assert s.momentum == 0.1

    def test_value_contracts_are_not_shape_errors(self):
        batch = batch_of(np.ones((1, 2, 3)), [2])
        model = Model(ModelConfig(1, 2, 3, 4, "bn"), np.random.default_rng(0))
        with pytest.raises(errors.ContractError, match="mode") as exc:
            stack_forward(batch, model, "eval")
        assert not isinstance(exc.value, errors.ShapeError)
