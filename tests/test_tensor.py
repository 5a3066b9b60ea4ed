"""Tensor core: forward semantics, taped gradients, finite differences."""

import math

import numpy as np
import pytest

from abn import errors
from abn import tensor as tc
from abn.data import SequenceBatch
from abn.gradcheck import central_points
from abn.recurrent import Model, ModelConfig, stack_forward
from abn.tensor import (
    GradTape,
    Tensor,
    backward,
    recording,
)

import taped
from taped import finite_diff_check


class TestTensorBasics:
    def test_values_are_row_major_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]
        assert t.size == 4

    def test_rejects_nonfinite(self):
        with pytest.raises(errors.DomainError):
            Tensor([1.0, float("nan")])
        with pytest.raises(errors.DomainError):
            Tensor([float("inf")])

    def test_rejects_zero_dimension(self):
        with pytest.raises(errors.ShapeError):
            Tensor(np.zeros((2, 0)))

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_constructor_copies_input(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.data.ravel()[0] == 1.0


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = taped.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = taped.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero_annihilates(self):
        rng = np.random.default_rng(0)
        b = Tensor(rng.normal(size=(3, 4)))
        out = taped.matmul(tc.zeros(2, 3), b)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(errors.ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            taped.matmul(tc.zeros(2, 3), tc.zeros(2, 4))

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4, 2))
        b = rng.normal(size=(3, 2, 5))
        out = taped.matmul(Tensor(a), Tensor(b))
        for i in range(3):
            np.testing.assert_allclose(out.data[i], a[i] @ b[i], rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(taped.transpose(Tensor(a)).data[1], a[1].T)

    def test_batch_axes_must_match(self):
        with pytest.raises(errors.ShapeError):
            taped.matmul(tc.zeros(2, 3, 4), tc.zeros(3, 4, 5))
        with pytest.raises(errors.ShapeError):
            taped.matmul(tc.zeros(2, 3, 4), tc.zeros(4, 5))

    def test_associative_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = Tensor(rng.normal(size=(4, 3)))
            b = Tensor(rng.normal(size=(3, 5)))
            c = Tensor(rng.normal(size=(5, 2)))
            left = taped.matmul(taped.matmul(a, b), c).data
            right = taped.matmul(a, taped.matmul(b, c)).data
            np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)


class TestAffine:
    def test_identity_weight(self):
        v = Tensor([1.5, -2.0, 0.25])
        out = taped.affine(v, Tensor(np.eye(3)), tc.zeros(3))
        np.testing.assert_array_equal(out.data, v.data)

    def test_hand_case(self):
        out = taped.affine(Tensor([3.0]), Tensor([[2.0]]), Tensor([1.0]))
        assert out.data.tolist() == [7.0]

    def test_zero_weight_returns_bias(self):
        out = taped.affine(Tensor([5.0, -3.0]), tc.zeros(4, 2), Tensor([1.0, 2.0, 3.0, 4.0]))
        assert out.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_batched_rows(self):
        # Rows are independent samples: [B, in] @ W.T + b.
        x = Tensor([[1.0, 0.0], [0.0, 1.0]])
        w = Tensor([[2.0, 3.0]])
        b = Tensor([10.0])
        out = taped.affine(x, w, b)
        assert out.data.tolist() == [[12.0], [13.0]]


class TestElementwise:
    def test_sigmoid_symmetry(self):
        assert taped.sigmoid(Tensor([0.0])).item() == 0.5

    def test_sigmoid_closed_form(self):
        assert taped.sigmoid(Tensor([math.log(3.0)])).item() == pytest.approx(0.75, abs=1e-15)

    def test_tanh_odd(self):
        assert taped.tanh(Tensor([0.0])).item() == 0.0



class TestMaskedSoftmax:
    def test_uniform(self):
        out = taped.masked_softmax(Tensor([0.0, 0.0]), np.ones(2, bool))
        assert out.data.tolist() == [0.5, 0.5]

    def test_closed_form(self):
        out = taped.masked_softmax(Tensor([math.log(2.0), 0.0]), np.ones(2, bool))
        np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_masked_position_exactly_zero(self):
        out = taped.masked_softmax(Tensor([0.0, 0.0, 5.0]), np.arange(3) < 2)
        assert out.data.tolist() == [0.5, 0.5, 0.0]

    def test_boolean_mask(self):
        out = taped.masked_softmax(Tensor([3.0, 1.0, 1.0]), np.array([False, True, True]))
        assert out.data[0] == 0.0
        np.testing.assert_allclose(out.data[1:], [0.5, 0.5])

    def test_broadcast_key_mask(self):
        rng = np.random.default_rng(14)
        scores = rng.normal(size=(2, 3, 3))
        keys = np.array([[[True, True, True]], [[True, False, False]]])
        out = taped.masked_softmax(Tensor(scores), keys)
        row_wise = taped.masked_softmax(Tensor(scores[0]), np.ones(3, bool)).data
        np.testing.assert_allclose(out.data[0], row_wise, rtol=0.0, atol=1e-15)
        assert out.data[1].tolist() == [[1.0, 0.0, 0.0]] * 3

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        scores = Tensor(rng.normal(size=(6, 9)) * 4.0)
        out = taped.masked_softmax(scores, np.arange(9) < 7)
        sums = out.data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(out.data >= 0.0)
        assert np.all(out.data[:, 7:] == 0.0)

    def test_stable_at_large_scores(self):
        out = taped.masked_softmax(Tensor([1000.0, 1000.0]), np.ones(2, bool))
        assert out.data.tolist() == [0.5, 0.5]


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3) + 1.0)
        tape = GradTape()
        with recording(tape):
            loss = taped.tsum(x)
        g = backward(tape, loss).wrt(x)
        np.testing.assert_array_equal(g, np.ones((2, 3)))

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor([0.0])
        tape = GradTape()
        with recording(tape):
            loss = taped.tsum(taped.sigmoid(x))
        g = backward(tape, loss).wrt(x)
        assert g[0] == pytest.approx(0.25, abs=1e-15)

    def test_untouched_parameter_gets_zeros(self):
        x = Tensor([1.0, 2.0])
        unused = Tensor([[3.0, 4.0]])
        tape = GradTape()
        with recording(tape):
            loss = taped.tsum(x)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads.wrt(unused), np.zeros((1, 2)))

    def test_nonscalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        tape = GradTape()
        with recording(tape):
            y = taped.mul(x, 2.0)
        with pytest.raises(errors.ContractError):
            backward(tape, y)

    def test_reused_operand_accumulates(self):
        # loss = sum(x*x) has gradient 2x.
        x = Tensor([1.0, -2.0, 3.0])
        tape = GradTape()
        with recording(tape):
            loss = taped.tsum(taped.mul(x, x))
        g = backward(tape, loss).wrt(x)
        np.testing.assert_allclose(g, [2.0, -4.0, 6.0])

    def test_no_tape_records_nothing(self):
        tape = GradTape()
        taped.mul(Tensor([1.0]), Tensor([2.0]))
        assert len(tape) == 0

    def test_nested_recording_rejected(self):
        with recording(GradTape()):
            with pytest.raises(errors.ContractError):
                with recording(GradTape()):
                    pass


class TestFiniteDiffCheck:
    def test_quadratic_is_near_exact(self):
        err = finite_diff_check(lambda t: taped.tsum(taped.mul(t, t)), Tensor([3.0]))
        assert err < 1e-9

    def test_tanh_sum(self):
        rng = np.random.default_rng(21)
        theta = Tensor(rng.normal(size=(4,)))
        err = finite_diff_check(lambda t: taped.tsum(taped.tanh(t)), theta)
        assert err < 1e-6

    def test_constant_function(self):
        err = finite_diff_check(lambda t: taped.tsum(taped.mul(t, 0.0)), Tensor([1.0, 2.0]))
        assert err == 0.0

    def test_matmul_chain_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        b = Tensor(rng.normal(size=(3, 2)))

        def f(theta):
            return taped.tsum(taped.tanh(taped.matmul(theta, b)))

        err = finite_diff_check(f, Tensor(rng.normal(size=(2, 3))))
        assert err < 1e-4

    def test_points_are_built_from_the_unperturbed_value(self):
        # Adding and then subtracting h in place would return some of these
        # coordinates one ulp off (0.000444312500960888 among them).
        x = np.array([[0.000444312500960888, -1.7, 3.3e-7], [0.1, 12.5, -0.30000000000000004]])
        h = 1e-4
        seen = []

        def f(t):
            seen.append(t.data.copy())
            return taped.tsum(t)

        finite_diff_check(f, Tensor(x), h=h)
        seen = seen[1:]  # the first call is the taped one, at x itself
        assert len(seen) == 2 * x.size
        for i in range(x.size):
            for point, value in ((seen[2 * i], x.flat[i] + h), (seen[2 * i + 1], x.flat[i] - h)):
                expected = x.copy()
                expected.flat[i] = value
                assert np.array_equal(point, expected), i
        np.testing.assert_array_equal(central_points(x, h), np.array(seen))


def _check(f, shape, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    theta = Tensor(rng.normal(size=shape))
    assert finite_diff_check(f, theta) < tol


class TestPrimitiveGradients:
    """Every primitive passes the finite-difference oracle on a fixed seed."""

    def test_add(self):
        c = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        _check(lambda t: taped.tsum(taped.add(t, c)), (3, 4), 100)

    def test_add_broadcast(self):
        c = Tensor(np.random.default_rng(2).normal(size=(4,)))
        _check(lambda t: taped.tsum(taped.mul(taped.add(t, c), taped.add(t, c))), (3, 4), 101)

    def test_sub(self):
        c = Tensor(np.random.default_rng(3).normal(size=(3, 4)))
        _check(lambda t: taped.tsum(taped.mul(taped.sub(c, t), taped.sub(c, t))), (3, 4), 102)

    def test_mul(self):
        c = Tensor(np.random.default_rng(4).normal(size=(3, 4)))
        _check(lambda t: taped.tsum(taped.mul(t, c)), (3, 4), 103)

    def test_div(self):
        c = Tensor(np.abs(np.random.default_rng(5).normal(size=(3, 4))) + 1.0)
        _check(lambda t: taped.tsum(taped.div(t, c)), (3, 4), 104)
        _check(lambda t: taped.tsum(taped.div(c, taped.add(taped.mul(t, t), 1.0))), (3, 4), 105)

    def test_neg(self):
        _check(lambda t: taped.tsum(taped.tanh(taped.mul(t, -1.0))), (5,), 106)

    def test_matmul_both_sides(self):
        c = Tensor(np.random.default_rng(6).normal(size=(4, 2)))
        _check(lambda t: taped.tsum(taped.tanh(taped.matmul(t, c))), (3, 4), 107)
        d = Tensor(np.random.default_rng(7).normal(size=(2, 4)))
        _check(lambda t: taped.tsum(taped.tanh(taped.matmul(d, t))), (4, 3), 108)
        e = Tensor(np.random.default_rng(12).normal(size=(2, 4, 3)))
        _check(lambda t: taped.tsum(taped.tanh(taped.matmul(t, e))), (2, 3, 4), 127)
        _check(lambda t: taped.tsum(taped.tanh(taped.matmul(e, t))), (2, 3, 2), 128)

    def test_linear_vector_and_rows(self):
        x1 = Tensor(np.random.default_rng(8).normal(size=(4,)))
        _check(lambda t: taped.tsum(taped.tanh(taped.linear(x1, t))), (3, 4), 109)
        x2 = Tensor(np.random.default_rng(9).normal(size=(5, 4)))
        _check(lambda t: taped.tsum(taped.tanh(taped.linear(x2, t))), (3, 4), 110)
        w = Tensor(np.random.default_rng(10).normal(size=(3, 4)))
        _check(lambda t: taped.tsum(taped.tanh(taped.linear(t, w))), (5, 4), 111)

    def test_sigmoid_tanh(self):
        _check(lambda t: taped.tsum(taped.sigmoid(t)), (6,), 112)
        _check(lambda t: taped.tsum(taped.tanh(t)), (6,), 113)

    def test_sqrt(self):
        rng = np.random.default_rng(115)
        theta = Tensor(np.abs(rng.normal(size=(5,))) + 0.5)
        assert finite_diff_check(lambda t: taped.tsum(taped.sqrt(t)), theta) < 1e-4

    def test_sum_mean_axes(self):
        _check(lambda t: taped.tsum(taped.mul(taped.tsum(t, axis=0), taped.tsum(t, axis=0))), (3, 4), 116)
        _check(lambda t: taped.tsum(taped.mul(taped.tmean(t, axis=1, keepdims=True), t)), (3, 4), 117)

    def test_masked_softmax_grad(self):
        first3, first4 = np.arange(4) < 3, np.arange(5) < 4
        _check(lambda t: taped.tsum(taped.tanh(taped.mul(taped.masked_softmax(t, first3), 5.0))), (4,), 118)
        _check(
            lambda t: taped.tsum(taped.mul(taped.masked_softmax(t, first4), taped.sigmoid(t))), (2, 5), 119
        )
        key_mask = np.array([[[True, True, False]], [[True, False, False]]])
        _check(
            lambda t: taped.tsum(taped.mul(taped.masked_softmax(t, key_mask), taped.sigmoid(t))),
            (2, 3, 3),
            129,
        )

    def test_reshape_transpose(self):
        _check(lambda t: taped.tsum(taped.tanh(taped.reshape(t, (2, 6)))), (3, 4), 120)
        _check(lambda t: taped.tsum(taped.tanh(taped.matmul(t, taped.transpose(t)))), (3, 4), 121)
        _check(lambda t: taped.tsum(taped.tanh(taped.matmul(t, taped.transpose(t)))), (2, 3, 4), 130)

    def test_concat(self):
        c = Tensor(np.random.default_rng(11).normal(size=(2, 3)))
        _check(lambda t: taped.tsum(taped.tanh(taped.concat([t, c], axis=0))), (2, 3), 122)


class TestDropout:
    @pytest.mark.parametrize("variant", ["bn", "abn-f", "abn-u"])
    def test_infer_mode_is_identity(self, variant):
        # The pass's gate hands every stage the rate 0.0 at inference: at
        # dropout 0.5 an infer pass, with or without a generator, gives the
        # bits of the same weights at dropout 0.0 and draws nothing.
        batch = SequenceBatch(Tensor(np.random.default_rng(1).normal(size=(3, 5, 3))), [5, 2, 4])
        dropped, plain = (Model(ModelConfig(2, 3, 3, 4, variant, dropout=rate),
                                np.random.default_rng(2)) for rate in (0.5, 0.0))
        rng = np.random.default_rng(5)
        outs = [stack_forward(batch, model, "infer", r).features.data
                for model, r in ((dropped, rng), (dropped, None), (plain, None))]
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
        for out in outs[1:]:
            np.testing.assert_array_equal(outs[0], out)

    def test_zero_rate_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert taped.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_train_scales_kept_entries(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones(1000))
        out = taped.dropout(x, 0.25, rng)
        kept = out.data[out.data != 0.0]
        np.testing.assert_allclose(kept, 4.0 / 3.0)
        # Keep fraction concentrates near 0.75 on 1000 draws.
        assert abs(kept.size / 1000.0 - 0.75) < 0.05

    def test_bad_rate_rejected(self):
        # The config bounds the rate; the pass's gate refuses any mode but
        # "train" and "infer".
        with pytest.raises(errors.ContractError, match="dropout"):
            ModelConfig(1, 2, 3, 4, "bn", dropout=1.0)
        model = Model(ModelConfig(1, 2, 3, 4, "bn", dropout=0.5), np.random.default_rng(3))
        batch = SequenceBatch(Tensor(np.ones((1, 2, 3))), [2])
        with pytest.raises(errors.ContractError, match="mode"):
            stack_forward(batch, model, "bad-mode", np.random.default_rng(4))
