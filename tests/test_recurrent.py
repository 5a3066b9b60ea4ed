"""LSTM cell, bidirectional unrolling, and the full normalized stack."""

import contextlib
import math

import numpy as np
import pytest
from scipy.special import expit

from abn import errors, recurrent, train
from abn import tensor as tc
from abn.batching import Batch
from abn.ctc import CtcTargets, LabelSequence
from abn.data import Frames, SequenceBatch
from abn.recurrent import (
    LstmLayerParams,
    Model,
    ModelConfig,
    bilstm_layer,
    project,
    run_direction,
    run_layers,
    stack_forward,
)
from abn.tensor import GradTape, Tensor, backward, recording

import taped
from taped import finite_diff_check


class LstmState:
    """Hidden and cell vectors; either [n] or batched [batch, n]."""

    __slots__ = ("h", "c")

    def __init__(self, h: Tensor, c: Tensor):
        if h.shape != c.shape:
            raise errors.ShapeError(f"h {h.shape} and c {c.shape} must match")
        self.h = h
        self.c = c

    @classmethod
    def zero(cls, hidden: int):
        return cls(tc.zeros(hidden), tc.zeros(hidden))


def lstm_step(x_norm: Tensor, prev: LstmState, params: LstmLayerParams) -> LstmState:
    """One LSTM update on a normalized input frame (single or batched).

    The reference cell for the fused ``run_direction`` kernel, built from
    taped primitives. Gates read the previous hidden state and the
    normalized input; the output gate additionally reads the fresh cell
    state elementwise. It reads each gate's row block of ``w_x``, ``w_h``
    and ``b`` untaped, so no gradient reaches those three.
    """
    p = params.w_x.shape[-1]
    if x_norm.shape[-1] != p:
        raise errors.ShapeError(f"input dim {x_norm.shape[-1]} does not match weights {p}")
    n = params.hidden
    h, c = prev.h, prev.c

    def gate(k):
        rows = slice(k * n, (k + 1) * n)
        z = taped.add(taped.linear(h, Tensor._wrap(params.w_h.data[rows])),
                   taped.linear(x_norm, Tensor._wrap(params.w_x.data[rows])))
        return taped.add(z, Tensor._wrap(params.b.data[rows]))

    i = taped.sigmoid(gate(0))
    f = taped.sigmoid(gate(1))
    c_new = taped.add(taped.mul(f, c), taped.mul(i, taped.tanh(gate(2))))
    o = taped.sigmoid(taped.add(gate(3), taped.mul(params.w_co, c_new)))
    h_new = taped.mul(o, taped.tanh(c_new))
    return LstmState(h_new, c_new)


def zero_params(n=2, p=3):
    return LstmLayerParams(tc.zeros(4 * n, p), tc.zeros(4 * n, n), tc.zeros(n), tc.zeros(4 * n))


def random_params(n, p, seed):
    return LstmLayerParams.init(n, p, np.random.default_rng(seed))


class TestLstmStep:
    def test_all_zero(self):
        out = lstm_step(tc.zeros(3), LstmState.zero(2), zero_params())
        np.testing.assert_array_equal(out.c.data, [0.0, 0.0])
        np.testing.assert_array_equal(out.h.data, [0.0, 0.0])

    def test_decay_from_stored_cell(self):
        prev = LstmState(tc.zeros(2), Tensor([2.0, 2.0]))
        out = lstm_step(tc.zeros(3), prev, zero_params())
        # f=i=0.5: c = 0.5*2 + 0.5*tanh(0) = 1; h = 0.5*tanh(1)
        np.testing.assert_allclose(out.c.data, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            out.h.data, [0.38079707797788246] * 2, atol=1e-15
        )

    def test_gate_extremes_preserve_cell(self):
        params = zero_params()
        # input gate pinned shut, forget gate pinned open
        params.b = Tensor([-40.0, -40.0, 40.0, 40.0, 0.0, 0.0, 0.0, 0.0])
        prev = LstmState(tc.zeros(2), Tensor([0.7, -1.3]))
        out = lstm_step(tc.zeros(3), prev, params)
        np.testing.assert_allclose(out.c.data, prev.c.data, atol=1e-15)

    def test_hidden_bounded(self):
        rng = np.random.default_rng(3)
        params = random_params(4, 3, 4)
        state = LstmState(Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4) * 10))
        for _ in range(20):
            state = lstm_step(Tensor(rng.normal(size=3) * 5), state, params)
            assert np.all(np.abs(state.h.data) <= 1.0)

    def test_batched_matches_single(self):
        params = random_params(3, 2, 7)
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(4, 2))
        hs = rng.normal(size=(4, 3))
        cs = rng.normal(size=(4, 3))
        batched = lstm_step(Tensor(xs), LstmState(Tensor(hs), Tensor(cs)), params)
        for b in range(4):
            single = lstm_step(
                Tensor(xs[b]), LstmState(Tensor(hs[b]), Tensor(cs[b])), params
            )
            np.testing.assert_allclose(batched.h.data[b], single.h.data, atol=1e-14)
            np.testing.assert_allclose(batched.c.data[b], single.c.data, atol=1e-14)

    def test_input_dim_mismatch(self):
        with pytest.raises(errors.ShapeError):
            lstm_step(tc.zeros(5), LstmState.zero(2), zero_params(n=2, p=3))

    def test_forget_bias_initialized_positive(self):
        params = LstmLayerParams.init(4, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(params.b.data, [0.0] * 4 + [1.0] * 4 + [0.0] * 8)
        np.testing.assert_array_equal(params.w_co.data, np.zeros(4))


class TestBilstmLayer:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(10)
        batch = SequenceBatch(Tensor(rng.normal(size=(2, 4, 3))), [4, 2])
        out = bilstm_layer(batch, zero_params(), zero_params())
        np.testing.assert_array_equal(out.features.data, np.zeros((2, 4, 4)))

    def test_single_frame_halves_agree(self):
        params = random_params(3, 2, 11)
        batch = SequenceBatch(Tensor(np.random.default_rng(12).normal(size=(1, 1, 2))), [1])
        out = bilstm_layer(batch, params, params)
        np.testing.assert_allclose(
            out.features.data[0, 0, :3], out.features.data[0, 0, 3:], atol=1e-15
        )

    def test_palindrome_symmetry(self):
        params = random_params(3, 2, 13)
        rng = np.random.default_rng(14)
        half = rng.normal(size=(3, 2))
        feats = np.concatenate([half, half[::-1]], axis=0)[None]  # length-6 palindrome
        out = bilstm_layer(SequenceBatch(Tensor(feats), [6]), params, params).features.data[0]
        n = 3
        for t in range(6):
            np.testing.assert_allclose(out[t, :n], out[5 - t, n:], atol=1e-12)
            np.testing.assert_allclose(out[t, n:], out[5 - t, :n], atol=1e-12)

    def test_padded_frames_zero(self):
        rng = np.random.default_rng(15)
        batch = SequenceBatch(Tensor(rng.normal(size=(2, 5, 2))), [5, 3])
        out = bilstm_layer(batch, random_params(2, 2, 16), random_params(2, 2, 17))
        assert np.all(out.features.data[1, 3:] == 0.0)
        assert np.any(out.features.data[1, :3] != 0.0)

    def test_padding_content_invariance(self):
        rng = np.random.default_rng(18)
        feats = rng.normal(size=(2, 5, 2))
        pf, pb = random_params(2, 2, 19), random_params(2, 2, 20)
        out1 = bilstm_layer(SequenceBatch(Tensor(feats), [5, 2]), pf, pb)
        corrupted = feats.copy()
        corrupted[1, 2:] = 99.0
        out2 = bilstm_layer(SequenceBatch(Tensor(corrupted), [5, 2]), pf, pb)
        np.testing.assert_array_equal(out1.features.data, out2.features.data)

    def test_backward_direction_sees_suffix_only(self):
        # For the shorter utterance the backward half at its last valid frame
        # must equal a fresh single-frame run: the padding carries no state.
        params = random_params(2, 2, 21)
        rng = np.random.default_rng(22)
        feats = rng.normal(size=(1, 4, 2))
        feats[0, 1:] = 0.0
        out_padded = bilstm_layer(SequenceBatch(Tensor(feats), [1]), params, params)
        out_exact = bilstm_layer(
            SequenceBatch(Tensor(feats[:, :1].copy()), [1]), params, params
        )
        np.testing.assert_allclose(
            out_padded.features.data[0, 0], out_exact.features.data[0, 0], atol=1e-15
        )

    def test_matches_unrolled_reference_cell(self):
        # The fused kernel against a per-frame unroll of the taped lstm_step,
        # with state frozen and output zeroed on padded frames. The batches:
        # mixed lengths; all lengths equal, so no frame needs the mask; and
        # a length-1 utterance first, so only frame 0 skips it.
        rng = np.random.default_rng(26)
        batches = [([5, 3, 1], rng.normal(size=(3, 5, 4)))]
        pf, pb = random_params(3, 4, 27), random_params(3, 4, 28)
        pf.w_co = Tensor(rng.normal(size=3))
        pb.b = Tensor(rng.normal(size=12))
        batches += [(lengths, rng.normal(size=(3, 5, 4))) for lengths in ([5, 5, 5], [1, 5, 2])]
        for lengths, feats in batches:
            mask = SequenceBatch(Tensor(feats), lengths).frames.mask

            def unroll(params, order):
                h, c = np.zeros((3, 3)), np.zeros((3, 3))
                out = np.zeros((3, 5, 3))
                for t in order:
                    new = lstm_step(Tensor(feats[:, t]), LstmState(Tensor(h), Tensor(c)), params)
                    m = mask[:, t : t + 1]
                    out[:, t] = np.where(m, new.h.data, 0.0)
                    h = np.where(m, new.h.data, h)
                    c = np.where(m, new.c.data, c)
                return out

            expected = np.concatenate(
                [unroll(pf, range(5)), unroll(pb, range(4, -1, -1))], axis=2
            )
            out = bilstm_layer(SequenceBatch(Tensor(feats), lengths), pf, pb)
            np.testing.assert_allclose(
                out.features.data, expected, rtol=0.0, atol=1e-12, err_msg=str(lengths)
            )

    def test_gradients(self):
        # Every input and every LstmLayerParams field of both directions, on
        # three batches: one padded utterance (the padding freeze), equal
        # lengths (no frame needs the mask) and a length-1 utterance.
        rng = np.random.default_rng(23)
        def draw(lengths):
            return lengths, Tensor(rng.normal(size=(2, 3, 2))), Tensor(rng.normal(size=(2, 3, 4)))

        batches = [draw([3, 2])]
        pf, pb = random_params(2, 2, 24), random_params(2, 2, 25)
        for params in (pf, pb):  # nonzero peepholes and biases exercise every path
            params.w_co = Tensor(rng.normal(size=2))
            params.b = Tensor(rng.normal(size=8))
        batches += [draw([3, 3]), draw([1, 3])]

        for lengths, feats, probe in batches:

            def f(theta, lengths=lengths, probe=probe):
                out = bilstm_layer(SequenceBatch(theta, lengths), pf, pb)
                return taped.tsum(taped.mul(out.features, probe))

            assert finite_diff_check(f, feats) < 1e-4, lengths

            for direction, params in (("fwd", pf), ("bwd", pb)):
                for name in LstmLayerParams.__slots__:
                    def g(theta, params=params, name=name, lengths=lengths, feats=feats,
                          probe=probe):
                        swapped = LstmLayerParams(
                            *(getattr(params, k) for k in LstmLayerParams.__slots__)
                        )
                        setattr(swapped, name, theta)
                        pair = (swapped, pb) if params is pf else (pf, swapped)
                        out = bilstm_layer(SequenceBatch(feats, lengths), *pair)
                        return taped.tsum(taped.mul(out.features, probe))

                    err = finite_diff_check(g, getattr(params, name))
                    assert err < 1e-4, f"{lengths} {direction}.{name}: {err}"


class TestModelConfig:
    def test_uniform_variant_expansion(self):
        cfg = ModelConfig(3, 4, 6, 5, "abn-f")
        assert cfg.variants == ["abn-f", "abn-f", "abn-f"]

    def test_per_layer_variants(self):
        cfg = ModelConfig(2, 4, 6, 5, ["bn", "abn-u"])
        assert cfg.variants == ["bn", "abn-u"]

    def test_rejects_bad_inputs(self):
        with pytest.raises(errors.ContractError):
            ModelConfig(0, 4, 6, 5, "bn")
        with pytest.raises(errors.ContractError):
            ModelConfig(1, 4, 6, 5, "bn", dropout=1.0)
        with pytest.raises(errors.ContractError):
            ModelConfig(2, 4, 6, 5, ["bn"])
        with pytest.raises(errors.ContractError):
            ModelConfig(1, 4, 6, 5, "layer-norm")
        # The model-shape bounds that config files and checkpoints share.
        for args, kwargs, key in (
            ((2, 0, 6, 5, "bn"), {}, "hidden"),
            ((2, 4, 0, 5, "bn"), {}, "features"),
            ((2, 4, 6, 5, "bn"), {"embed_dim": 0}, "embed_dim"),
            ((2, 4, 6, 5, "bn"), {"attn_dim": 0}, "attn_dim"),
            ((2, 4, 6, 1, "bn"), {}, "vocab"),
            ((2, 4, 6, 5, "bn"), {"embed_dim": 6}, "embed_dim"),
            ((2, 2, 6, 5, "bn"), {"embed_dim": 4}, "embed_dim"),
            ((1, 4, 6, 5, "bn"), {"dropout": -0.1}, "dropout"),
            ((1, 4, 6, 5, "bn"), {"bn_eps": 0.0}, "bn_eps"),
            ((1, 4, 6, 5, "bn"), {"bn_eps": float("nan")}, "bn_eps"),
            ((1, 4, 6, 5, "bn"), {"bn_momentum": 0.0}, "bn_momentum"),
            ((1, 4, 6, 5, "bn"), {"bn_momentum": 2.0}, "bn_momentum"),
            ((1, 4, 6, 5, "bn"), {"bn_momentum": float("nan")}, "bn_momentum"),
        ):
            with pytest.raises(errors.ContractError, match=key):
                ModelConfig(*args, **kwargs)
        # One layer: the bottleneck only has to fit under the features.
        assert ModelConfig(1, 2, 6, 5, "bn", embed_dim=4).embed_dim == 4

    def test_layer_input_dims(self):
        cfg = ModelConfig(3, 8, 5, 4, "bn")
        assert cfg.layer_input_dim(0) == 5
        assert cfg.layer_input_dim(1) == 16
        assert cfg.layer_input_dim(2) == 16


class TestModel:
    def test_parameter_registry_roundtrip(self):
        model = Model(ModelConfig(2, 3, 4, 5, ["abn-f", "bn"], embed_dim=2),
                      np.random.default_rng(30))
        params = model.parameters()
        assert "layer0.gen.w_embed" in params
        assert "layer0.bn.gamma" not in params  # replaced by the generator
        assert "layer1.bn.gamma" in params
        new = Tensor(np.full((5,), 3.0))
        model.set_parameter("out.b", new)
        assert model.parameters()["out.b"] is new

    def test_set_parameter_shape_guard(self):
        model = Model(ModelConfig(1, 3, 4, 5, "bn"), np.random.default_rng(31))
        with pytest.raises(errors.ShapeError):
            model.set_parameter("out.b", tc.zeros(4))

    def test_parameter_count_formulas(self):
        n, p, v, d_e, d_a = 4, 6, 3, 2, 3
        lstm = 4 * n * n + 4 * n * p + 5 * n
        lstm2 = 4 * n * n + 4 * n * (2 * n) + 5 * n
        model = Model(
            ModelConfig(2, n, p, v, ["abn-f", "abn-u"], embed_dim=d_e, attn_dim=d_a),
            np.random.default_rng(32),
        )
        counts = model.parameter_count()
        assert counts["layer0.fwd"] == lstm
        assert counts["layer1.bwd"] == lstm2
        assert counts["layer0.gen"] == 3 * p * d_e + d_e + 2 * p
        assert counts["layer1.gen"] == 5 * (2 * n) * d_a + 2 * (2 * n)
        assert counts["out"] == 2 * n * v + v

    def test_frame_generator_example_count(self):
        # p=8, d_e=4: embed 32+4, two heads 32+8 each.
        model = Model(ModelConfig(1, 2, 8, 3, "abn-f", embed_dim=4),
                      np.random.default_rng(33))
        assert model.parameter_count()["layer0.gen"] == 116


class TestStackForward:
    def test_zero_lstm_params_give_bias_logits(self):
        model = Model(ModelConfig(1, 2, 3, 4, "bn"), np.random.default_rng(40))
        for direction in ("fwd", "bwd"):
            for field in LstmLayerParams.__slots__:
                model.set_parameter(f"layer0.{direction}.{field}",
                                    tc.zeros(*getattr(model.layers[0].fwd, field).shape))
        model.set_parameter("out.b", Tensor([1.0, 2.0, 3.0, 4.0]))
        rng = np.random.default_rng(41)
        batch = SequenceBatch(Tensor(rng.normal(size=(2, 3, 3))), [3, 2])
        out = stack_forward(batch, model, "train")
        for b, length in ((0, 3), (1, 2)):
            for t in range(length):
                np.testing.assert_allclose(
                    out.features.data[b, t], [1.0, 2.0, 3.0, 4.0], atol=1e-15
                )

    def test_duplicate_utterances_identical_logits(self):
        model = Model(ModelConfig(2, 3, 4, 5, "abn-u", attn_dim=2),
                      np.random.default_rng(42))
        rng = np.random.default_rng(43)
        one = rng.normal(size=(1, 4, 4))
        feats = np.concatenate([one, one], axis=0)
        out = stack_forward(SequenceBatch(Tensor(feats), [4, 4]), model, "train")
        np.testing.assert_allclose(
            out.features.data[0], out.features.data[1], atol=1e-12
        )

    def test_padding_invariance_end_to_end(self):
        for variant in ("bn", "abn-f", "abn-u"):
            model = Model(
                ModelConfig(2, 3, 4, 5, variant, embed_dim=2, attn_dim=2),
                np.random.default_rng(44),
            )
            rng = np.random.default_rng(45)
            feats = rng.normal(size=(2, 5, 4))
            lengths = [5, 3]
            out1 = stack_forward(SequenceBatch(Tensor(feats), lengths), model, "infer")
            corrupted = feats.copy()
            corrupted[1, 3:] = 1e4
            out2 = stack_forward(SequenceBatch(Tensor(corrupted), lengths), model, "infer")
            mask = out1.frames.mask
            np.testing.assert_array_equal(
                out1.features.data[mask], out2.features.data[mask]
            )

    def test_mixed_variants_gradient_check(self):
        model = Model(
            ModelConfig(3, 2, 3, 3, ["abn-f", "abn-u", "bn"], embed_dim=2, attn_dim=2),
            np.random.default_rng(46),
        )
        rng = np.random.default_rng(47)
        feats = Tensor(rng.normal(size=(2, 2, 3)))
        probe = Tensor(rng.normal(size=(2, 2, 3)))
        lengths = [2, 1]

        # One representative parameter from each stage of the stack.
        for name in ("layer0.gen.w_embed", "layer1.gen.w_query", "layer2.bn.gamma",
                     "layer0.fwd.w_h", "layer2.bwd.w_x", "out.w"):
            base = model.parameters()[name]

            def f(theta, name=name, base=base):
                model.set_parameter(name, theta)
                try:
                    out = stack_forward(
                        SequenceBatch(feats, lengths), model, "train"
                    )
                    return taped.tsum(taped.mul(out.features, probe))
                finally:
                    model.set_parameter(name, base)

            err = finite_diff_check(f, base)
            assert err < 1e-4, f"{name}: {err}"

    # Every pass enters the stack in ``run_layers``, which compares the
    # batch's width with the one its first layer reads; no later stage
    # checks it again.
    WIDTH_ENTRIES = {
        "stack_forward": lambda model, batch, labels: stack_forward(batch, model, "infer"),
        "loss_and_gradients": lambda model, batch, labels: train.loss_and_gradients(
            model, batch, CtcTargets(labels)),
        "evaluate": lambda model, batch, labels: train.evaluate(model, [Batch(batch, labels)]),
        "run_layers_from_layer1": lambda model, batch, labels: run_layers(
            batch, model, 1, "train"),
    }

    @pytest.mark.parametrize("off_by", [-1, 1], ids=["narrow", "wide"])
    @pytest.mark.parametrize("entry", list(WIDTH_ENTRIES))
    def test_wrong_width_refused_where_the_batch_enters(self, entry, off_by):
        model = Model(ModelConfig(2, 3, 4, 5, ["abn-f", "abn-u"]), np.random.default_rng(51))
        layer = 1 if entry == "run_layers_from_layer1" else 0
        want = model.config.layer_input_dim(layer)
        got = want + off_by
        batch = SequenceBatch(Tensor(np.random.default_rng(52).normal(size=(2, 4, got))), [4, 3])
        labels = [LabelSequence([1, 2]), LabelSequence([3])]
        with pytest.raises(errors.ShapeError,
                           match=rf"^layer {layer} reads {want} features, got {got}$"):
            self.WIDTH_ENTRIES[entry](model, batch, labels)

    def test_infer_mode_uses_running_stats(self):
        model = Model(ModelConfig(1, 2, 3, 4, "bn"), np.random.default_rng(48))
        rng = np.random.default_rng(49)
        batch = SequenceBatch(Tensor(rng.normal(size=(2, 3, 3))), [3, 3])
        before = model.layers[0].norm.running_mean.data.copy()
        stack_forward(batch, model, "infer")
        np.testing.assert_array_equal(model.layers[0].norm.running_mean.data, before)
        stack_forward(batch, model, "train")
        assert np.any(model.layers[0].norm.running_mean.data != before)

    def test_dropout_needs_rng_in_train(self):
        model = Model(ModelConfig(1, 2, 3, 4, "bn", dropout=0.3),
                      np.random.default_rng(50))
        batch = SequenceBatch(Tensor(np.ones((1, 2, 3))), [2])
        with pytest.raises(errors.ContractError):
            stack_forward(batch, model, "train")
        out = stack_forward(batch, model, "train", rng=np.random.default_rng(51))
        assert out.features.shape == (1, 2, 4)


    @pytest.mark.parametrize("variant", ["bn", "abn-f", "abn-u"])
    def test_every_stage_shares_the_input_frames(self, monkeypatch, variant):
        model = Model(ModelConfig(2, 3, 4, 5, variant, dropout=0.3, embed_dim=2, attn_dim=2),
                      np.random.default_rng(52))
        batch = SequenceBatch(Tensor(np.random.default_rng(53).normal(size=(3, 5, 4))), [5, 1, 3])
        seen = []

        def spy(stage):
            def wrapped(*args, **kwargs):
                out = stage(*args, **kwargs)
                seen.extend((stage.__name__, getattr(x, "frames", x)) for x in (*args, out)
                            if isinstance(x, (SequenceBatch, Frames)))
                return out
            return wrapped

        for name in ("abn_forward", "bilstm_layer", "run_direction", "project"):
            monkeypatch.setattr(recurrent, name, spy(getattr(recurrent, name)))
        with recording(GradTape()):
            logits = recurrent.stack_forward(batch, model, "train", np.random.default_rng(54))
        # Per layer, the input and output of the normalizer and of the
        # BiLSTM (with its dropout), and each direction's input; then the
        # projection's input and output.
        assert len(seen) == 2 * 6 + 2
        for stage, frames in seen:
            assert frames is batch.frames, stage
        assert logits.frames is batch.frames


def taped_project(features, model):
    """The projection as taped primitives: the composition ``project`` replaces."""
    b, t_max, width = features.features.shape
    flat = taped.reshape(features.features, (b * t_max, width))
    logits = taped.affine(flat, model.out.w, model.out.b)
    return taped.reshape(logits, (b, t_max, model.config.vocab))


def taped_join(fwd, bwd, frames, rate=0.0, mode="infer", rng=None):
    """The join as taped primitives: ``concat``, then ``dropout`` of the joined shape."""
    return taped.dropout(taped.concat([fwd, bwd], axis=2), rate, rng, mode)


def taped_bilstm(batch, params_fwd, params_bwd, rate=0.0, mode="infer", rng=None):
    """The BiLSTM layer as separate nodes: each direction recorded as its own
    node from ``run_direction``'s output and VJP, then ``taped_join``."""
    halves = []
    for params, reverse in ((params_fwd, False), (params_bwd, True)):
        out, vjp = run_direction(batch, params, reverse)
        half = Tensor._wrap(out)
        fields = (getattr(params, name) for name in LstmLayerParams.__slots__)
        tc.record_op(half, (batch.features, *fields), vjp)
        halves.append(half)
    return taped_join(*halves, batch.frames, rate, mode, rng)


class TestFusedOutputStage:
    """``project`` and ``bilstm_layer`` against the separate nodes they
    replace: output and every gradient, bit for bit, in one node each."""

    LENGTHS = (6, 1, 4, 1)

    def _probe(self, node, inputs, wrt):
        probe = Tensor(np.random.default_rng(60).normal(size=node(*inputs).shape))
        tape = GradTape()
        with recording(tape):
            out = node(*inputs)
            n_nodes = len(tape)
            loss = taped.tsum(taped.mul(out, probe))
        grads = backward(tape, loss)
        return out.data, [grads.wrt(t) for t in wrt], n_nodes

    def test_project(self):
        rng = np.random.default_rng(61)
        model = Model(ModelConfig(1, 3, 4, 5, "bn"), rng)
        model.set_parameter("out.b", Tensor(rng.normal(size=5)))
        feats = SequenceBatch(Tensor(rng.normal(size=(4, 6, 6))), self.LENGTHS)
        wrt = [feats.features, model.out.w, model.out.b]
        got = self._probe(lambda f, m: project(f, m).features, (feats, model), wrt)
        ref = self._probe(taped_project, (feats, model), wrt)
        np.testing.assert_array_equal(got[0], ref[0])
        for name, g_got, g_ref in zip(("features", "w", "b"), got[1], ref[1]):
            assert np.array_equal(g_got, g_ref), f"d{name} differs"
        assert (got[2], ref[2]) == (1, 4)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_bilstm_layer(self, rate):
        rng = np.random.default_rng(62)
        batch = SequenceBatch(Tensor(rng.normal(size=(4, 6, 3))), self.LENGTHS)
        pf, pb = random_params(2, 3, 63), random_params(2, 3, 64)
        pf.w_co, pb.w_co = (Tensor(rng.normal(size=2)) for _ in range(2))
        probe = Tensor(rng.normal(size=(4, 6, 4)))
        wrt = [batch.features] + [getattr(p, name) for p in (pf, pb)
                                  for name in LstmLayerParams.__slots__]
        runs = []
        for layer in (lambda *a: bilstm_layer(*a).features, taped_bilstm):
            drop_rng = np.random.default_rng(65)
            tape = GradTape()
            with recording(tape):
                out = layer(batch, pf, pb, rate, "train", drop_rng)
                n_nodes = len(tape)
                loss = taped.tsum(taped.mul(out, probe))
            grads = backward(tape, loss)
            runs.append((out.data, [grads.wrt(t) for t in wrt],
                         drop_rng.bit_generator.state, n_nodes))
        got, ref = runs
        np.testing.assert_array_equal(got[0], ref[0])
        names = ["x"] + [f"{d}.{name}" for d in ("fwd", "bwd") for name in LstmLayerParams.__slots__]
        for name, g_got, g_ref in zip(names, got[1], ref[1]):
            assert np.array_equal(g_got, g_ref), f"d{name} differs"
        assert got[2] == ref[2]  # the same draws from the generator
        drew = got[2] != np.random.default_rng(65).bit_generator.state
        assert drew == (rate > 0)
        # The reference: two directions, the concat and, at rate > 0, the dropout.
        assert (got[3], ref[3]) == (1, 3 if rate == 0 else 4)

    def test_untaped_directions_keep_no_vjp(self):
        # An untaped pass must not keep a direction's gates and cells alive
        # in a VJP closure, and must give the taped pass's numbers bit for bit.
        rng = np.random.default_rng(66)
        batch = SequenceBatch(Tensor(rng.normal(size=(4, 6, 3))), self.LENGTHS)
        params = random_params(2, 3, 67)
        for reverse in (False, True):
            untaped, none = run_direction(batch, params, reverse)
            assert none is None
            with recording(GradTape()) as tape:
                taped_out, vjp = run_direction(batch, params, reverse)
            assert callable(vjp) and len(tape) == 0  # the kernel records nothing
            np.testing.assert_array_equal(untaped, taped_out)
        outs = []
        for record in (False, True):
            drop_rng = np.random.default_rng(68)
            tape = GradTape()
            with recording(tape) if record else contextlib.nullcontext():
                out = bilstm_layer(batch, params, params, 0.3, "train", drop_rng)
            outs.append((out.features.data, len(tape)))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert (outs[0][1], outs[1][1]) == (0, 1)


def masked_run_direction(batch, params, reverse):
    """``run_direction`` as it was before it skipped padded rows: every
    frame runs on all B rows, and the mask zeroes the padded ones. The
    reference for ``TestLiveRows``; its VJP is always returned."""
    x = batch.features
    x_lead, (b, t_max, p) = x.shape[:-3], x.shape[-3:]
    n = params.hidden
    w_x, w_co = params.w_x.data, tc.per_replica(params.w_co.data, 1, 3)
    lead = np.broadcast_shapes(x_lead, w_x.shape[:-2]) if w_x.ndim > 2 else x_lead
    w_h_t = np.ascontiguousarray(params.w_h.data.mT)
    full, mask = batch.frames.full, batch.frames.mask_tm
    x_tm = np.ascontiguousarray(np.swapaxes(x.data, -3, -2)).reshape(x_lead + (t_max * b, p))
    gates = (x_tm @ w_x.mT).reshape(lead + (t_max, b, 4 * n))
    if lead:
        gates = np.ascontiguousarray(np.moveaxis(gates, -3, 0))
    gates += tc.per_replica(params.b.data, 1, 3)
    border = t_max if reverse else 0
    hs = np.empty((t_max + 1,) + lead + (b, n))
    cs = np.empty((t_max + 1,) + lead + (b, n))
    h, c = hs[border], cs[border]
    h[...] = c[...] = 0.0
    ahead, behind = slice(1, None), slice(None, -1)
    written, read = (behind, ahead) if reverse else (ahead, behind)
    out, cell, h_in, c_in = hs[written], cs[written], hs[read], cs[read]
    order = range(t_max - 1, -1, -1) if reverse else range(t_max)
    for t in order:
        z = gates[t]
        z += h @ w_h_t
        expit(z[..., : 2 * n], out=z[..., : 2 * n])
        np.tanh(z[..., 2 * n : 3 * n], out=z[..., 2 * n : 3 * n])
        c_new = np.multiply(z[..., n : 2 * n], c, out=cell[t])
        c_new += z[..., :n] * z[..., 2 * n : 3 * n]
        o = z[..., 3 * n :]
        o += w_co * c_new
        expit(o, out=o)
        if t >= full:
            c_new *= mask[t]
        h = np.tanh(c_new, out=out[t])
        h *= o
        c = c_new
    result = np.moveaxis(out, 0, -2)

    def vjp(grad):
        i, f, g, o = (gates[:, :, k * n : (k + 1) * n] for k in range(4))
        tanh_c = np.tanh(cell)
        do_fac = o * (1.0 - o) * tanh_c
        dc_fac = o * (1.0 - tanh_c * tanh_c)
        ifg = np.empty((t_max, b, 3, n))
        ifg[:, :, 0] = g * i * (1.0 - i)
        ifg[:, :, 1] = c_in * f * (1.0 - f)
        ifg[:, :, 2] = i * (1.0 - g * g)
        d_out = np.multiply(grad.transpose(1, 0, 2), mask, out=np.empty((t_max, b, n)))
        dz = np.empty((t_max, b, 4 * n))
        dz4 = dz.reshape(t_max, b, 4, n)
        dh, dc = np.zeros((b, n)), np.zeros((b, n))
        for t in reversed(order):
            if t >= full:
                dh *= mask[t]
                dc *= mask[t]
            dh += d_out[t]
            da_o = np.multiply(dh, do_fac[t], out=dz4[t, :, 3])
            dc += dh * dc_fac[t]
            dc += da_o * w_co
            np.multiply(dc[:, None, :], ifg[t], out=dz4[t, :, :3])
            dh = dz[t] @ params.w_h.data
            dc *= f[t]
        dz_flat = dz.reshape(t_max * b, 4 * n)
        d_wx = dz_flat.T @ x_tm
        d_wh = dz_flat.T @ h_in.reshape(t_max * b, n)
        d_bias = dz_flat.sum(axis=0)
        d_wco = (dz4[:, :, 3] * cell).sum(axis=(0, 1))
        d_x = (dz_flat @ w_x).reshape(t_max, b, p).transpose(1, 0, 2)
        return d_x, d_wx, d_wh, d_wco, d_bias

    return result, vjp


# Lengths and frame counts that exercise the live-row prefix: sorted and
# unsorted, a length-1 utterance, frames past every length (live 0).
LIVE_ROW_CASES = [
    ((6, 4, 4, 1), 6), ((1, 6, 3, 4), 6), ((3, 1), 5), ((1,), 3),
    ((2, 5, 1, 5), 7), ((4, 4), 4), ((1, 1, 1), 1),
]


class TestLiveRows:
    """``run_direction`` runs padded frames on the live rows alone and must
    give the fully masked loops' numbers bit for bit."""

    @pytest.mark.parametrize("lengths,t_max", LIVE_ROW_CASES)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_taped_outputs_and_vjp(self, lengths, t_max, reverse):
        rng = np.random.default_rng(sum(lengths) + 10 * t_max + reverse)
        n, p = 3, 4
        batch = SequenceBatch(Tensor(rng.normal(size=(len(lengths), t_max, p))), lengths)
        params = random_params(n, p, int(rng.integers(1000)))
        params.w_co = Tensor(rng.normal(size=n))
        with recording(GradTape()):
            out, vjp = run_direction(batch, params, reverse)
        ref, ref_vjp = masked_run_direction(batch, params, reverse)
        assert np.array_equal(out, ref)
        assert np.all(out[~batch.frames.mask] == 0.0)
        grad = rng.normal(size=out.shape)
        names = ("x",) + LstmLayerParams.__slots__
        for name, got, want in zip(names, vjp(grad), ref_vjp(grad), strict=True):
            assert np.array_equal(got, want), f"d{name} differs"

    @pytest.mark.parametrize("lengths,t_max", LIVE_ROW_CASES)
    @pytest.mark.parametrize("r_x,r_p", [(1, 1), (1, 3), (3, 3), (3, 1)])
    def test_replica_outputs(self, lengths, t_max, r_x, r_p):
        rng = np.random.default_rng(7 * sum(lengths) + t_max + r_x + r_p)
        n, p, b = 2, 3, len(lengths)
        feats = Tensor(rng.normal(size=(r_x, b, t_max, p)))
        batch = SequenceBatch._wrap(feats, Frames(np.array(lengths), t_max))
        params = zero_params(n, p)
        for name in LstmLayerParams.__slots__:  # [R, *shape], as ``Model.replicas`` sets them
            setattr(params, name, Tensor(rng.normal(size=(r_p,) + getattr(params, name).shape)))
        for reverse in (False, True):
            out, none = run_direction(batch, params, reverse)
            ref, _ = masked_run_direction(batch, params, reverse)
            assert none is None and out.shape == (max(r_x, r_p), b, t_max, n)
            assert np.array_equal(out, ref)
