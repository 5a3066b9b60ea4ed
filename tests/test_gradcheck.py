"""The stage-cached model gradient check: exact resumes, replica passes, the
one-pass analytic gradient and injected faults."""

import numpy as np
import pytest

from abn import ctc, errors, gradcheck, recurrent, tensor
from abn.ctc import CtcTargets, LabelSequence, sequence_ctc_loss
from abn.data import SequenceBatch
from abn.generators import VARIANTS
from abn.gradcheck import StageCache, model_gradient_check
from abn.recurrent import Model, ModelConfig, Stage, stack_forward
from abn.tensor import Tensor, central_points

HIDDEN, FEATURES = 4, 6  # model_gradient_check's default shape


def _problem(variants, seed):
    rng = np.random.default_rng(seed)
    num_layers = 2 if isinstance(variants, str) else len(variants)
    model = Model(
        ModelConfig(num_layers, HIDDEN, FEATURES, 3, variants,
                    embed_dim=2, attn_dim=2),
        rng,
    )
    batch = SequenceBatch(Tensor(rng.normal(size=(3, 5, FEATURES))), [5, 3, 1])
    labels = [LabelSequence([1, 2]), LabelSequence([2]), LabelSequence([])]
    return model, batch, labels


STACKS = pytest.mark.parametrize(
    "variants", ["bn", "abn-f", "abn-u", ["abn-u", "bn", "abn-f"]],
    ids=["bn", "abn-f", "abn-u", "mixed"],
)


class TestResume:
    @STACKS
    def test_matches_full_stack_bitwise(self, variants):
        model, batch, labels = _problem(variants, seed=61)
        cache = StageCache(model, batch)
        rng = np.random.default_rng(62)
        for name, base in model.parameters().items():
            coord = rng.integers(base.size)
            bumped = base.data.copy()
            bumped.flat[coord] += 1e-4
            model.set_parameter(name, Tensor(bumped))
            try:
                stage = model.parameter_stage(name)
                resumed = sequence_ctc_loss(cache.resume(model, stage), labels)
                full = sequence_ctc_loss(stack_forward(batch, model, "train"), labels)
            finally:
                model.set_parameter(name, base)
            assert resumed.item() == full.item(), name

    def test_stage_of_every_name(self):
        model, _, _ = _problem(["abn-f", "abn-u", "bn"], seed=63)
        for name in model.parameters():
            head, module = name.split(".")[:2]
            if head == "out":
                expected = Stage(3, "out")
            else:
                l = int(head.removeprefix("layer"))
                expected = Stage(l, module if module in ("fwd", "bwd") else "norm")
            assert model.parameter_stage(name) == expected

    def test_unknown_name_or_stage_raises(self):
        model, batch, _ = _problem("bn", seed=64)
        with pytest.raises(errors.ContractError, match="layer9"):
            model.parameter_stage("layer9.fwd.w_x")
        with pytest.raises(errors.ContractError, match="stage"):
            StageCache(model, batch).resume(model, Stage(0, "gen"))

    def test_disagreeing_resume_raises(self, monkeypatch):
        # A cached walk that joins the halves the other way round differs
        # from the stack's own walk, which the resume at layer 0 runs.
        original = gradcheck.join_directions
        monkeypatch.setattr(gradcheck, "join_directions",
                            lambda fwd, bwd, *rest: original(bwd, fwd, *rest))
        with pytest.raises(errors.ContractError, match="disagrees"):
            model_gradient_check("bn", t_values=(2,))


class TestReplicaPass:
    @STACKS
    def test_losses_match_stack_forward_bitwise(self, variants):
        model, batch, labels = _problem(variants, seed=65)
        targets, h = CtcTargets(labels), 1e-4
        cache = StageCache(model, batch)
        for name, base in model.parameters().items():
            losses = gradcheck.replica_losses(cache, model, name, targets, h)
            expected = []
            for point in central_points(base.data, h):
                model.set_parameter(name, Tensor(point))
                logits = stack_forward(batch, model, "train")
                expected.append(sequence_ctc_loss(logits, targets).item())
            model.set_parameter(name, base)
            assert np.array_equal(losses, expected), name

    @pytest.mark.parametrize("t_max", [1, 2, 5, 7])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unperturbed_replicas_match_taped_logits(self, variant, t_max):
        model, batch, targets = gradcheck.check_problem(variant, 0, t_max)
        _, cache = gradcheck.analytic_gradients(model, batch, targets)
        stats = model.running_stats()
        for name, base in model.parameters().items():
            copies = Tensor(np.stack([base.data] * 3))
            logits = cache.resume(model, model.parameter_stage(name), (name, copies))
            assert logits.features.shape == (3,) + cache.logits.features.shape, name
            for replica in logits.features.data:
                assert np.array_equal(replica, cache.logits.features.data), name
            assert model.parameters()[name] is base
        # The replica passes leave every running statistic as the taped pass set it.
        assert all(t is stats[k] for k, t in model.running_stats().items())

    def test_chunks_change_no_loss(self, monkeypatch):
        model, batch, labels = _problem("abn-f", seed=66)
        targets, cache = CtcTargets(labels), StageCache(model, batch)
        whole = {name: gradcheck.replica_losses(cache, model, name, targets, 1e-4)
                 for name in model.parameters()}
        # 20 values a pass: w_co [4] takes chunks of 5 and 3 points, w_x one point a pass.
        monkeypatch.setattr(gradcheck, "REPLICA_VALUES", 20)
        for name, losses in whole.items():
            chunked = gradcheck.replica_losses(cache, model, name, targets, 1e-4)
            assert np.array_equal(chunked, losses), name

    def test_misplaced_replicas_raise(self):
        model, batch, _ = _problem("bn", seed=67)
        cache = StageCache(model, batch)
        w_x = model.parameters()["layer1.fwd.w_x"]
        with pytest.raises(errors.ContractError, match="does not enter"):
            cache.resume(model, Stage(0, "norm"), ("layer1.fwd.w_x", Tensor(w_x.data[None])))
        with pytest.raises(errors.ShapeError, match="replicas"):
            cache.resume(model, Stage(1, "fwd"), ("layer1.fwd.w_x", w_x))
        assert model.parameters()["layer1.fwd.w_x"] is w_x


class TestOnePassAnalytic:
    @pytest.mark.parametrize("t_max", [1, 2, 7])
    @pytest.mark.parametrize("variant", ["bn", "abn-f", "abn-u"])
    def test_matches_per_stage_taped_resume(self, variant, t_max):
        model, batch, targets = gradcheck.check_problem(variant, 0, t_max)
        analytic, cache = gradcheck.analytic_gradients(model, batch, targets)
        np.testing.assert_array_equal(cache.logits.features.data,
                                      stack_forward(batch, model, "train").features.data)
        assert analytic.keys() == model.parameters().keys()
        for name, t in model.parameters().items():
            tape = tensor.GradTape()
            with tensor.recording(tape):
                loss = sequence_ctc_loss(cache.resume(model, model.parameter_stage(name)), targets)
            assert np.array_equal(analytic[name], tensor.backward(tape, loss).wrt(t)), name


def _scaled(record, index):
    """A ``record_op`` whose recorded VJPs return gradient ``index`` 1% too large."""

    def faulty(output, inputs, vjp):
        def wrong(g):
            parts = list(vjp(g))
            parts[index] = parts[index] * 1.01
            return tuple(parts)

        record(output, inputs, wrong)

    return faulty


def _fault_in_direction(monkeypatch, input_dim, backward, index):
    # The check reruns directions both through the stack and directly.
    original = recurrent.run_direction

    def faulty(batch, params, reverse):
        if reverse != backward or params.input_dim != input_dim:
            return original(batch, params, reverse)
        with monkeypatch.context() as m:
            m.setattr(tensor, "record_op", _scaled(tensor.record_op, index))
            return original(batch, params, reverse)

    monkeypatch.setattr(recurrent, "run_direction", faulty)
    monkeypatch.setattr(gradcheck, "run_direction", faulty)


# Each fault is caught by other parameters: a layer-1 recurrent weight
# (only its resumed evaluation reaches it), the layer-0 normalizer or
# generator (their evaluations run the whole stack above), or all of them.
FAULTS = {
    "layer1-bwd-d_wh": lambda mp: _fault_in_direction(mp, 2 * HIDDEN, True, 2),
    "layer0-fwd-d_x": lambda mp: _fault_in_direction(mp, FEATURES, False, 0),
    "ctc-grad": lambda mp: mp.setattr(ctc, "record_op", _scaled(ctc.record_op, 0)),
}


def _reads_next_replica(monkeypatch):
    original = Model.replicas
    monkeypatch.setattr(
        Model, "replicas",
        lambda self, name, values: original(self, name, Tensor(np.roll(values.data, -1, axis=0))),
    )


def _replica_value_shared(monkeypatch):
    # Replica 0's value of a bias, peephole, gamma or beta serves every replica.
    original = tensor.per_replica
    monkeypatch.setattr(
        tensor, "per_replica",
        lambda param, own, rank: original(param[0] if param.ndim > own else param, own, rank),
    )


# Faults of the replica pass, which the unperturbed guard (one replica) misses.
REPLICA_FAULTS = {"reads-next-replica": _reads_next_replica, "shared-value": _replica_value_shared}


class TestInjectedFaults:
    @pytest.mark.parametrize("variant", ["bn", "abn-f"])
    def test_unfaulted_check_passes(self, variant):
        assert model_gradient_check(variant, t_values=(2,)) < 1e-4

    @pytest.mark.parametrize("variant", ["bn", "abn-f"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_fails_check(self, monkeypatch, fault, variant):
        FAULTS[fault](monkeypatch)
        assert model_gradient_check(variant, t_values=(2,)) > 1e-4

    @pytest.mark.parametrize("fault", sorted(REPLICA_FAULTS))
    def test_replica_fault_fails_check(self, monkeypatch, fault):
        REPLICA_FAULTS[fault](monkeypatch)
        assert model_gradient_check("bn", t_values=(2,)) > 1e-4
