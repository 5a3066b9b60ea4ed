"""The module-granular model gradient check: cached layer inputs, one
replica pass per module guarded by its unperturbed row, the one-pass
analytic gradient and injected faults."""

import numpy as np
import pytest

from abn import ctc, errors, gradcheck, recurrent, tensor, train
from abn.cli import cli
from abn.ctc import CtcTargets, LabelSequence, sequence_ctc_loss
from abn.data import SequenceBatch
from abn.generators import VARIANTS
from abn.gradcheck import central_points, model_gradient_check
from abn.recurrent import Model, ModelConfig, module_of, stack_forward
from abn.tensor import Tensor

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
    targets = CtcTargets([LabelSequence([1, 2]), LabelSequence([2]), LabelSequence([])])
    _, _, inputs, _ = train.loss_and_gradients(model, batch, targets)
    return model, batch, targets, inputs


def _modules(model, prefix=""):
    """The modules whose names start with ``prefix`` (``layer0.``, say), in
    registry order."""
    return [m for m in dict.fromkeys(map(module_of, model.parameters())) if m.startswith(prefix)]


def _flat(model, modules):
    """The values of the parameters of ``modules``, flattened in registry order."""
    return np.concatenate([t.data.ravel() for name, t in model.parameters().items()
                           if module_of(name) in modules])


def _set_row(model, names, row):
    """Set the parameters ``names`` to the consecutive slices of ``row``."""
    offset = 0
    for name in names:
        t = model.parameters()[name]
        model.set_parameter(name, Tensor(row[offset : offset + t.size].reshape(t.shape)))
        offset += t.size


STACKS = pytest.mark.parametrize(
    "variants", ["bn", "abn-f", "abn-u", ["abn-u", "bn", "abn-f"]],
    ids=["bn", "abn-f", "abn-u", "mixed"],
)


class TestLayers:
    @STACKS
    def test_resume_matches_full_stack_bitwise(self, variants):
        # Three random rows per module, points that no central-difference
        # sweep visits.
        model, batch, _, inputs = _problem(variants, seed=61)
        rng = np.random.default_rng(62)
        params = model.parameters()
        for module in _modules(model):
            names = [name for name in params if module_of(name) == module]
            base = _flat(model, [module])
            points = base + rng.normal(scale=0.1, size=(3, base.size))
            resumed = gradcheck.resume(model, inputs, module, points)
            assert resumed.features.shape[0] == 3, module
            for row, logits in zip(points, resumed.features.data):
                _set_row(model, names, row)
                full = stack_forward(batch, model, "train")
                assert np.array_equal(logits, full.features.data), module
            _set_row(model, names, base)

    def test_replicas_yield_the_reading_layer(self):
        model = _problem(["abn-f", "bn"], seed=63)[0]
        layers = []
        for module in _modules(model):
            with model.replicas(module, _flat(model, [module])[None]) as layer:
                layers.append(layer)
        assert _modules(model) == ["layer0.gen", "layer0.fwd", "layer0.bwd",
                                   "layer1.bn", "layer1.fwd", "layer1.bwd", "out"]
        assert layers == [0, 0, 0, 1, 1, 1, 2]

    def test_unknown_name_or_layer_raises(self):
        # An unknown module, and layer 0's bn under abn-f, which holds only
        # running statistics.
        model, _, _, inputs = _problem("abn-f", seed=64)
        params, stats = model.parameters(), model.running_stats()
        points = _flat(model, ["layer0.fwd"])[None]
        for module in ("layer9.fwd", "layer0.bn"):
            with pytest.raises(errors.ContractError, match=f"no parameters in module '{module}'"):
                gradcheck.resume(model, inputs, module, points)
        assert all(t is params[k] for k, t in model.parameters().items())
        assert all(t is stats[k] for k, t in model.running_stats().items())

    def test_disagreeing_resume_raises(self, monkeypatch):
        # Each layer after the first resumes from the next one's input, whose
        # width matches at the check's shape, so only the guard can tell.
        original = gradcheck.loss_and_gradients

        def shifted(*args):
            loss, logits, inputs, analytic = original(*args)
            return loss, logits, inputs[:1] + inputs[2:] + inputs[-1:], analytic

        monkeypatch.setattr(gradcheck, "loss_and_gradients", shifted)
        with pytest.raises(errors.ContractError, match="module layer1.bn: the unperturbed row"):
            model_gradient_check("bn", t_values=(2,))


class TestReplicaPass:
    @STACKS
    def test_losses_match_stack_forward_bitwise(self, variants):
        # Each layer-0 module's pass as the check sends it: the unperturbed
        # row, then the 2N central-difference points.
        model, batch, targets, inputs = _problem(variants, seed=65)
        params = model.parameters()
        for module in _modules(model, "layer0."):
            names = [name for name in params if module_of(name) == module]
            flat = _flat(model, [module])
            points = np.concatenate([flat[None], central_points(flat, 1e-4)])
            resumed = gradcheck.resume(model, inputs, module, points)
            losses = gradcheck.sequence_ctc_loss(resumed, targets).data
            expected = []
            for point in points:
                _set_row(model, names, point)
                logits = stack_forward(batch, model, "train")
                expected.append(sequence_ctc_loss(logits, targets).item())
            _set_row(model, names, flat)
            assert np.array_equal(losses, expected), module

    @pytest.mark.parametrize("t_max", [1, 2, 5, 7])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unperturbed_replicas_match_taped_logits(self, variant, t_max):
        model, batch, targets = gradcheck.check_problem(variant, 0, t_max)
        _, taped, inputs, _ = train.loss_and_gradients(model, batch, targets)
        stats, params = model.running_stats(), model.parameters()
        for module in _modules(model):
            same = np.tile(_flat(model, [module]), (3, 1))
            logits = gradcheck.resume(model, inputs, module, same)
            assert logits.features.shape == (3,) + taped.features.shape, module
            for replica in logits.features.data:
                assert np.array_equal(replica, taped.features.data), module
        assert all(t is params[k] for k, t in model.parameters().items())
        # The replica passes leave every running statistic as the taped pass set it.
        assert all(t is stats[k] for k, t in model.running_stats().items())

    @pytest.mark.parametrize("variant", ["bn", "abn-u"])
    def test_unswept_modules_run_once(self, monkeypatch, variant):
        # Each pass over a layer-0 module normalizes twice and runs four
        # directions; only what reads the swept module carries its R rows.
        model, _, targets, inputs = _problem(variant, seed=68)
        calls = []
        run_direction, abn_forward = recurrent.run_direction, recurrent.abn_forward

        def direction_spy(batch, params, reverse):
            out, vjp = run_direction(batch, params, reverse)
            calls.append(("bwd" if reverse else "fwd", batch.features.shape[0], out.shape[0]))
            return out, vjp

        def norm_spy(batch, *args):
            out = abn_forward(batch, *args)
            calls.append(("norm", batch.features.shape[0], out.features.shape[0]))
            return out

        monkeypatch.setattr(recurrent, "run_direction", direction_spy)
        monkeypatch.setattr(recurrent, "abn_forward", norm_spy)
        counts = model.parameter_count()
        group = "bn" if variant == "bn" else "gen"
        for swept in (group, "fwd", "bwd"):
            flat = _flat(model, [f"layer0.{swept}"])
            points = np.concatenate([flat[None], central_points(flat, 1e-4)])
            calls.clear()
            resumed = gradcheck.resume(model, inputs, f"layer0.{swept}", points)
            assert gradcheck.sequence_ctc_loss(resumed, targets).shape == (len(points),)
            r = 2 * counts[f"layer0.{swept}"] + 1
            assert calls == [
                ("norm", 1, r if swept == group else 1),
                ("fwd", r if swept == group else 1, r if swept in (group, "fwd") else 1),
                ("bwd", r if swept == group else 1, r if swept in (group, "bwd") else 1),
                ("norm", r, r), ("fwd", r, r), ("bwd", r, r),
            ], swept

    def test_misplaced_replicas_raise(self):
        # Points that are not [R, N].
        model, _, _, inputs = _problem("bn", seed=67)
        before = model.parameters()
        flat = _flat(model, ["layer1.fwd"])
        for points in (flat, np.tile(flat, (2, 2)), flat[None, :-1]):
            with pytest.raises(errors.ShapeError, match=rf"must be \[R, {flat.size}\]"):
                gradcheck.resume(model, inputs, "layer1.fwd", points)
        assert all(t is before[k] for k, t in model.parameters().items())


class TestPassStructure:
    def test_one_pass_per_module(self, monkeypatch):
        # At the default shape: 7 passes a length, one per module in registry
        # order, each of 2N + 1 rows whose first is the module's own values.
        passes = []
        original = gradcheck.resume

        def spy(model, inputs, module, points):
            n = model.parameter_count()[module]
            passes.append(module)
            assert points.shape == (2 * n + 1, n), module
            assert np.array_equal(points[0], _flat(model, [module])), module
            return original(model, inputs, module, points)

        monkeypatch.setattr(gradcheck, "resume", spy)
        model_gradient_check("bn", t_values=(2, 5))
        modules = _modules(gradcheck.check_problem("bn", 0, 2)[0])
        assert len(modules) == 7
        assert passes == modules + modules

    def test_perturbed_row_zero_raises(self, monkeypatch):
        original = gradcheck.resume

        def moved(model, inputs, module, points):
            if module == "layer1.bwd":
                points = points.copy()
                points[0, 0] += 1e-3
            return original(model, inputs, module, points)

        monkeypatch.setattr(gradcheck, "resume", moved)
        with pytest.raises(errors.ContractError, match="module layer1.bwd: the unperturbed row"):
            model_gradient_check("bn", t_values=(2,))

    def test_backward_is_looked_up_on_its_module(self, monkeypatch):
        # One backward a length, called as ``abn.tensor.backward`` so that
        # a wrapper set there (the benchmark's trace) sees it.
        calls = []
        original = tensor.backward

        def counting(tape, loss):
            calls.append(loss)
            return original(tape, loss)

        monkeypatch.setattr(tensor, "backward", counting)
        model_gradient_check("bn", t_values=(1, 2))
        assert len(calls) == 2


class TestOnePassAnalytic:
    @staticmethod
    def _matches_taped_stack_forward(model, batch, targets, seed=None):
        """``loss_and_gradients`` against one taped ``stack_forward``, each
        drawing dropout from its own RNG at ``seed``: the same loss, logits,
        gradients and RNG state afterwards. Returns the layer inputs."""
        ours, theirs = (None, None) if seed is None else (
            np.random.default_rng(seed), np.random.default_rng(seed))
        loss, logits, inputs, analytic = train.loss_and_gradients(model, batch, targets, ours)
        tape = tensor.GradTape()
        with tensor.recording(tape):
            full = stack_forward(batch, model, "train", rng=theirs)
            full_loss = sequence_ctc_loss(full, targets)
        grads = tensor.backward(tape, full_loss)
        assert loss.item() == full_loss.item()
        np.testing.assert_array_equal(logits.features.data, full.features.data)
        assert analytic.keys() == model.parameters().keys()
        for name, t in model.parameters().items():
            assert np.array_equal(analytic[name], grads.wrt(t)), name
        if seed is not None:
            assert ours.bit_generator.state == theirs.bit_generator.state
        return inputs

    @pytest.mark.parametrize("t_max", [1, 2, 7])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_taped_stack_forward(self, variant, t_max):
        model, batch, targets = gradcheck.check_problem(variant, 0, t_max)
        inputs = self._matches_taped_stack_forward(model, batch, targets)
        assert len(inputs) == len(model.layers) + 1 and inputs[0] is batch

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dropout_draws_as_stack_forward(self, variant):
        # Training passes its dropout RNG: layer by layer, the pass draws the
        # same masks in the same order as one ``stack_forward`` call.
        rng = np.random.default_rng(69)
        model = Model(ModelConfig(2, HIDDEN, FEATURES, 3, variant, dropout=0.3,
                                  embed_dim=2, attn_dim=2), rng)
        batch = SequenceBatch(Tensor(rng.normal(size=(3, 5, FEATURES))), [5, 3, 2])
        targets = CtcTargets([LabelSequence([1, 2]), LabelSequence([2]), LabelSequence([1])])
        self._matches_taped_stack_forward(model, batch, targets, seed=70)


def _scaled_vjp(vjp, index, factor=1.01):
    """``vjp`` with gradient ``index`` returned times ``factor`` (by default
    1% too large)."""

    def wrong(g):
        parts = list(vjp(g))
        parts[index] = parts[index] * factor
        return tuple(parts)

    return wrong


def _scaled(record, index):
    """A ``record_op`` whose recorded VJPs return gradient ``index`` 1% too large."""
    return lambda output, inputs, vjp: record(output, inputs, _scaled_vjp(vjp, index))


def _fault_in_direction(monkeypatch, input_dim, backward, index, factor=1.01):
    original = recurrent.run_direction

    def faulty(batch, params, reverse):
        out, vjp = original(batch, params, reverse)
        if reverse != backward or params.w_x.shape[-1] != input_dim or vjp is None:
            return out, vjp
        return out, _scaled_vjp(vjp, index, factor)

    monkeypatch.setattr(recurrent, "run_direction", faulty)


# Each fault is caught by the parameters whose gradient flows through it:
# those of its own layer and of every layer below. A NaN gradient must read
# as a failure, not vanish from the maximum over coordinates.
FAULTS = {
    "layer1-bwd-d_wh": lambda mp: _fault_in_direction(mp, 2 * HIDDEN, True, 2),
    "layer0-fwd-d_x": lambda mp: _fault_in_direction(mp, FEATURES, False, 0),
    "layer0-fwd-d_wco-nan": lambda mp: _fault_in_direction(mp, FEATURES, False, 3, np.nan),
    "ctc-grad": lambda mp: mp.setattr(ctc, "record_op", _scaled(ctc.record_op, 0)),
}


def _reads_next_replica(monkeypatch):
    original = Model.replicas
    monkeypatch.setattr(
        Model, "replicas",
        lambda self, module, points: original(self, module, np.roll(points, -1, axis=0)),
    )


def _replica_value_shared(monkeypatch):
    # Replica 0's value of a bias, peephole, gamma or beta serves every replica.
    original = tensor.per_replica
    monkeypatch.setattr(
        tensor, "per_replica",
        lambda param, own, rank: original(param[0] if param.ndim > own else param, own, rank),
    )


# Faults of the replica pass that a guard run on the unperturbed values
# alone would miss: reading another row's values, and one row's values
# serving every row.
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
        # The rolled rows put a perturbed point in row 0, which the guard
        # refuses. The shared value collapses the swept gamma and beta to
        # one replica, so the first pass returns one loss for its 25 rows.
        REPLICA_FAULTS[fault](monkeypatch)
        match = {"reads-next-replica": "module layer0.bn: the unperturbed row",
                 "shared-value": r"module layer0.bn: \(1,\) losses for 25 rows"}[fault]
        with pytest.raises(errors.ContractError, match=match):
            model_gradient_check("bn", t_values=(2,))


class TestNonFiniteTapedPass:
    """A NaN in the taped pass that training and the check share fails the
    check: a NaN loss gives no gradients, and a NaN gradient gives a NaN
    error; either reads ``inf`` and ``abn gradcheck`` exits 1."""

    @pytest.mark.parametrize("where", ["loss", "gradient"])
    def test_nan_reads_inf_and_fails_the_cli(self, monkeypatch, capsys, where):
        if where == "loss":
            monkeypatch.setattr(train, "sequence_ctc_loss",
                                lambda logits, targets: Tensor._wrap(np.array(np.nan)))
        else:
            record = ctc.record_op
            monkeypatch.setattr(ctc, "record_op", lambda output, inputs, vjp: record(
                output, inputs, _scaled_vjp(vjp, 0, np.nan)))
        model, batch, targets = gradcheck.check_problem("bn", 0, 2)
        loss, _, _, analytic = train.loss_and_gradients(model, batch, targets)
        if where == "loss":
            assert np.isnan(loss.item()) and analytic is None
        else:
            assert np.isfinite(loss.item()) and np.isnan(analytic["out.w"]).all()
        assert model_gradient_check("bn", t_values=(2,)) == float("inf")
        assert cli(["gradcheck", "--variant", "bn"]) == 1
        assert "bn: max relative error inf" in capsys.readouterr().out
