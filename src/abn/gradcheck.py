"""Whole-model gradient verification against finite differences."""

from __future__ import annotations

import numpy as np

from .ctc import CtcTargets, LabelSequence, sequence_ctc_loss
from .data import SequenceBatch
from .errors import ContractError
from .recurrent import Model, ModelConfig, module_of, project, run_layers
from .tensor import Tensor, central_error, central_points
from .train import loss_and_gradients

# At most about this many parameter values per replica pass (R times the
# size of a module's parameters): a module splits its 2N points into equal
# chunks, so that the replicated parameters and the activations stay small.
REPLICA_VALUES = 1 << 17

DEFAULT_T_VALUES = (1, 2, 5, 7)
VOCAB = 3  # a blank and two tokens
STEP = 1e-4  # the central-difference step; see ``model_gradient_check``


def _labels_for(length: int) -> LabelSequence:
    # Alternate tokens so no blank is forced between repeats; any sequence
    # up to `length` tokens then fits in `length` frames.
    n = max(1, length // 2)
    return LabelSequence([1 + (i % (VOCAB - 1)) for i in range(n)])


def check_problem(
    variant: str, seed: int, t_max: int, hidden: int = 4, features: int = 6
) -> tuple[Model, SequenceBatch, CtcTargets]:
    """The model, batch and targets that the gradient check uses at one length."""
    rng = np.random.default_rng([seed, t_max])
    model = Model(
        ModelConfig(
            2, hidden, features, VOCAB, variant,
            dropout=0.0, embed_dim=2, attn_dim=2,
        ),
        rng,
    )
    lengths = [t_max, max(1, (t_max + 1) // 2)]
    batch = SequenceBatch(Tensor(rng.normal(size=(2, t_max, features))), lengths)
    return model, batch, CtcTargets([_labels_for(l) for l in lengths])


def resume(
    model: Model, inputs: list[SequenceBatch], modules, points: np.ndarray
) -> SequenceBatch:
    """Train-mode logits of R models at once, ``[R, B, T, V]``, run untaped
    from the cached input of the layer that reads ``modules``.

    Row r of ``points``, ``[R, N]``, holds model r's values of the N
    parameters of ``modules`` (``module_of``), flattened in registry order
    (``Model.replicas``). The cached input enters as one replica,
    ``[1, B, T, p]``, and broadcasts against R at the first stage that
    reads the modules. Each replica's logits are bit for bit those of
    ``stack_forward`` with its values set.
    """
    with model.replicas(modules, points) as layer:
        x = inputs[layer]
        single = SequenceBatch._wrap(Tensor._wrap(x.features.data[None]), x.frames)
        return project(run_layers(single, model, layer, "train"), model)


def layer_losses(
    model: Model, inputs: list[SequenceBatch], layer: int, targets: CtcTargets, h: float
) -> np.ndarray:
    """The loss at each of ``central_points`` over the parameters of
    ``layer``, flattened in registry order, swept module by module
    (``module_of``): each chunk of a module's points, about
    ``REPLICA_VALUES`` values, goes to ``resume`` as one ``[R, N]`` array.
    A pass that returns other than one loss per point raises."""
    params = model.parameters(layer)
    losses = []
    for module in dict.fromkeys(map(module_of, params)):
        base = np.concatenate([t.data.ravel() for name, t in params.items()
                               if module_of(name) == module])
        total = 2 * base.size
        chunks = -(-total * base.size // REPLICA_VALUES)
        step = -(-total // chunks)
        for start in range(0, total, step):
            points = central_points(base, h, start, min(start + step, total))
            losses.append(sequence_ctc_loss(resume(model, inputs, [module], points), targets).data)
            if losses[-1].shape != (len(points),):
                raise ContractError(f"layer {layer}, module {module}: {losses[-1].shape}"
                                    f" losses for {len(points)} points")
    return np.concatenate(losses)


def model_gradient_check(
    variant: str,
    seed: int = 0,
    t_values=DEFAULT_T_VALUES,
    hidden: int = 4,
    features: int = 6,
) -> float:
    """Max finite-difference error over every parameter of a small stack.

    The loss is the full pipeline: normalized BiLSTM layers, logits, CTC.
    Dropout stays off; its resampling would break the central differences.

    Per length, the taped pass that training runs, ``loss_and_gradients``,
    gives every parameter's analytic gradient, the gradients that Adam
    applies, and each layer's input; a non-finite loss returns ``inf``. The
    numeric side runs untaped, module by module (``layer_losses``): the 2N
    central-difference points (``central_points``) over the N parameters of
    a module (``module_of``) are the rows of ``[R, N]`` arrays, in equal
    passes, each of which ``resume`` runs as R models on a leading replica
    axis from the layer's cached input; the projection counts as the layer
    after the last. Stages that read no swept parameter run once and
    broadcast. CTC returns one mean loss per replica, and ``central_error``
    compares their differences with the layer's analytic gradients. No
    layer below reads a layer's parameters, train-mode statistics are per
    batch, and each replica's products run as their own 2-d products, so
    each loss is bitwise the one ``stack_forward`` gives at that point.
    Before each layer's sweep, one pass over all of the layer's modules,
    their unperturbed values as one row, is compared with the taped pass's
    logits, and any difference raises.
    At the default shape every length runs 3 such guards and 7 sweep
    passes, one a module, each checked for one loss per point.

    ``check_problem`` builds fresh models, whose ``w_gamma``, ``w_beta`` and
    ``w_co`` are zero. So ``w_embed``, ``b_embed``, ``w_key``, ``w_query`` and
    ``w_value`` get gradient exactly 0.0, analytic and numeric, and the
    peephole term adds nothing: this check cannot see faults there, and
    ``tests/test_generators.py`` and ``tests/test_recurrent.py`` catch them.

    The step h, ``STEP``, is wider than the single-op default because some
    parameters of a deep composite have gradients near the 1e-8 floor of the
    relative-error denominator, where central-difference roundoff (which
    grows as 1/h) dominates. h=1e-4 does NOT keep that noise a decade under
    tolerance. At seed 0 the worst bn coordinate is ``layer0.fwd.w_x[18]``
    at T=1, where batch norm sees only 2 frames: its analytic gradient is
    1.03e-8, below the floor, and its error is 9.8e-6, 8.1e-5 and 4.1e-4 at
    h = 1e-3, 1e-4 and 1e-5, so roundoff sets it. A 4-point stencil barely
    helps (9.9e-5 at h=1e-4), and h=1e-3 for the whole sweep raises the
    worst bn error to 3.7e-3 through truncation elsewhere. Strongly curved
    coordinates add truncation error at short lengths. The defaults pass at
    seed 0, with little margin, but not at most other seeds: at T in {1, 2}
    over seeds 0-20, 17 of the 63 variant-seed cases exceed 1e-4, at 12 of
    the 21 seeds, and the worst is abn-u at seed 3, 1.2e-3 (ROADMAP open
    item 4, a gradient oracle that passes at every seed).
    """
    worst = 0.0
    for t_max in t_values:
        model, batch, targets = check_problem(variant, seed, t_max, hidden, features)
        _, logits, inputs, analytic = loss_and_gradients(model, batch, targets)
        if analytic is None:
            return float("inf")  # a non-finite loss fails every tolerance
        for layer in range(len(inputs)):
            params = model.parameters(layer)
            same = np.concatenate([t.data.ravel() for t in params.values()])[None]
            resumed = resume(model, inputs, set(map(module_of, params)), same)
            if not np.array_equal(resumed.features.data[0], logits.features.data):
                raise ContractError(f"resuming at layer {layer} disagrees with the taped pass")
            losses = layer_losses(model, inputs, layer, targets, STEP)
            grads = np.concatenate([analytic[name].ravel() for name in params])
            worst = max(worst, central_error(losses, grads, STEP))
    return worst
