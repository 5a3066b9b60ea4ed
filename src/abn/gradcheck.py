"""Whole-model gradient verification against finite differences."""

from __future__ import annotations

import numpy as np

from .ctc import CtcTargets, LabelSequence, sequence_ctc_loss
from .data import SequenceBatch
from .errors import ContractError
from .recurrent import Model, ModelConfig, module_of, project, run_layers
from .tensor import Tensor
from .train import loss_and_gradients

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


def central_points(theta: np.ndarray, h: float) -> np.ndarray:
    """The 2N points of a central-difference sweep over the N values of
    ``theta``, stacked ``[2N, *theta.shape]``.

    Point ``2i`` raises coordinate ``i`` (row-major) by ``h`` and point
    ``2i + 1`` lowers it by ``h``. Each point is built from the unperturbed
    ``theta``, so it is exactly ``x + h`` or ``x - h`` in its coordinate and
    ``theta`` everywhere else.
    """
    flat = theta.ravel()
    k = np.arange(2 * flat.size)
    coord = k // 2
    points = np.repeat(flat[None], k.size, axis=0)
    points[k, coord] = flat[coord] + np.where(k % 2 == 0, h, -h)
    return points.reshape((k.size,) + theta.shape)


def central_errors(losses: np.ndarray, analytic: np.ndarray, h: float) -> np.ndarray:
    """The relative error of each coordinate of ``analytic`` against the
    central difference of ``losses``, the loss at each of ``central_points``:
    ``|analytic - numeric| / (|analytic| + 1e-8)``. An error that is not a
    number reads ``inf``, so that a NaN fails every tolerance and every
    ``max`` over errors.
    """
    numeric = (losses[0::2] - losses[1::2]) / (2.0 * h)
    analytic = analytic.ravel()
    err = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)
    return np.where(np.isnan(err), np.inf, err)


def resume(
    model: Model, inputs: list[SequenceBatch], module: str, points: np.ndarray
) -> SequenceBatch:
    """Train-mode logits of R models at once, ``[R, B, T, V]``, run untaped
    from the cached input of the layer that reads ``module``.

    Row r of ``points``, ``[R, N]``, holds model r's values of the N
    parameters of ``module`` (``module_of``), flattened in registry order
    (``Model.replicas``). The cached input enters as one replica,
    ``[1, B, T, p]``, and broadcasts against R at the first stage that
    reads the module. Each replica's logits are bit for bit those of
    ``stack_forward`` with its values set.
    """
    with model.replicas(module, points) as layer:
        x = inputs[layer]
        single = SequenceBatch._wrap(Tensor._wrap(x.features.data[None]), x.frames)
        return project(run_layers(single, model, layer, "train"), model)


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
    numeric side runs untaped, one pass per module (``module_of``), in
    registry order. A pass's rows are the module's N flat values, unperturbed
    as row 0 and then its 2N ``central_points``; ``resume`` runs them as R =
    2N + 1 models on a leading replica axis from the cached input of the
    layer that reads the module, the projection counting as the layer after
    the last. Stages that read no swept parameter run once and broadcast.
    Row 0's logits must equal the taped pass's bit for bit, so every pass
    that gives a numeric gradient is guarded by its own unperturbed row, and
    CTC must return one mean loss per row; either failure raises, naming the
    module. ``central_errors`` compares the differences of rows 1 on with
    the module's analytic gradients. No layer below reads a layer's
    parameters, train-mode statistics are per batch, and each replica's
    products run as their own 2-d products, so each loss is bitwise the one
    ``stack_forward`` gives at that point. At the default shape every length
    runs 7 passes.

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
        params = model.parameters()
        for module in dict.fromkeys(map(module_of, params)):
            names = [name for name in params if module_of(name) == module]
            base = np.concatenate([params[name].data.ravel() for name in names])
            points = np.concatenate([base[None], central_points(base, STEP)])
            resumed = resume(model, inputs, module, points)
            if not np.array_equal(resumed.features.data[0], logits.features.data):
                raise ContractError(f"module {module}: the unperturbed row disagrees"
                                    " with the taped pass")
            losses = sequence_ctc_loss(resumed, targets).data
            if losses.shape != (len(points),):
                raise ContractError(f"module {module}: {losses.shape} losses for"
                                    f" {len(points)} rows")
            grads = np.concatenate([analytic[name].ravel() for name in names])
            worst = max(worst, central_errors(losses[1:], grads, STEP).max())
    return float(worst)
