"""Whole-model gradient verification against finite differences."""

from __future__ import annotations

import numpy as np

from .ctc import LabelSequence, sequence_ctc_loss
from .data import SequenceBatch
from .errors import ContractError
from .recurrent import Model, ModelConfig, stack_forward
from .tensor import Tensor, finite_diff_check

DEFAULT_T_VALUES = (1, 2, 5, 7)


def _labels_for(length: int, vocab: int) -> LabelSequence:
    # Alternate tokens so no blank is forced between repeats; any sequence
    # up to `length` tokens then fits in `length` frames.
    n = max(1, length // 2)
    return LabelSequence([1 + (i % (vocab - 1)) for i in range(n)])


def model_gradient_check(
    variant: str,
    seed: int = 0,
    t_values=DEFAULT_T_VALUES,
    hidden: int = 4,
    features: int = 6,
    vocab: int = 3,
    h: float = 1e-4,
) -> float:
    """Max finite-difference error over every parameter of a small stack.

    The loss is the full pipeline: normalized BiLSTM layers, logits, CTC.
    Dropout stays off; its resampling would break the central differences.

    The step is wider than the single-op default because some parameters
    of a deep composite have gradients near the 1e-8 floor of the
    relative-error denominator, where central-difference roundoff (which
    grows as 1/h) dominates. h=1e-4 does NOT keep that noise a decade under
    tolerance. At seed 0 the worst bn coordinate is ``layer0.fwd.w_x[18]``
    at T=1, where batch norm sees only 2 frames: its analytic gradient is
    1.03e-8, below the floor, and its error is 9.8e-6, 8.1e-5 and 4.1e-4 at
    h = 1e-3, 1e-4 and 1e-5, so roundoff sets it. (At h=1e-3 it was 4.4e-6
    before the fused LSTM reordered a few sums, which is roundoff too.) A
    4-point stencil barely helps (9.9e-5 at h=1e-4), and h=1e-3 for the
    whole sweep raises the worst bn error to 3.7e-3 through truncation
    elsewhere. Other seeds fare worse at short lengths: at seed 3, T=1
    gives bn 1.5e-4 and abn-u 1.2e-3, and T=2 gives abn-u 1.5e-4; at
    seed 4, T=1 gives bn 8.9e-5. The defaults therefore pass with little
    margin, at seed 0 only. Whether the remedy belongs in the check's data
    (which lengths and seeds) or in its error measure (the denominator's
    floor) is not settled by the model's specification.
    """
    if vocab < 3:
        raise ContractError("vocabulary must fit a blank plus two tokens")
    worst = 0.0
    for t_max in t_values:
        rng = np.random.default_rng([seed, t_max])
        model = Model(
            ModelConfig(
                2, hidden, features, vocab, variant,
                dropout=0.0, embed_dim=2, attn_dim=2,
            ),
            rng,
        )
        lengths = [t_max, max(1, (t_max + 1) // 2)]
        feats = Tensor(rng.normal(size=(2, t_max, features)))
        batch = SequenceBatch(feats, lengths)
        labels = [_labels_for(l, vocab) for l in lengths]

        for name, base in model.parameters().items():
            def f(theta, name=name, base=base):
                model.set_parameter(name, theta)
                try:
                    logits = stack_forward(batch, model, "train")
                    return sequence_ctc_loss(logits, labels)
                finally:
                    model.set_parameter(name, base)

            err = finite_diff_check(f, base, h=h)
            worst = max(worst, err)
    return worst
