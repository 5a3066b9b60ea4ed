"""Command-line front end: train, eval, decode, and verification tools."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .config import load_config
from .ctc import CtcTargets, LabelSequence, ctc_brute_force, greedy_decode, sequence_ctc_loss
from .data import SequenceBatch
from .errors import AbnError, CheckpointError
from .generators import VARIANTS
from .gradcheck import model_gradient_check
from .recurrent import Model, stack_forward
from .tensor import Tensor
from .train import DEV_SEED, evaluate, run_training, split_batches

GRADCHECK_TOLERANCE = 1e-4
ORACLE_TOLERANCE = 1e-9


def _int_at_least(least: int):
    """An integer option bounded below: a count of 0 or less would check or
    print nothing and still report success, and numpy refuses a negative seed."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


_at_least_one, _non_negative = _int_at_least(1), _int_at_least(0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abn",
        description="Attention-generated batch normalization in a BiLSTM-CTC kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The config checks the seed, so a negative one is refused by name.
    seed_override = {"type": int, "default": None, "help": "override the config seed"}
    train = sub.add_parser("train", help="train a model on the synthetic task")
    train.add_argument("--config", required=True, help="path to key=value config")
    train.add_argument("--variant", choices=VARIANTS, default="bn")
    train.add_argument("--seed", **seed_override)
    train.add_argument("--out-dir", required=True, help="metrics and checkpoint directory")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on the dev split")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--config", required=True)
    ev.add_argument("--seed", **seed_override)

    dec = sub.add_parser("decode", help="greedy-decode synthetic utterances")
    dec.add_argument("--ckpt", required=True)
    dec.add_argument("--config", default=None, help="task config (default: the checkpoint's task)")
    dec.add_argument("--count", type=_at_least_one, default=5)
    dec.add_argument("--seed", type=_non_negative, default=3,
                     help="seed of the drawn utterances, not of the task (see --config)")

    gc = sub.add_parser("gradcheck", help="finite-difference check of the full stack")
    gc.add_argument("--variant", choices=VARIANTS, default=None,
                    help="single variant (default: all three)")
    gc.add_argument("--seed", type=_non_negative, default=0)

    oracle = sub.add_parser("ctc-oracle", help="CTC loss vs exhaustive enumeration")
    oracle.add_argument("--max-t", type=_at_least_one, default=6)

    pc = sub.add_parser("param-count", help="per-module parameter counts")
    pc.add_argument("--config", required=True)
    pc.add_argument("--variant", choices=VARIANTS, default="bn")
    return parser


def _config_with_seed(args):
    """The config at ``--config``, its seed replaced by ``--seed`` if given."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_train(args) -> int:
    cfg = _config_with_seed(args)
    summary = run_training(cfg, args.variant, args.out_dir)
    print(
        f"variant={summary['variant']} epochs={summary['epochs_run']}"
        f" final_dev_loss={summary['final_dev_loss']:.6f}"
        f" final_dev_ter={summary['final_dev_ter']:.4f}"
    )
    return 0


def _load_for_task(ckpt: str, cfg) -> Model:
    """Load a checkpoint trained on the task of ``cfg``: the same seed,
    feature and vocabulary sizes. Other task keys may differ, so that a
    model can be scored on another task of the same seed."""
    model, trained = load_checkpoint(ckpt)
    if trained.seed != cfg.seed:
        raise CheckpointError(f"seed: the model was trained on the task of seed {trained.seed},"
                              f" but the config's seed is {cfg.seed}")
    if trained.features != cfg.features or trained.vocab != cfg.vocab:
        raise CheckpointError(
            f"checkpoint expects features={trained.features},"
            f" vocab={trained.vocab}; task has features={cfg.features},"
            f" vocab={cfg.vocab}"
        )
    return model


def _cmd_eval(args) -> int:
    cfg = _config_with_seed(args)
    model = _load_for_task(args.ckpt, cfg)
    loss, ter = evaluate(model, split_batches(cfg, cfg.dev_utterances, DEV_SEED))
    print(f"dev_loss={loss:.6f} dev_ter={ter:.4f}")
    return 0


def _cmd_decode(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        model = _load_for_task(args.ckpt, cfg)
    else:
        model, cfg = load_checkpoint(args.ckpt)
    for batch in split_batches(cfg, args.count, args.seed):
        tokens, lengths = greedy_decode(stack_forward(batch.features, model, "infer"))
        for ref, hyp, n in zip(batch.labels, tokens, lengths):
            print(f"ref={' '.join(map(str, ref.tokens))}"
                  f" hyp={' '.join(map(str, hyp[:n]))}")
    return 0


def _cmd_gradcheck(args) -> int:
    variants = (args.variant,) if args.variant else VARIANTS
    worst = 0.0
    for variant in variants:
        err = model_gradient_check(variant, seed=args.seed)
        print(f"{variant}: max relative error {err:.3e}")
        worst = np.maximum(worst, err)  # a NaN propagates and fails
    print(f"max relative error {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if worst < GRADCHECK_TOLERANCE else 1


def _all_labels(vocab: int, max_len: int):
    for length in range(max_len + 1):
        yield from (
            LabelSequence(list(c))
            for c in itertools.product(range(1, vocab), repeat=length)
        )


def _cmd_ctc_oracle(args) -> int:
    worst = 0.0
    cases = 0
    for vocab in (2, 3):
        rng = np.random.default_rng(1000 + vocab)
        for t_frames in range(1, args.max_t + 1):
            for labels in _all_labels(vocab, 3):
                logits = rng.normal(size=(t_frames, vocab))
                y_log = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                expect = ctc_brute_force(y_log, labels)
                one = SequenceBatch(Tensor(logits[None]), [t_frames])
                got = sequence_ctc_loss(one, CtcTargets([labels])).item()
                cases += 1
                if np.isinf(expect) or np.isinf(got):
                    if expect != got:
                        print(f"FAIL: T={t_frames} labels={labels.tokens}:"
                              f" {got} vs {expect}")
                        return 1
                    continue
                worst = np.maximum(worst, abs(got - expect))  # a NaN propagates and fails
    ok = worst <= ORACLE_TOLERANCE
    print(f"{'PASS' if ok else 'FAIL'}: {cases} cases,"
          f" max abs deviation {worst:.3e} (tolerance {ORACLE_TOLERANCE:.0e})")
    return 0 if ok else 1


def _cmd_param_count(args) -> int:
    cfg = load_config(args.config)
    model = Model(cfg.model_config(args.variant), np.random.default_rng(0))
    counts = model.parameter_count()
    total = counts.pop("total")
    for module, count in counts.items():
        print(f"{module:<16} {count}")
    print(f"{'total':<16} {total}")
    return 0


def cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "decode": _cmd_decode,
        "gradcheck": _cmd_gradcheck,
        "ctc-oracle": _cmd_ctc_oracle,
        "param-count": _cmd_param_count,
    }
    try:
        return handlers[args.command](args)
    except (AbnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
