"""End-to-end training runs and the command-line entry points."""

import numpy as np
import pytest

from abn import cli as cli_mod
from abn import ctc, errors
from abn import train as train_mod
from abn.batching import Utterance, make_batches
from abn.ctc import LabelSequence
from abn.checkpoint import load_checkpoint
from abn.cli import cli
from abn.config import parse_config_text
from abn.generators import VARIANTS
from abn.synth import sorted_for_batching, synth_generate
from abn.tensor import Tensor
from abn.train import (
    METRICS_HEADER,
    TRAIN_SEED,
    TrainState,
    run_training,
    split_batches,
    train_epoch,
    train_step,
)

TINY_CFG = """\
num_layers = 1
hidden = 6
features = 4
vocab = 4
embed_dim = 3
attn_dim = 3
dropout = 0.0
max_frames_per_batch = 60
initial_lr = 0.002
epochs = 2
seed = 0
train_utterances = 12
dev_utterances = 6
task_max_tokens = 3
task_max_duration = 3
"""


def tiny_config_text(**overrides) -> str:
    pairs = dict(
        line.split(" = ") for line in TINY_CFG.splitlines()
    )
    pairs.update({k: str(v) for k, v in overrides.items()})
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def tiny_config(**overrides):
    return parse_config_text(tiny_config_text(**overrides))


def write_cfg(tmp_path, name="tiny.cfg"):
    path = tmp_path / name
    path.write_text(TINY_CFG)
    return str(path)


class TestRunTraining:
    def test_artifacts_and_summary(self, tmp_path):
        out = tmp_path / "run"
        summary = run_training(tiny_config(), "abn-f", str(out))
        assert (out / "metrics.csv").exists()
        assert (out / "model.ckpt").exists()
        assert summary["epochs_run"] == 2
        assert len(summary["dev_loss_history"]) == 2
        assert summary["final_dev_loss"] == summary["dev_loss_history"][-1]
        assert np.isfinite(summary["final_dev_loss"])
        model, trained = load_checkpoint(str(out / "model.ckpt"))
        assert model.config.variants == ["abn-f"]
        assert trained == tiny_config()

    def test_metrics_layout(self, tmp_path):
        run_training(tiny_config(), "bn", str(tmp_path))
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 2 * 2  # train and dev rows per epoch
        assert lines[1].startswith("1,train,")
        assert lines[2].startswith("1,dev,")
        # Deterministic mode is on for the test suite, so the clock reads zero.
        assert lines[1].endswith(",0.000")

    def test_same_seed_reproduces_metrics(self, tmp_path):
        cfg = tiny_config(epochs=3)
        run_training(cfg, "abn-u", str(tmp_path / "a"))
        run_training(cfg, "abn-u", str(tmp_path / "b"))
        a = (tmp_path / "a" / "metrics.csv").read_text()
        b = (tmp_path / "b" / "metrics.csv").read_text()
        assert a == b

    def test_different_seeds_diverge(self, tmp_path):
        import dataclasses

        cfg = tiny_config()
        run_training(cfg, "bn", str(tmp_path / "a"))
        run_training(dataclasses.replace(cfg, seed=1), "bn", str(tmp_path / "b"))
        a = (tmp_path / "a" / "metrics.csv").read_text()
        b = (tmp_path / "b" / "metrics.csv").read_text()
        assert a != b

    def test_flat_dev_loss_stops_early(self, tmp_path):
        # Demanding a 50% per-epoch improvement guarantees a stop at epoch 2.
        cfg = tiny_config(
            epochs=10, halve_threshold=0.6, stop_threshold=0.5, initial_lr=1e-06
        )
        summary = run_training(cfg, "bn", str(tmp_path))
        assert summary["stopped_early"]
        assert summary["epochs_run"] == 2


class TestTrainEpoch:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_first_epoch_matches_metrics_row(self, tmp_path, variant):
        # Dropout on, so the state's dropout stream is exercised as well.
        cfg = tiny_config(dropout=0.3, epochs=1)
        run_training(cfg, variant, str(tmp_path))
        row = (tmp_path / "metrics.csv").read_text().splitlines()[1].split(",")
        batches = split_batches(cfg, cfg.train_utterances, TRAIN_SEED)
        state = TrainState.start(cfg, variant)
        loss, ter = train_epoch(state, batches)
        assert row[:2] == ["1", "train"]
        # The row prints 17 significant digits, so it parses back bit for bit.
        assert (loss, ter) == (float(row[2]), float(row[3]))
        assert (state.skipped_batches, state.nonfinite_gradients, state.dev_history) == (0, 0, [])


def _nan_ctc_gradients(monkeypatch, first_n):
    """Make the CTC VJP return NaN for its first ``first_n`` calls; the loss stays finite."""
    calls = {"n": 0}
    record = ctc.record_op

    def faulty(output, inputs, vjp):
        def nan_vjp(g):
            calls["n"] += 1
            parts = vjp(g)
            if calls["n"] > first_n:
                return parts
            return tuple(np.full_like(p, np.nan) for p in parts)

        record(output, inputs, nan_vjp)

    monkeypatch.setattr(ctc, "record_op", faulty)


class TestNonFiniteGradients:
    def test_nan_gradient_skipped_and_counted(self, tmp_path, monkeypatch):
        _nan_ctc_gradients(monkeypatch, first_n=1)
        out = tmp_path / "run"
        summary = run_training(tiny_config(), "abn-f", str(out))
        assert summary["nonfinite_gradients"] == 1
        assert summary["skipped_batches"] == 1
        model, _ = load_checkpoint(str(out / "model.ckpt"))
        for name, t in model.parameters().items():
            assert np.all(np.isfinite(t.data)), name
        assert np.isfinite(summary["final_dev_loss"])

    def test_nonfinite_loss_skipped_without_a_step(self, monkeypatch):
        # The first step's loss is NaN: it is skipped and counted, but not as
        # a non-finite gradient, and leaves the weights and Adam as they were.
        # The epoch after it then steps Adam once for every batch.
        cfg = tiny_config()
        batches = split_batches(cfg, cfg.train_utterances, TRAIN_SEED)
        loss, calls = train_mod.sequence_ctc_loss, []

        def nan_first(logits, targets):
            calls.append(None)
            return Tensor._wrap(np.array(np.nan)) if len(calls) == 1 else loss(logits, targets)

        monkeypatch.setattr(train_mod, "sequence_ctc_loss", nan_first)
        state = TrainState.start(cfg, "abn-f")
        before = state.model.parameters()
        assert train_step(state, batches[0]) is None
        assert all(t is before[name] for name, t in state.model.parameters().items())
        assert (state.adam.t, state.skipped_batches) == (0, 1)
        assert np.isfinite(train_epoch(state, batches)).all()
        assert (state.skipped_batches, state.nonfinite_gradients) == (1, 0)
        assert state.adam.t == len(batches) >= 1

    def test_epoch_with_every_batch_skipped_raises(self, tmp_path, monkeypatch):
        _nan_ctc_gradients(monkeypatch, first_n=10**9)
        out = tmp_path / "run"
        with pytest.raises(errors.EmptyEpochError, match="epoch 1"):
            run_training(tiny_config(), "bn", str(out))
        assert not (out / "model.ckpt").exists()
        cfg = write_cfg(tmp_path)
        assert cli(["train", "--config", cfg, "--out-dir", str(tmp_path / "cli")]) == 1


class TestDegenerateBatches:
    def test_refused_before_epoch_one(self, tmp_path, monkeypatch):
        # The train split sorts into batches of lengths [5, 5] and [1]; the
        # last holds a single 1-frame utterance.
        rng = np.random.default_rng(0)
        corpus = [Utterance(rng.normal(size=(n, 4)), LabelSequence([1])) for n in (5, 5, 1)]
        generate = train_mod.synth_generate
        monkeypatch.setattr(train_mod, "synth_generate",
                            lambda task, n, seed: corpus if seed == 1 else generate(task, n, seed))
        with pytest.raises(errors.DegenerateBatchError,
                           match=r"train batch 1 has 1 utterance\(s\) and 1 valid frame"):
            run_training(tiny_config(max_frames_per_batch=10), "abn-f", str(tmp_path))
        assert not (tmp_path / "metrics.csv").exists()

    # Durations of 1-2 frames a token, with repeats allowed, draw utterances
    # with fewer frames than their labels need (a repeat needs a blank
    # between its copies). Their batch's loss would be inf in every epoch.
    INFEASIBLE = dict(task_min_duration=1, task_max_duration=2, task_max_tokens=4,
                      max_frames_per_batch=30, train_utterances=200, dev_utterances=200)

    def test_infeasible_utterance_refused_before_epoch_one(self, tmp_path):
        cfg = tiny_config(**self.INFEASIBLE)
        # The refusal names the split's first utterance that is too short.
        utts = synth_generate(cfg.task(), cfg.train_utterances, seed=TRAIN_SEED)
        batches = make_batches(sorted_for_batching(utts), cfg.max_frames_per_batch)
        i, u = next((i, int(u)) for i, b in enumerate(batches)
                    for u in np.flatnonzero(b.features.lengths < b.labels.min_frames))
        n_frames, targets = batches[i].features.lengths[u], batches[i].labels
        assert n_frames < targets.min_frames[u]
        tokens = ", ".join(map(str, targets[u].tokens))
        with pytest.raises(errors.DegenerateBatchError,
                           match=rf"^train batch {i}, utterance {u}: {n_frames} frame\(s\),"
                                 rf" but its labels \[{tokens}\] need at least"
                                 rf" {targets.min_frames[u]}$"):
            run_training(cfg, "bn", str(tmp_path))
        assert not (tmp_path / "metrics.csv").exists()

    def test_infeasible_dev_utterance_refused(self, tmp_path, monkeypatch):
        # A feasible train split; only the dev split holds short utterances.
        cfg = tiny_config(**self.INFEASIBLE)
        feasible = tiny_config().task()
        generate = train_mod.synth_generate
        monkeypatch.setattr(train_mod, "synth_generate", lambda task, n, seed: generate(
            feasible if seed == TRAIN_SEED else task, n, seed))
        with pytest.raises(errors.DegenerateBatchError, match=r"^dev batch \d+, utterance \d+"):
            run_training(cfg, "bn", str(tmp_path))

    def test_infeasible_utterance_fails_the_cli(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(tiny_config_text(**self.INFEASIBLE))
        assert cli(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("error: train batch ")

    def test_eval_and_decode_refuse_an_infeasible_split(self, tmp_path, capsys):
        # A model of the feasible task, scored on an infeasible task of its seed.
        out = tmp_path / "run"
        assert cli(["train", "--config", write_cfg(tmp_path), "--out-dir", str(out)]) == 0
        short = tmp_path / "short.cfg"
        short.write_text(tiny_config_text(**self.INFEASIBLE))
        ckpt = str(out / "model.ckpt")
        capsys.readouterr()
        assert cli(["eval", "--ckpt", ckpt, "--config", str(short)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: dev batch ") and captured.out == ""
        # At seed 3, decode's default, the first utterance drawn is too short.
        assert cli(["decode", "--ckpt", ckpt, "--config", str(short), "--count", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed 3 batch 0, utterance 0: ")
        assert captured.out == ""


class TestCli:
    def test_train_then_eval(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli(["train", "--config", cfg, "--variant", "bn",
                    "--out-dir", str(out)]) == 0
        assert "final_dev_loss=" in capsys.readouterr().out
        assert cli(["eval", "--ckpt", str(out / "model.ckpt"),
                    "--config", cfg]) == 0
        assert "dev_ter=" in capsys.readouterr().out

    def test_train_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path)
        cli(["train", "--config", cfg, "--seed", "7", "--out-dir",
             str(tmp_path / "a")])
        cli(["train", "--config", cfg, "--seed", "7", "--out-dir",
             str(tmp_path / "b")])
        cli(["train", "--config", cfg, "--out-dir", str(tmp_path / "c")])
        read = lambda d: (tmp_path / d / "metrics.csv").read_text()
        assert read("a") == read("b")
        assert read("a") != read("c")

    def test_eval_and_decode_refuse_another_seeds_task(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)  # seed = 0
        out = tmp_path / "run"
        assert cli(["train", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
        ckpt = str(out / "model.ckpt")
        capsys.readouterr()
        for command in (["eval"], ["decode", "--seed", "1"]):
            assert cli(command + ["--ckpt", ckpt, "--config", cfg]) == 1
            assert "seed" in capsys.readouterr().err
        matching = tmp_path / "seed1.cfg"
        matching.write_text(TINY_CFG.replace("seed = 0", "seed = 1"))
        for command in (["eval"], ["decode", "--seed", "5"]):
            assert cli(command + ["--ckpt", ckpt, "--config", str(matching)]) == 0
        assert "dev_ter=" in capsys.readouterr().out

    def test_eval_seed_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)  # seed = 0
        one_epoch = tmp_path / "one_epoch.cfg"
        one_epoch.write_text(TINY_CFG.replace("epochs = 2", "epochs = 1"))
        out = tmp_path / "run"
        assert cli(["train", "--config", str(one_epoch), "--seed", "1",
                    "--out-dir", str(out)]) == 0
        ckpt = str(out / "model.ckpt")
        capsys.readouterr()
        assert cli(["eval", "--ckpt", ckpt, "--config", cfg, "--seed", "1"]) == 0
        assert "dev_ter=" in capsys.readouterr().out
        assert cli(["eval", "--ckpt", ckpt, "--config", cfg]) == 1
        assert "task of seed 1" in capsys.readouterr().err

    def test_decode_without_config_takes_the_checkpoints_task(self, tmp_path, capsys):
        # Seed 1, 4 features, vocab 4 and three task keys: none of them
        # TrainConfig's defaults.
        cfg = tmp_path / "task.cfg"
        cfg.write_text(TINY_CFG.replace("seed = 0", "seed = 1").replace(
            "task_max_tokens = 3",
            "task_max_tokens = 2\ntask_distinct_neighbors = 1\ntask_offset_spread = 0.35"))
        out = tmp_path / "run"
        assert cli(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        ckpt = str(out / "model.ckpt")
        capsys.readouterr()
        assert cli(["decode", "--ckpt", ckpt, "--count", "8"]) == 0
        printed = capsys.readouterr().out
        refs = [line.split(" hyp=")[0].removeprefix("ref=").split()
                for line in printed.splitlines()]
        assert len(refs) == 8
        for ref in refs:  # two distinct tokens each, as the training task draws
            assert len(ref) == 2 and ref[0] != ref[1], ref
        assert cli(["decode", "--ckpt", ckpt, "--count", "8", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == printed

    def test_decode_prints_pairs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli(["train", "--config", cfg, "--variant", "abn-f", "--out-dir", str(out)])
        capsys.readouterr()
        rc = cli(["decode", "--ckpt", str(out / "model.ckpt"), "--config", cfg,
                  "--count", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert line.startswith("ref=")
            assert " hyp=" in line

    def test_decode_checkpoint_task_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli(["train", "--config", cfg, "--out-dir", str(out)])
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CFG.replace("features = 4", "features = 5"))
        capsys.readouterr()
        rc = cli(["decode", "--ckpt", str(out / "model.ckpt"),
                  "--config", str(other)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_checkpoint_task_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli(["train", "--config", cfg, "--out-dir", str(out)])
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CFG.replace("features = 4", "features = 5"))
        capsys.readouterr()
        rc = cli(["eval", "--ckpt", str(out / "model.ckpt"), "--config", str(other)])
        assert rc == 1
        assert "checkpoint expects features=4" in capsys.readouterr().err

    def test_gradcheck_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "model_gradient_check",
                            lambda variant, seed=0: 5e-5)
        assert cli(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "bn:" in out and "abn-f:" in out and "abn-u:" in out
        monkeypatch.setattr(cli_mod, "model_gradient_check",
                            lambda variant, seed=0: 5e-4)
        assert cli(["gradcheck", "--variant", "abn-u"]) == 1
        # A NaN would vanish from a max(); it must fail the run instead.
        monkeypatch.setattr(cli_mod, "model_gradient_check",
                            lambda variant, seed=0: np.nan if variant == "abn-f" else 5e-5)
        assert cli(["gradcheck"]) == 1

    def test_ctc_oracle_small_sweep(self, capsys):
        assert cli(["ctc-oracle", "--max-t", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_ctc_oracle_fails_on_a_nan_loss(self, monkeypatch, capsys):
        calls = []

        def nan_once(logits, targets):
            calls.append(None)
            if len(calls) == 5:
                return Tensor._wrap(np.array(np.nan))
            return ctc.sequence_ctc_loss(logits, targets)

        monkeypatch.setattr(cli_mod, "sequence_ctc_loss", nan_once)
        assert cli(["ctc-oracle", "--max-t", "2"]) == 1
        assert "PASS" not in capsys.readouterr().out

    def test_param_count(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert cli(["param-count", "--config", cfg, "--variant", "abn-u"]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert "layer0.gen" in out

    @pytest.mark.parametrize("argv", [
        ["ctc-oracle", "--max-t", "0"],
        ["ctc-oracle", "--max-t", "-3"],
        ["decode", "--ckpt", "absent.ckpt", "--count", "0"],
        ["decode", "--ckpt", "absent.ckpt", "--count", "-3"],
    ])
    def test_counts_below_one_are_usage_errors(self, argv, capsys):
        # Zero cases or utterances would check or print nothing and exit 0.
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["decode", "--ckpt", "absent.ckpt", "--seed", "-1"],
        ["gradcheck", "--seed", "-1"],
    ])
    def test_negative_seeds_are_usage_errors(self, argv, capsys):
        # numpy refuses a negative seed with a traceback.
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_negative_train_seed_is_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli(["train", "--config", write_cfg(tmp_path), "--seed", "-3",
                  "--out-dir", str(out)])
        assert rc == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_reports_error(self, tmp_path, capsys):
        rc = cli(["train", "--config", str(tmp_path / "absent.cfg"),
                  "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "noise.cfg"
        bad.write_bytes(np.random.default_rng(0).bytes(300))
        rc = cli(["train", "--config", str(bad), "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        assert f"error: {bad}: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_checkpoint_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "noise.ckpt"
        bad.write_bytes(b"abn-checkpoint v3\n\xff\xfe\n")
        rc = cli(["eval", "--ckpt", str(bad), "--config", write_cfg(tmp_path)])
        assert rc == 1
        assert f"error: {bad}: not UTF-8" in capsys.readouterr().err

    def test_bad_config_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("hidden = maybe\n")
        rc = cli(["eval", "--ckpt", "x.ckpt", "--config", str(bad)])
        assert rc == 1
        assert "hidden" in capsys.readouterr().err
