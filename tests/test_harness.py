"""Optimizer, schedule, batching, synthetic data, config, checkpoints."""

import dataclasses
import hashlib
import importlib
import os
import sys
import time

import numpy as np
import pytest

from abn import checkpoint, errors
from abn import tensor as tc
from abn.batching import Batch, Utterance, make_batches
from abn.checkpoint import load_checkpoint, save_checkpoint
from abn.cli import _load_for_task, cli
from abn.config import SCHEMA, TrainConfig, format_config, load_config, parse_config_text
from abn.ctc import LabelSequence
from abn.data import SequenceBatch
from abn.optim import AdamState, adam_step, lr_schedule
from abn.recurrent import Model, ModelConfig, stack_forward
from abn.synth import SyntheticTask, sorted_for_batching, synth_generate
from abn.tensor import Tensor
from abn.train import TRAIN_SEED, TrainState, split_batches, train_step


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": Tensor(np.zeros(3))}
        grads = {"w": np.ones(3)}
        state = AdamState(params)
        new = adam_step(params, grads, state, lr=1e-4)
        np.testing.assert_allclose(new["w"].data, -1e-4 * np.ones(3), rtol=1e-7)

    def test_zero_gradient_no_motion(self):
        params = {"w": Tensor([1.0, -2.0])}
        state = AdamState(params)
        for _ in range(5):
            params = adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_sign_antisymmetry_at_first_step(self):
        params = {"w": Tensor([0.5])}
        up = adam_step(params, {"w": np.array([1.0])}, AdamState(params), lr=0.01)
        down = adam_step(params, {"w": np.array([-1.0])}, AdamState(params), lr=0.01)
        assert up["w"].data[0] - 0.5 == pytest.approx(-(down["w"].data[0] - 0.5), abs=1e-15)

    def test_moments_accumulate(self):
        params = {"w": Tensor([0.0])}
        state = AdamState(params, beta1=0.9, beta2=0.999)
        adam_step(params, {"w": np.array([2.0])}, state, lr=0.1)
        assert state.t == 1
        np.testing.assert_allclose(state.m["w"], [0.2])
        np.testing.assert_allclose(state.v["w"], [0.004])

    def test_in_place_update_matches_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(44)
        shapes = {"w": (5, 3), "b": (5,)}
        params = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
        state = AdamState(params, beta1=0.9, beta2=0.999, eps=1e-8)
        ref_params = {name: t.data for name, t in params.items()}
        ref_m = {name: np.zeros(shape) for name, shape in shapes.items()}
        ref_v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            params = adam_step(params, grads, state, lr=0.01)
            for name, g in grads.items():
                ref_m[name] = 0.9 * ref_m[name] + (1.0 - 0.9) * g
                ref_v[name] = 0.999 * ref_v[name] + (1.0 - 0.999) * g * g
                m_hat = ref_m[name] / (1.0 - 0.9 ** t)
                v_hat = ref_v[name] / (1.0 - 0.999 ** t)
                ref_params[name] = ref_params[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for name in shapes:
            assert np.array_equal(params[name].data, ref_params[name])
            assert np.array_equal(state.m[name], ref_m[name])
            assert np.array_equal(state.v[name], ref_v[name])


class TestLrSchedule:
    def test_keep(self):
        assert lr_schedule([10.0, 9.9]) == "keep"

    def test_halve(self):
        assert lr_schedule([10.0, 9.97]) == "halve"

    def test_stop(self):
        assert lr_schedule([10.0, 9.999]) == "stop"

    def test_worsening_metric_stops(self):
        assert lr_schedule([10.0, 11.0]) == "stop"

    def test_uses_last_two_entries_only(self):
        assert lr_schedule([50.0, 3.0, 10.0, 9.9]) == "keep"

    def test_needs_history(self):
        with pytest.raises(errors.ContractError):
            lr_schedule([10.0])

    def test_nonpositive_metric_rejected(self):
        with pytest.raises(errors.ContractError):
            lr_schedule([0.0, 1.0])

    @pytest.mark.parametrize("history", [[np.inf, np.inf], [np.nan, 1.0], [1.0, np.nan]])
    def test_nonfinite_metric_rejected(self, history):
        # Every comparison with NaN is false, so [inf, inf] would read "keep".
        with pytest.raises(errors.ContractError, match="must be finite, got (inf|nan)"):
            lr_schedule(history)


def utts_of_lengths(lengths, dim=3):
    rng = np.random.default_rng(0)
    return [
        Utterance(rng.normal(size=(length, dim)), LabelSequence([1]))
        for length in lengths
    ]


class TestMakeBatches:
    def test_longest_pair_fits(self):
        batches = make_batches(utts_of_lengths([2500, 2400, 100]), 5000)
        assert [b.features.batch_size for b in batches] == [2, 1]
        assert batches[0].features.features.shape[-2] == 2500
        assert list(batches[0].features.lengths) == [2500, 2400]

    def test_exact_fit_single(self):
        batches = make_batches(utts_of_lengths([5000]), 5000)
        assert [b.features.batch_size for b in batches] == [1]

    def test_uniform_lengths(self):
        batches = make_batches(utts_of_lengths([1000] * 7), 5000)
        assert [b.features.batch_size for b in batches] == [5, 2]

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(1)
        lengths = sorted(rng.integers(1, 40, size=30).tolist(), reverse=True)
        batches = make_batches(utts_of_lengths(lengths), 100)
        for b in batches:
            assert b.features.batch_size * b.features.features.shape[-2] <= 100
        assert sum(b.features.batch_size for b in batches) == 30

    def test_order_preserved(self):
        lengths = [9, 7, 7, 5, 3]
        batches = make_batches(utts_of_lengths(lengths), 18)
        flat = [int(l) for b in batches for l in b.features.lengths]
        assert flat == lengths

    def test_oversized_utterance_rejected(self):
        with pytest.raises(errors.BatchingError, match="5001"):
            make_batches(utts_of_lengths([5001]), 5000)

    def test_unsorted_input_rejected(self):
        with pytest.raises(errors.BatchingError):
            make_batches(utts_of_lengths([5, 9]), 100)

    def test_padding_is_zero(self):
        batches = make_batches(utts_of_lengths([4, 2]), 8)
        feats = batches[0].features
        assert np.all(feats.features.data[1, 2:] == 0.0)


def _synth_digest(utterances) -> str:
    """sha256 over every utterance's shape, feature bytes and tokens, in order."""
    h = hashlib.sha256()
    for utt in utterances:
        h.update(np.asarray(utt.features.shape, dtype=np.int64).tobytes())
        h.update(utt.features.tobytes())
        h.update(np.asarray(utt.labels.tokens, dtype=np.int64).tobytes())
    return h.hexdigest()


def _loop_synth(task: SyntheticTask, n_utterances: int, seed: int) -> list[Utterance]:
    """The token-by-token render that ``synth_generate`` replaced: the
    bit-for-bit reference for its draws and its arithmetic."""
    templates = task.templates()
    out = []
    for i in range(n_utterances):
        rng = np.random.default_rng([task.seed, seed, i])
        n_tokens = int(rng.integers(task.min_tokens, task.max_tokens + 1))
        tokens = []
        for _ in range(n_tokens):
            tok = int(rng.integers(1, task.vocab))
            while task.distinct_neighbors and tokens and tok == tokens[-1]:
                tok = int(rng.integers(1, task.vocab))
            tokens.append(tok)
        gain = 1.0
        if task.gain_spread > 0:
            gain = float(np.exp(rng.uniform(-task.gain_spread, task.gain_spread)))
        offset = 0.0
        if task.offset_spread > 0:
            offset = task.offset_spread * rng.normal(size=task.feature_dim)
        frames = []
        for tok in tokens:
            duration = int(rng.integers(task.min_duration, task.max_duration + 1))
            block = gain * np.tile(templates[tok], (duration, 1)) + offset
            if task.noise > 0:
                block = block + task.noise * rng.normal(size=block.shape)
            frames.append(block)
        out.append(Utterance(np.concatenate(frames, axis=0), LabelSequence(tokens)))
    return out


# Recorded on the token-by-token render; any change to a draw or to the
# arithmetic of a feature changes them.
SYNTH_DIGESTS = {
    "desk-train": "e34e6afd48e4523f77c203732ec60943ced8ef9ee2eddd35d1c9c85b9d8d4dd8",
    "desk-dev": "507988d79bf7533d5c88b8059cc58b838911f599a5315b6c6fd2aa458a3f9df4",
    "infer-long": "395afa49c854e5fb771e039a0691250b4d812c8fc6a100893b329ea2932cb533",
    "gain-noiseless": "39629884bc6fc698a3ec98d50ea19bb9d57dc6e074ba0ccc455275c8380b1799",
}


def _pinned_synth_cases():
    desk = load_config("configs/desk.cfg")
    infer_long = dataclasses.replace(desk, task_min_tokens=15, task_max_tokens=20)
    gain = SyntheticTask(vocab=3, feature_dim=5, min_tokens=3, max_tokens=7, noise=0.0,
                         gain_spread=0.4, distinct_neighbors=True, seed=4)
    return {
        "desk-train": (desk.task(), 600, 1),
        "desk-dev": (desk.task(), 150, 2),
        "infer-long": (infer_long.task(), 60, 2),
        "gain-noiseless": (gain, 40, 3),
    }


class TestSynth:
    @pytest.mark.parametrize("case", sorted(SYNTH_DIGESTS))
    def test_bytes_pinned(self, case):
        task, n, seed = _pinned_synth_cases()[case]
        assert _synth_digest(synth_generate(task, n, seed)) == SYNTH_DIGESTS[case]

    @pytest.mark.parametrize("task", [
        SyntheticTask(vocab=4, feature_dim=3, seed=2),
        SyntheticTask(vocab=3, feature_dim=2, min_tokens=1, max_tokens=6, min_duration=1,
                      max_duration=5, noise=0.3, gain_spread=0.2, offset_spread=0.5,
                      distinct_neighbors=True, seed=7),
        SyntheticTask(vocab=6, feature_dim=1, noise=0.0, offset_spread=1.0, seed=1),
        SyntheticTask(vocab=5, feature_dim=4, noise=0.0, seed=3),
    ])
    def test_matches_token_by_token_render(self, task):
        assert _synth_digest(synth_generate(task, 30, 5)) == _synth_digest(_loop_synth(task, 30, 5))

    def test_prefix_stable(self):
        task = _pinned_synth_cases()["desk-train"][0]
        head, full = synth_generate(task, 5, 4), synth_generate(task, 10, 4)
        assert _synth_digest(head) == _synth_digest(full[:5])

    def test_noiseless_single_token(self):
        task = SyntheticTask(
            vocab=3, feature_dim=4, min_tokens=1, max_tokens=1,
            min_duration=3, max_duration=3, noise=0.0, seed=5,
        )
        (utt,) = synth_generate(task, 1, seed=9)
        assert utt.features.shape == (3, 4)
        templates = task.templates()
        for frame in utt.features:
            np.testing.assert_array_equal(frame, templates[utt.labels.tokens[0]])

    def test_deterministic(self):
        task = SyntheticTask(vocab=4, feature_dim=3, seed=2)
        a = synth_generate(task, 5, seed=1)
        b = synth_generate(task, 5, seed=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            assert x.labels.tokens == y.labels.tokens

    def test_different_seeds_differ(self):
        task = SyntheticTask(vocab=6, feature_dim=3, min_tokens=4, max_tokens=6, seed=2)
        a = synth_generate(task, 10, seed=1)
        b = synth_generate(task, 10, seed=2)
        assert any(x.labels.tokens != y.labels.tokens for x, y in zip(a, b))

    def test_durations_bound_frames(self):
        task = SyntheticTask(
            vocab=3, feature_dim=2, min_tokens=2, max_tokens=3,
            min_duration=2, max_duration=4, seed=0,
        )
        for utt in synth_generate(task, 20, seed=0):
            n_tok = len(utt.labels)
            assert 2 <= n_tok <= 3
            assert 2 * n_tok <= utt.features.shape[0] <= 4 * n_tok

    def test_labels_never_blank(self):
        task = SyntheticTask(vocab=5, feature_dim=2, seed=1)
        for utt in synth_generate(task, 30, seed=3):
            assert all(t != 0 for t in utt.labels.tokens)

    def test_sorted_for_batching(self):
        task = SyntheticTask(vocab=3, feature_dim=2, seed=4)
        utts = sorted_for_batching(synth_generate(task, 25, seed=1))
        lengths = [u.features.shape[0] for u in utts]
        assert lengths == sorted(lengths, reverse=True)

    def test_bad_ranges_rejected(self):
        with pytest.raises(errors.ContractError):
            SyntheticTask(vocab=1, feature_dim=2)
        with pytest.raises(errors.ContractError):
            SyntheticTask(vocab=3, feature_dim=2, min_duration=0)
        with pytest.raises(errors.ContractError):
            SyntheticTask(vocab=3, feature_dim=2, min_tokens=5, max_tokens=2)
        for dim in (0, -1):
            with pytest.raises(errors.ContractError, match="^feature_dim: "):
                SyntheticTask(vocab=3, feature_dim=dim)

    def test_gain_scales_whole_utterance(self):
        plain = SyntheticTask(vocab=3, feature_dim=4, min_tokens=1, max_tokens=1,
                              min_duration=2, max_duration=2, noise=0.0, seed=5)
        gained = SyntheticTask(vocab=3, feature_dim=4, min_tokens=1, max_tokens=1,
                               min_duration=2, max_duration=2, noise=0.0,
                               gain_spread=0.4, seed=5)
        for a, b in zip(synth_generate(plain, 6, seed=1), synth_generate(gained, 6, seed=1)):
            ratio = b.features / a.features
            np.testing.assert_allclose(ratio, ratio.flat[0])
            assert np.exp(-0.4) <= ratio.flat[0] <= np.exp(0.4)

    def test_offset_is_shared_within_utterance(self):
        task = SyntheticTask(vocab=4, feature_dim=3, min_tokens=1, max_tokens=1,
                             min_duration=3, max_duration=3, noise=0.0,
                             offset_spread=0.5, seed=7)
        templates = task.templates()
        for utt in synth_generate(task, 5, seed=2):
            shift = utt.features - templates[utt.labels.tokens[0]]
            # One offset vector repeated on every frame.
            np.testing.assert_allclose(shift, np.tile(shift[0], (3, 1)))

    def test_distinct_neighbors_blocks_repeats(self):
        task = SyntheticTask(vocab=3, feature_dim=2, min_tokens=6, max_tokens=8,
                             distinct_neighbors=True, seed=3)
        for utt in synth_generate(task, 40, seed=1):
            assert all(a != b for a, b in zip(utt.labels.tokens, utt.labels.tokens[1:]))

    def test_distinct_neighbors_needs_two_tokens(self):
        with pytest.raises(errors.ContractError):
            SyntheticTask(vocab=2, feature_dim=2, distinct_neighbors=True)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_frames_per_batch == 5000
        assert cfg.initial_lr == 0.0001
        assert cfg.halve_threshold == 0.004
        assert cfg.stop_threshold == 0.0005
        assert cfg.adam_beta1 == 0.9
        assert cfg.adam_beta2 == 0.999
        assert cfg.adam_eps == 1e-8

    def test_parse_overrides_and_comments(self):
        cfg = parse_config_text(
            """
            # tiny run
            hidden = 8
            initial_lr = 0.01   # aggressive
            epochs = 3
            """
        )
        assert cfg.hidden == 8
        assert cfg.initial_lr == 0.01
        assert cfg.epochs == 3
        assert cfg.vocab == 12  # untouched default

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(errors.ConfigError, match="hiden"):
            parse_config_text("hiden = 8")

    def test_duplicate_key_rejected(self):
        with pytest.raises(errors.ConfigError, match="duplicate"):
            parse_config_text("hidden = 8\nhidden = 9")

    def test_type_mismatch(self):
        with pytest.raises(errors.ConfigError, match="hidden"):
            parse_config_text("hidden = lots")

    def test_malformed_line(self):
        with pytest.raises(errors.ConfigError, match="key = value"):
            parse_config_text("hidden")

    def test_threshold_ordering_enforced(self):
        with pytest.raises(errors.ConfigError):
            parse_config_text("halve_threshold = 0.0001\nstop_threshold = 0.001")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("hidden = 0", "hidden"),
            ("features = 0", "features"),
            ("embed_dim = 0", "embed_dim"),
            ("attn_dim = 0", "attn_dim"),
            ("vocab = 1", "vocab"),
            ("task_distinct_neighbors = 2", "task_distinct_neighbors"),
            ("features = 8\nembed_dim = 8", "embed_dim"),
            ("hidden = 4\nembed_dim = 8", "embed_dim"),
            ("bn_eps = 0", "bn_eps"),
            ("bn_eps = nan", "bn_eps"),
            ("bn_momentum = 2", "bn_momentum"),
            ("bn_momentum = nan", "bn_momentum"),
            ("max_frames_per_batch = 0", "max_frames_per_batch"),
            ("initial_lr = nan", "initial_lr"),
            ("halve_threshold = nan", "halve_threshold"),
            ("stop_threshold = nan", "stop_threshold"),
            ("adam_beta1 = 1", "adam_beta1"),
            ("adam_beta1 = nan", "adam_beta1"),
            ("adam_beta2 = -0.5", "adam_beta2"),
            ("adam_eps = 0", "adam_eps"),
            ("adam_eps = nan", "adam_eps"),
            ("task_min_tokens = 0", "task_min_tokens"),
            ("task_max_tokens = 1", "task_max_tokens"),
            ("task_min_duration = 0", "task_min_duration"),
            ("task_noise = -1", "task_noise"),
            ("task_noise = nan", "task_noise"),
            ("task_gain_spread = nan", "task_gain_spread"),
            ("vocab = 2\ntask_distinct_neighbors = 1", "task_distinct_neighbors"),
            ("initial_lr = inf", "initial_lr"),
            ("halve_threshold = inf", "halve_threshold"),
            ("adam_eps = inf", "adam_eps"),
            ("bn_eps = inf", "bn_eps"),
            ("task_noise = inf", "task_noise"),
            ("task_gain_spread = inf", "task_gain_spread"),
            ("task_offset_spread = inf", "task_offset_spread"),
            ("task_offset_spread = nan", "task_offset_spread"),
            ("train_utterances = 0", "train_utterances"),
            ("dev_utterances = 0", "dev_utterances"),
            ("dev_utterances = -3", "dev_utterances"),
            ("seed = -1", "seed"),
        ],
        ids=["hidden", "features", "embed_dim", "attn_dim", "vocab",
             "task_distinct_neighbors", "embed_dim-features", "embed_dim-hidden",
             "bn_eps", "bn_eps-nan", "bn_momentum", "bn_momentum-nan",
             "max_frames_per_batch", "initial_lr-nan", "halve_threshold-nan",
             "stop_threshold-nan", "adam_beta1", "adam_beta1-nan", "adam_beta2", "adam_eps",
             "adam_eps-nan", "task_min_tokens", "task_max_tokens", "task_min_duration",
             "task_noise", "task_noise-nan", "task_gain_spread-nan",
             "task_distinct_neighbors-vocab", "initial_lr-inf", "halve_threshold-inf",
             "adam_eps-inf", "bn_eps-inf", "task_noise-inf", "task_gain_spread-inf",
             "task_offset_spread-inf", "task_offset_spread-nan", "train_utterances",
             "dev_utterances", "dev_utterances-negative", "seed-negative"],
    )
    def test_bounds_checked_at_parse(self, text, key):
        with pytest.raises(errors.ConfigError, match=key):
            parse_config_text(text)

    def test_bounds_accept_edges(self):
        cfg = parse_config_text(
            "hidden = 1\nfeatures = 2\nembed_dim = 1\nattn_dim = 1\nvocab = 2"
        )
        assert (cfg.hidden, cfg.vocab) == (1, 2)
        # Forbidding repeated tokens takes two real tokens besides the blank.
        cfg = parse_config_text("vocab = 3\ntask_distinct_neighbors = 1")
        assert cfg.task_distinct_neighbors == 1
        # One layer: the bottleneck only has to fit under the features.
        cfg = parse_config_text("num_layers = 1\nhidden = 2\nembed_dim = 8")
        assert cfg.embed_dim == 8
        cfg = parse_config_text(
            "bn_momentum = 1\nadam_beta1 = 0\nmax_frames_per_batch = 1\ntask_noise = 0\n"
            "task_min_tokens = 1\ntask_max_tokens = 1"
        )
        assert (cfg.bn_momentum, cfg.adam_beta1, cfg.max_frames_per_batch) == (1.0, 0.0, 1)
        load_config("configs/desk.cfg")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("hidden = 6\nseed = 42\n")
        cfg = load_config(str(path))
        assert cfg.hidden == 6
        assert cfg.seed == 42

    def test_format_roundtrip_exact(self):
        # Checkpoint headers are written by format_config and read by the parser.
        desk = load_config("configs/desk.cfg")
        odd = dataclasses.replace(desk, dropout=0.1 + 0.2, initial_lr=1 / 3, task_noise=1 / 3)
        # Values of another type than the key's, as Python callers may pass.
        loose = dataclasses.replace(desk, task_distinct_neighbors=True, dropout=0)
        for cfg in (desk, odd, loose):
            text = format_config(cfg)
            assert len(text.splitlines()) == len(SCHEMA)
            assert parse_config_text(text, every_key=True) == cfg

    def test_task_keys_match_task_fields(self):
        # TrainConfig.task() maps task_<name> to the task's field <name>.
        keys = {key.removeprefix("task_") for key in SCHEMA if key.startswith("task_")}
        own = {f.name for f in dataclasses.fields(SyntheticTask)}
        assert keys == own - {"vocab", "feature_dim", "seed"}

    def test_every_key_documented(self):
        for key, (_, _, doc) in SCHEMA.items():
            assert doc, f"{key} lacks a description"


# The training config of tiny_model: 2 layers, hidden 3, features 4, vocab 5, widths 2.
TINY = TrainConfig(num_layers=2, hidden=3, features=4, vocab=5, embed_dim=2, attn_dim=2,
                   dropout=0.0)


def tiny_model(variant="abn-f", seed=0):
    return Model(TINY.model_config(variant), np.random.default_rng(seed))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = tiny_model("abn-u", seed=7)
        # Move running stats off their defaults so the roundtrip covers them.
        rng = np.random.default_rng(8)
        batch = SequenceBatch(Tensor(rng.normal(size=(2, 3, 4))), [3, 2])
        stack_forward(batch, model, "train")
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path, TINY)
        loaded, _ = load_checkpoint(path)
        for name, t in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name].data, t.data,
                                          err_msg=name)
        for name, t in model.running_stats().items():
            np.testing.assert_array_equal(loaded.running_stats()[name].data, t.data,
                                          err_msg=name)
        out_a = stack_forward(batch, model, "infer").features.data
        out_b = stack_forward(batch, loaded, "infer").features.data
        np.testing.assert_array_equal(out_a, out_b)

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("abn-checkpoint v999\nend\n")
        with pytest.raises(errors.CheckpointError, match="v999"):
            load_checkpoint(str(path))
        # The per-gate v1 layout is refused by name, not parsed.
        path.write_text("abn-checkpoint v1\nend\n")
        with pytest.raises(errors.CheckpointError, match="v1.*no longer read"):
            load_checkpoint(str(path))
        # So is v2, which does not say which task its model was trained on.
        path.write_text("abn-checkpoint v2\nend\n")
        with pytest.raises(errors.CheckpointError, match="v2.*no training seed"):
            load_checkpoint(str(path))
        # And v3, which records the seed but none of the task keys.
        path.write_text("abn-checkpoint v3\nend\n")
        with pytest.raises(errors.CheckpointError, match="v3.*no task keys"):
            load_checkpoint(str(path))

    def test_training_seed_recorded_and_checked(self, tmp_path):
        path = tmp_path / "m.ckpt"
        cfg = dataclasses.replace(TINY, seed=7)
        save_checkpoint(tiny_model(), str(path), cfg)
        assert path.read_text().splitlines()[:4] == [
            "abn-checkpoint v4", "# blank symbol index: 0", "variants abn-f,abn-f",
            "num_layers = 2"]
        assert "seed = 7" in path.read_text().splitlines()
        _load_for_task(str(path), cfg)
        with pytest.raises(errors.CheckpointError, match="seed: .* seed 7, .* seed is 0"):
            _load_for_task(str(path), TINY)

    def test_load_returns_the_training_config(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = tiny_model()
        # Every task key off its default, and floats that need all 17 digits.
        cfg = dataclasses.replace(
            TINY, seed=7, task_min_tokens=1, task_max_tokens=2, task_min_duration=3,
            task_max_duration=5, task_noise=1 / 3, task_gain_spread=0.1 + 0.2,
            task_offset_spread=0.35, task_distinct_neighbors=1, initial_lr=1 / 3)
        save_checkpoint(model, str(path), cfg)
        loaded, trained = load_checkpoint(str(path))
        assert trained == cfg
        for name, t in model.parameters().items():
            assert np.array_equal(loaded.parameters()[name].data, t.data), name

    @pytest.mark.parametrize(
        "edit, match",
        [("drop", "'seed' missing"), ("twice", "duplicate key 'seed'"),
         ("text", "seed needs int, got 'zero'"), ("drop-bn_eps", "'bn_eps' missing")],
        ids=["drop", "twice", "text", "drop-bn_eps"],
    )
    def test_malformed_seed_line_rejected(self, tmp_path, edit, match):
        # A config file may omit a key; a header may not, or a header without
        # its seed line would load as the task of seed 0.
        path, lines = self._saved_lines(tmp_path)
        i = lines.index("bn_eps = 1e-05" if edit == "drop-bn_eps" else "seed = 0")
        lines[i:i + 1] = {"drop": [], "twice": ["seed = 0", "seed = 0"],
                          "text": ["seed = zero"], "drop-bn_eps": []}[edit]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointError, match=match):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(), str(path), TINY)
        before = path.read_bytes()
        original = checkpoint._format_values
        written = []

        def failing_format(t):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(t)
            return original(t)

        monkeypatch.setattr(checkpoint, "_format_values", failing_format)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tiny_model(seed=1), str(path), TINY)
        assert len(written) == 2  # the failure came partway through the blocks
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_temp_file_synced_before_rename(self, tmp_path, monkeypatch):
        # A rename of an unsynced file can leave an empty or partial
        # checkpoint after a power loss.
        events = []
        fsync, replace = checkpoint.os.fsync, checkpoint.os.replace

        def logged_fsync(fd):
            stat = checkpoint.os.fstat(fd)
            events.append(("fsync", stat.st_ino, stat.st_size))
            fsync(fd)

        def logged_replace(src, dst):
            events.append(("replace", src, dst))
            replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "fsync", logged_fsync)
        monkeypatch.setattr(checkpoint.os, "replace", logged_replace)
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(), str(path), TINY)
        assert [e[0] for e in events] == ["fsync", "replace"]
        # The synced file, already complete, is the one renamed into place.
        final = path.stat()
        assert events[0][1:] == (final.st_ino, final.st_size)
        assert events[1][1:] == (str(path) + ".tmp", str(path))

    @pytest.mark.parametrize("key, value", [("hidden", 4), ("dropout", 0.3)])
    def test_save_refuses_a_config_that_does_not_describe_the_model(self, tmp_path, key, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(), str(path), TINY)
        before = path.read_bytes()
        with pytest.raises(errors.ContractError, match=f"{key}={value}"):
            save_checkpoint(tiny_model(seed=1), str(path), dataclasses.replace(TINY, **{key: value}))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(), str(path), TINY)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(errors.CheckpointError):
            load_checkpoint(str(path))

    def test_whitespace_lines_skipped(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        model, _ = load_checkpoint(str(path))
        idx = next(i for i, l in enumerate(lines) if l.startswith("stat "))
        lines[idx:idx] = ["   "]
        lines[4:4] = ["\t"]
        path.write_text("\n".join(lines) + "\n")
        loaded, trained = load_checkpoint(str(path))
        assert trained == TINY
        for name, t in model.running_stats().items():
            assert np.array_equal(loaded.running_stats()[name].data, t.data), name

    def test_value_count_mismatch_names_parameter(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(), str(path), TINY)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
        name = lines[idx].split()[1]
        lines[idx + 1] = "1.0 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointError, match=name.replace(".", r"\.")):
            load_checkpoint(str(path))

    def test_seventeen_digits_roundtrip_exactly(self, tmp_path):
        # Values chosen to need the full 17 significant digits.
        model = tiny_model()
        awkward = Tensor(np.array([1.0 / 3.0, np.pi, 2.0 / 7.0, 1e-17, -5.0]))
        model.set_parameter("out.b", awkward)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path, TINY)
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.parameters()["out.b"].data, awkward.data)

    @staticmethod
    def _saved_lines(tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(), str(path), TINY)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"hidden": "0"}, "hidden"),
            ({"features": "0"}, "features"),
            ({"embed_dim": "0"}, "embed_dim"),
            ({"attn_dim": "0"}, "attn_dim"),
            ({"vocab": "1"}, "vocab"),
            ({"embed_dim": "4"}, "embed_dim"),
            ({"hidden": "1"}, "embed_dim"),
            ({"num_layers": "0"}, "num_layers"),
            ({"dropout": "1.0"}, "dropout"),
            ({"variants": "abn-f"}, "variants"),
            ({"variants": "abn-f,layer-norm"}, "variants"),
            ({"bn_eps": "0"}, "bn_eps"),
            ({"bn_eps": "nan"}, "bn_eps"),
            ({"bn_eps": "inf"}, "bn_eps"),
            ({"bn_momentum": "2"}, "bn_momentum"),
            ({"task_max_tokens": "0"}, "task_max_tokens"),
            ({"task_noise": "nan"}, "task_noise"),
            ({"hidden": "3.5"}, "hidden needs int"),
        ],
        ids=["hidden", "features", "embed_dim", "attn_dim", "vocab",
             "embed_dim-features", "embed_dim-hidden", "num_layers", "dropout",
             "variants-count", "variants-name", "bn_eps", "bn_eps-nan", "bn_eps-inf",
             "bn_momentum", "task_max_tokens", "task_noise-nan", "hidden-type"],
    )
    def test_header_bounds_checked_at_load(self, tmp_path, settings, key):
        # The header passes every check a config file gets (see TINY).
        path, lines = self._saved_lines(tmp_path)
        for i, line in enumerate(lines):
            name = line.split()[0]
            if name in settings:
                lines[i] = (f"variants {settings[name]}" if name == "variants"
                            else f"{name} = {settings[name]}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointError, match=key):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "block, value",
        [("stat layer0.bn.running_var", "-1.0"), ("tensor out.b", "nan"),
         ("tensor layer0.fwd.b", "inf")],
        ids=["negative-variance", "nan", "inf"],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, block, value):
        path, lines = self._saved_lines(tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith(block + " "))
        lines[idx + 1] = " ".join([value] + lines[idx + 1].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        name = block.split()[1]
        with pytest.raises(errors.CheckpointError, match=name.replace(".", r"\.")):
            load_checkpoint(str(path))
        # ``abn eval`` fails on it instead of printing a NaN loss.
        cfg = tmp_path / "task.cfg"
        cfg.write_text("features = 4\nvocab = 5\nembed_dim = 2\nattn_dim = 2\n")
        assert cli(["eval", "--ckpt", str(path), "--config", str(cfg)]) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, dims",
        [("tensor layer0.fwd.w_x 12 4", "4 12"), ("tensor out.b 5", "1 5"),
         ("tensor layer0.gen.w_gamma 4 2", "2 4"), ("tensor layer0.fwd.w_x 12 4", "-12 -4")],
        ids=["w_x-transposed", "out.b-row", "w_gamma-transposed", "w_x-negative"],
    )
    def test_block_shape_checked_against_model(self, tmp_path, block, dims):
        # The value count fits the stored shape, so only the model's own
        # shape, or for negative dimensions the parser, can refuse it; the
        # message names the block once.
        path, lines = self._saved_lines(tmp_path)
        idx = lines.index(block)
        kind, name = block.split()[:2]
        lines[idx] = f"{kind} {name} {dims}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointError, match="shape") as exc:
            load_checkpoint(str(path))
        assert str(exc.value).count(name) == 1, str(exc.value)

    def test_duplicated_block_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith("tensor out.b "))
        lines[idx + 2 : idx + 2] = lines[idx : idx + 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointError, match=r"out\.b: stored twice"):
            load_checkpoint(str(path))
        # A repeated header setting is refused too, and so is an unknown one.
        _, lines = self._saved_lines(tmp_path)
        for extra, match in (("hidden = 3", "duplicate key 'hidden'"),
                             ("width = 3", "unknown key 'width'")):
            path.write_text("\n".join(lines[:3] + [extra] + lines[3:]) + "\n")
            with pytest.raises(errors.CheckpointError, match=match):
                load_checkpoint(str(path))

    def test_stat_naming_a_trainable_tensor_rejected(self, tmp_path):
        cfg = dataclasses.replace(TINY, num_layers=1)
        model = Model(cfg.model_config("bn"), np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path), cfg)
        text = path.read_text().replace("tensor layer0.bn.gamma ", "stat layer0.bn.gamma ")
        path.write_text(text)
        with pytest.raises(errors.CheckpointError, match=r"layer0\.bn\.gamma: stored as stat"):
            load_checkpoint(str(path))

    def test_negative_layer_index_rejected(self, tmp_path):
        # An extra block for layer -1 must not land on the last layer.
        path, lines = self._saved_lines(tmp_path)
        idx = next(i for i, l in enumerate(lines) if l.startswith("stat layer1.bn.running_mean "))
        bogus = lines[idx].replace("layer1.", "layer-1.")
        lines[idx + 2 : idx + 2] = [bogus, lines[idx + 1]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointError, match=r"layer-1\.bn\.running_mean: not part"):
            load_checkpoint(str(path))


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="class")
def perfbench():
    """perfbench's ``workloads`` and ``selftest`` modules, imported from
    ``perfbench/`` with that directory on ``sys.path`` for this class only."""
    saved_path, saved_modules, saved_env = sys.path[:], set(sys.modules), dict(os.environ)
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads"), importlib.import_module("selftest")
    finally:
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)  # run.py pins the BLAS threads on import
        for name in set(sys.modules) - saved_modules:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(PERFBENCH):
                del sys.modules[name]


class TestPerfbenchContract:
    """What the benchmark calls of the program still exists and still gives
    its pinned outputs, so that a change which drops or renames any of it
    fails here and not only in a benchmark run."""

    # Each test's wall-time limit. Measured on a 2-core host: 0.46 s for the
    # references, 0.39 s for ``train_step`` against the train reference (its
    # pinned losses recomputed included), 0.03-0.07 s for each workload's
    # tiny steps.
    BUDGET_S = 5.0

    def test_pinned_references(self, perfbench):
        workloads, _ = perfbench
        tally = workloads.Tally()
        t0 = time.monotonic()
        for name in ("train-desk", "infer-long", "gradcheck-small"):
            workloads.check_references(workloads.WORKLOADS[name], tally)
        assert tally.failures == [] and tally.attempted == 9
        assert time.monotonic() - t0 < self.BUDGET_S

    def test_train_step_reproduces_train_desk(self, perfbench):
        # train-desk keeps its own copy of the training step; the program's
        # step must give its pinned losses bit for bit, so that the benchmark
        # can call ``train_step`` instead without re-pinning them.
        workloads, _ = perfbench
        t0 = time.monotonic()
        cfg = workloads.desk_config(workloads.REFERENCE_SEED,
                                    train_utterances=workloads.REFERENCE_TRAIN_UTTERANCES)
        batches = split_batches(cfg, cfg.train_utterances, TRAIN_SEED)
        pinned = workloads.TrainDesk.reference_outputs()
        for v in workloads.VARIANTS:
            state = TrainState.start(cfg, v)
            losses = [train_step(state, batch)[0]
                      for _ in range(workloads.REFERENCE_TRAIN_EPOCHS) for batch in batches]
            assert losses == pinned[v]["losses"], v
        assert time.monotonic() - t0 < self.BUDGET_S

    # Span targets that no longer exist in the program; the benchmark lists
    # them as unwrapped (ROADMAP item 7). A target may leave this set, and
    # no other may join it.
    KNOWN_STALE = {
        ("abn.gradcheck", "stack_forward"),
        ("abn.generators", "bn_forward"),
        ("abn.gradcheck", "finite_diff_check"),
    }

    def test_span_targets_resolve(self, perfbench):
        # A target that stops resolving reads 0 in its per-layer metric
        # without failing the benchmark run.
        targets = importlib.import_module("spans").TARGETS
        unresolved = {(module, attr) for module, attr, _ in targets
                      if not hasattr(importlib.import_module(module), attr)}
        assert unresolved <= self.KNOWN_STALE, sorted(unresolved - self.KNOWN_STALE)

    @pytest.mark.parametrize("name", ["train-desk", "infer-long", "gradcheck-small"])
    def test_tiny_steps_and_node_probes(self, perfbench, name):
        workloads, selftest = perfbench
        t0 = time.monotonic()
        wl = workloads.WORKLOADS[name](1, **selftest.TINY[name])
        wl.setup()
        for v in workloads.VARIANTS:
            assert wl.step(v, 0)
            assert wl.node_probe(v) > 0.0
        assert time.monotonic() - t0 < self.BUDGET_S
