import math

import numpy as np
import pytest

from deltadecode.core import (
    DecodeConfig,
    EmptyInputError,
    InvalidConfigError,
    Vocabulary,
    VocabularyMismatchError,
)
from deltadecode.decoder import (
    DecodeError,
    InsufficientTrajectoryError,
    Trajectory,
    decode,
    kl_divergence,
    replay_against,
)
from deltadecode.scorers import BigramMatrixScorer, ConstantScorer, Scorer, build_vocab

V5 = Vocabulary(surface=("u", "v", "w", "<bos>", "<eos>"), eos=4, bos=3)

# Hand-built rows; low entries keep the specials out of the nucleus.
BASE_M = np.array(
    [
        [0.0, 2.0, 1.0, -9.0, -9.0],
        [3.0, 0.0, 1.0, -9.0, -9.0],
        [1.0, 0.0, 2.0, -9.0, 5.0],
        [2.0, 1.0, 0.0, -9.0, -9.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)
EXPERT_M = np.array(
    [
        [0.0, 0.0, 4.0, -9.0, -9.0],
        [0.0, 0.0, 0.0, -9.0, -9.0],
        [0.0, 0.0, 0.0, -9.0, 0.0],
        [0.0, 0.0, 0.0, -9.0, -9.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)
EXPERT_BASE_M = np.array(
    [
        [0.0, 3.0, 0.0, -9.0, -9.0],
        [0.0, 0.0, 0.0, -9.0, -9.0],
        [0.0, 0.0, 5.0, -9.0, 0.0],
        [3.0, 0.0, 0.0, -9.0, -9.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


def fixture_scorers():
    return (
        BigramMatrixScorer(V5, BASE_M, name="base"),
        BigramMatrixScorer(V5, EXPERT_M, name="expert"),
        BigramMatrixScorer(V5, EXPERT_BASE_M, name="expert_base"),
    )


def naive_decode(base, expert, expert_base, prompt, config):
    """Brute-force reference decoder: plain python, one step at a time."""
    rng = np.random.default_rng(config.seed)
    context = list(prompt)
    tokens, logprobs = [], []
    stop = "max_tokens"
    for _ in range(config.max_tokens):
        b = [float(x) for x in base.score(context)]
        if expert is not None:
            e = [float(x) for x in expert.score(context)]
            eb = [float(x) for x in expert_base.score(context)]
            logits = [bi + config.delta_scale * (ei - ebi) for bi, ei, ebi in zip(b, e, eb)]
        else:
            logits = b
        scaled = [x / config.temperature for x in logits]
        m = max(scaled)
        exps = [math.exp(x - m) for x in scaled]
        total = sum(exps)
        dist = [x / total for x in exps]
        # nucleus: walk descending (stable by id), keep until mass >= top_p
        order = sorted(range(len(dist)), key=lambda i: (-dist[i], i))
        kept, mass = [], 0.0
        for i in order:
            kept.append(i)
            mass += dist[i]
            if mass >= config.top_p:
                break
        kept_mass = sum(dist[i] for i in kept)
        filtered = [dist[i] / kept_mass if i in kept else 0.0 for i in range(len(dist))]
        if config.mode == "greedy":
            token = max(range(len(filtered)), key=lambda i: (filtered[i], -i))
        else:
            u = rng.random()
            acc = 0.0
            token = None
            for i, p in enumerate(filtered):
                acc += p
                if u < acc:
                    token = i
                    break
            if token is None:
                token = max(i for i, p in enumerate(filtered) if p > 0)
        tokens.append(token)
        logprobs.append(math.log(filtered[token]))
        context.append(token)
        if token == base.vocab.eos:
            stop = "eos"
            break
    return tokens, logprobs, stop


class TestGreedyFixture:
    def test_combined_path_hand_derived(self):
        # bos row: [2,1,0]+([0,0,0]-[3,0,0]) = [-1,1,0] -> v
        # v row:   [3,0,1]+0               = [3,0,1]  -> u
        # u row:   [0,2,1]+([0,0,4]-[0,3,0]) = [0,-1,5] -> w
        # w row:   [1,0,2,-9,5]+([0,0,-5,0,0]) = [1,0,-3,-9,5] -> eos
        base, expert, expert_base = fixture_scorers()
        config = DecodeConfig(mode="greedy", max_tokens=6)
        t = decode(base, expert, expert_base, prompt=[V5.bos], config=config)
        assert t.tokens == (1, 0, 2, 4)
        assert t.stop_reason == "eos"

    def test_base_only_path_hand_derived(self):
        # bos -> u, then u -> v -> u -> v ... until the cap
        base, _, _ = fixture_scorers()
        config = DecodeConfig(mode="greedy", max_tokens=6)
        t = decode(base, prompt=[V5.bos], config=config)
        assert t.tokens == (0, 1, 0, 1, 0, 1)
        assert t.stop_reason == "max_tokens"

    def test_matches_naive_simulation(self):
        base, expert, expert_base = fixture_scorers()
        config = DecodeConfig(mode="greedy", max_tokens=6)
        t = decode(base, expert, expert_base, prompt=[V5.bos], config=config)
        tokens, logprobs, stop = naive_decode(base, expert, expert_base, [V5.bos], config)
        assert list(t.tokens) == tokens
        assert stop == t.stop_reason
        np.testing.assert_allclose(
            [s.chosen_logprob for s in t.generated], logprobs, atol=1e-12
        )

    def test_greedy_is_seed_independent(self):
        base, expert, expert_base = fixture_scorers()
        runs = [
            decode(
                base,
                expert,
                expert_base,
                prompt=[V5.bos],
                config=DecodeConfig(mode="greedy", max_tokens=6, seed=s),
            ).tokens
            for s in (0, 1, 99)
        ]
        assert runs[0] == runs[1] == runs[2]


def random_bigram_triple(rng, vocab):
    def scorer(name):
        matrix = rng.normal(size=(vocab.size, vocab.size)) * 2.0
        matrix[:, vocab.bos] -= 50.0  # bos should not be generated
        return BigramMatrixScorer(vocab, matrix, name=name)

    return scorer("base"), scorer("expert"), scorer("expert_base")


class TestAgainstNaiveSimulator:
    def test_randomized_greedy_and_sampled(self):
        rng = np.random.default_rng(2024)
        vocab = build_vocab([[f"t{i}" for i in range(6)]])
        for case in range(60):
            base, expert, expert_base = random_bigram_triple(rng, vocab)
            config = DecodeConfig(
                delta_scale=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
                temperature=float(rng.uniform(0.5, 1.5)),
                top_p=float(rng.uniform(0.6, 1.0)),
                max_tokens=8,
                mode="greedy" if case % 2 else "sample",
                seed=int(rng.integers(0, 10_000)),
            )
            prompt = [int(rng.integers(0, vocab.size - 2))]
            t = decode(base, expert, expert_base, prompt=prompt, config=config)
            tokens, logprobs, stop = naive_decode(base, expert, expert_base, prompt, config)
            assert list(t.tokens) == tokens, f"case {case}"
            assert t.stop_reason == stop
            np.testing.assert_allclose(
                [s.chosen_logprob for s in t.generated], logprobs, atol=1e-10
            )


class TestIdentities:
    def test_zero_scale_equals_base_only_bitwise(self):
        rng = np.random.default_rng(5)
        vocab = build_vocab([[f"t{i}" for i in range(5)]])
        for _ in range(25):
            base, expert, expert_base = random_bigram_triple(rng, vocab)
            config = DecodeConfig(
                delta_scale=0.0, mode="sample", max_tokens=10, seed=int(rng.integers(1e6))
            )
            together = decode(base, expert, expert_base, prompt=[0], config=config)
            alone = decode(base, prompt=[0], config=config)
            assert together.tokens == alone.tokens
            assert together.stop_reason == alone.stop_reason
            assert [s.chosen_logprob for s in together.generated] == [
                s.chosen_logprob for s in alone.generated
            ]

    def test_expert_equals_expert_base_matches_base_only(self):
        rng = np.random.default_rng(6)
        vocab = build_vocab([[f"t{i}" for i in range(5)]])
        for _ in range(25):
            base, expert, _ = random_bigram_triple(rng, vocab)
            config = DecodeConfig(mode="sample", max_tokens=10, seed=int(rng.integers(1e6)))
            together = decode(base, expert, expert, prompt=[0], config=config)
            alone = decode(base, prompt=[0], config=config)
            assert together.tokens == alone.tokens
            assert [s.chosen_logprob for s in together.generated] == [
                s.chosen_logprob for s in alone.generated
            ]

    def test_sample_mode_reproducible(self):
        base, expert, expert_base = fixture_scorers()
        config = DecodeConfig(mode="sample", max_tokens=12, seed=31)
        a = decode(base, expert, expert_base, prompt=[V5.bos], config=config)
        b = decode(base, expert, expert_base, prompt=[V5.bos], config=config)
        assert a.tokens == b.tokens
        assert [s.chosen_logprob for s in a.generated] == [
            s.chosen_logprob for s in b.generated
        ]

    def test_constant_favoring_eos_stops_immediately(self):
        vocab = build_vocab([["a"]])
        logits = np.full(vocab.size, -5.0)
        logits[vocab.eos] = 5.0
        t = decode(
            ConstantScorer(vocab, logits),
            prompt=[0],
            config=DecodeConfig(mode="greedy", max_tokens=50),
        )
        assert t.tokens == (vocab.eos,)
        assert t.stop_reason == "eos"

    def test_token_always_in_nucleus_support(self):
        rng = np.random.default_rng(7)
        vocab = build_vocab([[f"t{i}" for i in range(6)]])
        for _ in range(20):
            base, expert, expert_base = random_bigram_triple(rng, vocab)
            config = DecodeConfig(
                mode="sample", top_p=0.7, max_tokens=10, seed=int(rng.integers(1e6))
            )
            t = decode(base, expert, expert_base, prompt=[0], config=config)
            for step in t.generated:
                assert math.isfinite(step.chosen_logprob)  # ln(0) would be -inf


class TestTrajectoryShape:
    def test_snapshot_and_labels(self):
        base, expert, expert_base = fixture_scorers()
        config = DecodeConfig(mode="greedy", max_tokens=4)
        t = decode(base, expert, expert_base, prompt=[V5.bos], config=config)
        assert t.config_snapshot == config
        assert t.labels == {"base": "base", "expert": "expert", "expert_base": "expert_base"}
        assert t.prompt_tokens == (V5.bos,)

    def test_respects_max_tokens(self):
        base, _, _ = fixture_scorers()
        t = decode(base, prompt=[V5.bos], config=DecodeConfig(mode="greedy", max_tokens=3))
        assert len(t.generated) == 3

    def test_empty_prompt_rejected(self):
        base, _, _ = fixture_scorers()
        with pytest.raises(EmptyInputError):
            decode(base, prompt=[], config=DecodeConfig())

    def test_prompt_token_out_of_range(self):
        base, _, _ = fixture_scorers()
        with pytest.raises(DecodeError):
            decode(base, prompt=[99], config=DecodeConfig())

    def test_expert_without_twin_rejected(self):
        base, expert, _ = fixture_scorers()
        with pytest.raises(InvalidConfigError):
            decode(base, expert, None, prompt=[V5.bos], config=DecodeConfig())

    def test_vocab_size_mismatch_rejected(self):
        base, _, _ = fixture_scorers()
        other = build_vocab([["x", "y", "z", "q"]])
        small = ConstantScorer(other, np.zeros(other.size))
        with pytest.raises(VocabularyMismatchError):
            decode(base, small, small, prompt=[V5.bos], config=DecodeConfig())

    def test_scorer_failure_names_step_and_label(self):
        class Flaky(Scorer):
            def __init__(self, vocab):
                super().__init__(vocab, name="flaky")
                self.calls = 0

            def score(self, prefix):
                self.calls += 1
                if self.calls > 3:
                    raise RuntimeError("backend went away")
                return np.zeros(self.vocab.size)

        vocab = build_vocab([["a", "b"]])
        with pytest.raises(DecodeError, match="flaky.*step 3"):
            decode(
                Flaky(vocab),
                prompt=[0],
                config=DecodeConfig(mode="greedy", max_tokens=10, top_p=1.0),
            )


class TestKlInstrumentation:
    def test_kl_divergence_known_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)

    def test_kl_identical_is_zero(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_kl_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.random(8)
            q = rng.random(8)
            assert kl_divergence(p / p.sum(), q / q.sum()) >= 0.0

    def test_zero_support_uses_floor(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        # second term hits the 1e-12 floor instead of exploding
        expected = 0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-12)
        assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-12)

    def test_instrumented_steps_carry_kl(self):
        base, expert, expert_base = fixture_scorers()
        config = DecodeConfig(mode="greedy", max_tokens=4)
        t = decode(
            base, expert, expert_base, prompt=[V5.bos], config=config, instrument=("kl",)
        )
        assert all(s.kl_base_vs_combined is not None for s in t.generated)
        assert all(s.kl_base_vs_combined >= 0.0 for s in t.generated)

    def test_kl_zero_when_scale_zero_and_full_mass(self):
        base, expert, expert_base = fixture_scorers()
        config = DecodeConfig(delta_scale=0.0, top_p=1.0, mode="greedy", max_tokens=5)
        t = decode(
            base, expert, expert_base, prompt=[V5.bos], config=config, instrument=("kl",)
        )
        for step in t.generated:
            assert step.kl_base_vs_combined <= 1e-12

    def test_uninstrumented_steps_skip_kl(self):
        base, expert, expert_base = fixture_scorers()
        t = decode(
            base,
            expert,
            expert_base,
            prompt=[V5.bos],
            config=DecodeConfig(mode="greedy", max_tokens=4),
        )
        assert all(s.kl_base_vs_combined is None for s in t.generated)

    def test_unknown_instrument_rejected(self):
        base, _, _ = fixture_scorers()
        with pytest.raises(InvalidConfigError):
            decode(base, prompt=[V5.bos], config=DecodeConfig(), instrument=("flops",))

    def test_delta_flag_is_unknown(self):
        # Its two per-step values were never written to any artifact.
        base, expert, expert_base = fixture_scorers()
        with pytest.raises(InvalidConfigError, match=r"unknown instrument flags: \['delta'\]"):
            decode(base, expert, expert_base, prompt=[V5.bos], config=DecodeConfig(), instrument=("delta",))


class TestReplayAgainst:
    def test_self_replay_matches_everywhere(self):
        base, _, _ = fixture_scorers()
        config = DecodeConfig(mode="greedy", max_tokens=6)
        t = decode(base, prompt=[V5.bos], config=config)
        pairs = replay_against(t, base)
        assert len(pairs) == len(t.generated) - 1
        assert all(predicted == actual for predicted, actual in pairs)

    def test_constant_probe_hand_example(self):
        # T=[1,0,2,0] vs always-0 probe: compare at steps 2,3,4 -> hit, miss, hit
        vocab = build_vocab([["a", "b", "c"]])
        logits = np.zeros(vocab.size)
        logits[0] = 1.0
        probe = ConstantScorer(vocab, logits)
        t = Trajectory.from_tokens(
            prompt_tokens=(0,), tokens=(1, 0, 2, 0), stop_reason="max_tokens",
            config_snapshot=DecodeConfig(), scorer_labels=(("base", "x"),),
        )
        pairs = replay_against(t, probe)
        assert [(p, a) for p, a in pairs] == [(0, 0), (0, 2), (0, 0)]

    def test_two_token_trajectory_single_pair(self):
        vocab = build_vocab([["a", "b"]])
        probe = ConstantScorer(vocab, np.zeros(vocab.size))
        t = Trajectory.from_tokens(
            prompt_tokens=(0,), tokens=(1, 0), stop_reason="max_tokens",
            config_snapshot=DecodeConfig(), scorer_labels=(("base", "x"),),
        )
        assert len(replay_against(t, probe)) == 1

    def test_short_trajectory_rejected(self):
        vocab = build_vocab([["a"]])
        probe = ConstantScorer(vocab, np.zeros(vocab.size))
        t = Trajectory.from_tokens(
            prompt_tokens=(0,), tokens=(0,), stop_reason="max_tokens",
            config_snapshot=DecodeConfig(), scorer_labels=(("base", "x"),),
        )
        with pytest.raises(InsufficientTrajectoryError):
            replay_against(t, probe)

    def test_token_outside_probe_vocab_rejected(self):
        vocab = build_vocab([["a"]])
        probe = ConstantScorer(vocab, np.zeros(vocab.size))
        t = Trajectory.from_tokens(
            prompt_tokens=(0,), tokens=(1, 57), stop_reason="max_tokens",
            config_snapshot=DecodeConfig(), scorer_labels=(("base", "x"),),
        )
        with pytest.raises(
            VocabularyMismatchError, match=r"^position 2: token id 57 outside vocabulary of size 3$"
        ):
            replay_against(t, probe)
