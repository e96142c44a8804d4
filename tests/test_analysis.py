import numpy as np
import pytest

from deltadecode.analysis import (
    SeriesMismatchError,
    TokenSetSpec,
    UndefinedCosineError,
    avg_cosine_sim,
    delta_series,
    length_stats,
    pcr,
    token_frequency,
)
from deltadecode.core import DecodeConfig, EmptyInputError, VocabularyMismatchError
from deltadecode.decoder import InsufficientTrajectoryError, Trajectory, decode
from deltadecode.scorers import BigramMatrixScorer, ConstantScorer, build_vocab


def make_trajectory(tokens, prompt=(0,)):
    return Trajectory.from_tokens(
        prompt_tokens=prompt,
        tokens=tokens,
        stop_reason="max_tokens",
        config_snapshot=DecodeConfig(),
        scorer_labels=(("base", "x"),),
    )


class TestPcr:
    def test_constant_probe_fixture_two_thirds(self):
        # probe always answers 0; T=[1,0,2,0] -> hit, miss, hit
        vocab = build_vocab([["a", "b", "c"]])
        logits = np.zeros(vocab.size)
        logits[0] = 1.0
        probe = ConstantScorer(vocab, logits)
        report = pcr([make_trajectory((1, 0, 2, 0))], probe)
        assert report.per_trajectory == (2 / 3,)
        assert report.mean == 2 / 3
        assert report.n == 1

    def test_greedy_self_replay_is_exactly_one(self):
        rng = np.random.default_rng(40)
        vocab = build_vocab([[f"t{i}" for i in range(6)]])
        for _ in range(20):
            matrix = rng.normal(size=(vocab.size, vocab.size))
            matrix[:, vocab.bos] -= 50.0
            matrix[:, vocab.eos] -= 50.0
            scorer = BigramMatrixScorer(vocab, matrix)
            t = decode(
                scorer,
                prompt=[0],
                config=DecodeConfig(mode="greedy", max_tokens=8, top_p=1.0),
            )
            assert pcr([t], scorer).mean == 1.0

    def test_mean_over_trajectories(self):
        vocab = build_vocab([["a", "b"]])
        logits = np.zeros(vocab.size)
        logits[0] = 1.0
        probe = ConstantScorer(vocab, logits)
        # [1,0]: one comparison, hit; [1,1]: one comparison, miss
        report = pcr([make_trajectory((1, 0)), make_trajectory((1, 1))], probe)
        assert report.per_trajectory == (1.0, 0.0)
        assert report.mean == 0.5

    def test_short_trajectory_names_index(self):
        vocab = build_vocab([["a", "b"]])
        probe = ConstantScorer(vocab, np.zeros(vocab.size))
        with pytest.raises(InsufficientTrajectoryError, match="trajectory 1"):
            pcr([make_trajectory((1, 0)), make_trajectory((1,))], probe)

    def test_out_of_vocabulary_id_names_index(self):
        vocab = build_vocab([["a", "b"]])
        probe = ConstantScorer(vocab, np.zeros(vocab.size))
        with pytest.raises(
            VocabularyMismatchError,
            match=r"^trajectory 1: position 2: token id 9 outside vocabulary of size 4$",
        ):
            pcr([make_trajectory((1, 0)), make_trajectory((1, 9))], probe)

    def test_empty_list_rejected(self):
        vocab = build_vocab([["a"]])
        probe = ConstantScorer(vocab, np.zeros(vocab.size))
        with pytest.raises(EmptyInputError):
            pcr([], probe)

    def test_values_bounded(self):
        rng = np.random.default_rng(41)
        vocab = build_vocab([[f"t{i}" for i in range(4)]])
        probe = BigramMatrixScorer(vocab, rng.normal(size=(vocab.size, vocab.size)))
        trajectories = [
            make_trajectory(tuple(rng.integers(0, 4, size=5))) for _ in range(10)
        ]
        report = pcr(trajectories, probe)
        assert all(0.0 <= v <= 1.0 for v in report.per_trajectory)


class TestDeltaSeries:
    def test_teacher_forced_rows(self):
        vocab = build_vocab([["a", "b"]])
        expert_m = np.arange(16.0).reshape(4, 4)
        expert_base_m = np.ones((4, 4))
        expert = BigramMatrixScorer(vocab, expert_m)
        expert_base = BigramMatrixScorer(vocab, expert_base_m)
        t = make_trajectory((1, 0), prompt=(0,))
        series = delta_series(t, expert, expert_base)
        assert series.shape == (2, 4)
        # step 0 context ends with prompt token 0; step 1 with generated token 1
        np.testing.assert_array_equal(series[0], expert_m[0] - expert_base_m[0])
        np.testing.assert_array_equal(series[1], expert_m[1] - expert_base_m[1])


class TestAvgCosineSim:
    def test_identical_series_is_one(self):
        series = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert avg_cosine_sim(series, series) == pytest.approx(1.0, abs=1e-12)

    def test_hand_example_half(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert avg_cosine_sim(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(5, 7))
        assert avg_cosine_sim(a, -b) == pytest.approx(-avg_cosine_sim(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        assert avg_cosine_sim(a, b) == pytest.approx(avg_cosine_sim(b, a), abs=1e-15)

    def test_per_step_scale_invariance(self):
        rng = np.random.default_rng(44)
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(6, 5))
        scales = rng.uniform(0.1, 100.0, size=(6, 1))
        assert avg_cosine_sim(a * scales, b) == pytest.approx(
            avg_cosine_sim(a, b), abs=1e-12
        )

    def test_bounded(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            a = rng.normal(size=(3, 4)) * rng.uniform(0.001, 1000)
            b = rng.normal(size=(3, 4)) * rng.uniform(0.001, 1000)
            assert -1.0 <= avg_cosine_sim(a, b) <= 1.0

    def test_zero_norm_names_step(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(UndefinedCosineError, match="step 1"):
            avg_cosine_sim(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SeriesMismatchError):
            avg_cosine_sim(np.ones((2, 3)), np.ones((3, 3)))

    def test_empty_series_rejected(self):
        with pytest.raises(EmptyInputError):
            avg_cosine_sim(np.ones((0, 3)), np.ones((0, 3)))


class TestTokenSetSpec:
    def test_from_mapping(self):
        spec = TokenSetSpec.from_mapping({"verify": ["check", "Verify"]})
        assert spec.as_dict() == {"verify": ["check", "verify"]}

    def test_default_has_three_categories(self):
        spec = TokenSetSpec.default()
        assert set(spec.as_dict()) == {"branching", "backtracking", "self_verification"}
        assert all(spec.as_dict().values())

    def test_from_file(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text('{"verify": ["check"]}')
        assert TokenSetSpec.from_file(path).as_dict() == {"verify": ["check"]}

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError):
            TokenSetSpec.from_mapping({"verify": []})


class TestTokenFrequency:
    def test_all_check_trajectory(self):
        vocab = build_vocab([["check", "x"]])
        spec = TokenSetSpec.from_mapping({"verify": ["check"]})
        t = make_trajectory((0, 0, 0))
        assert token_frequency([t], spec, vocab) == {"verify": 1.0}

    def test_two_in_ten(self):
        vocab = build_vocab([["check", "x"]])
        spec = TokenSetSpec.from_mapping({"verify": ["check"]})
        t = make_trajectory((0, 1, 1, 1, 1, 0, 1, 1, 1, 1))
        assert token_frequency([t], spec, vocab) == {"verify": 0.2}

    def test_unmatched_category_zero(self):
        vocab = build_vocab([["a", "b"]])
        spec = TokenSetSpec.from_mapping({"verify": ["check"]})
        assert token_frequency([make_trajectory((0, 1))], spec, vocab) == {"verify": 0.0}

    def test_case_insensitive(self):
        vocab = build_vocab([["Check"]])
        spec = TokenSetSpec.from_mapping({"verify": ["check"]})
        assert token_frequency([make_trajectory((0,))], spec, vocab) == {"verify": 1.0}

    def test_disjoint_union_adds(self):
        vocab = build_vocab([["a", "b", "c"]])
        t = make_trajectory((0, 1, 2, 0, 1))
        spec_a = TokenSetSpec.from_mapping({"s": ["a"]})
        spec_b = TokenSetSpec.from_mapping({"s": ["b"]})
        spec_ab = TokenSetSpec.from_mapping({"s": ["a", "b"]})
        fa = token_frequency([t], spec_a, vocab)["s"]
        fb = token_frequency([t], spec_b, vocab)["s"]
        fab = token_frequency([t], spec_ab, vocab)["s"]
        assert fab == pytest.approx(fa + fb, abs=1e-15)

    def test_counts_span_trajectories(self):
        vocab = build_vocab([["check", "x"]])
        spec = TokenSetSpec.from_mapping({"verify": ["check"]})
        value = token_frequency(
            [make_trajectory((0,)), make_trajectory((1, 1, 1))], spec, vocab
        )
        assert value == {"verify": 0.25}

    def test_empty_input_rejected(self):
        vocab = build_vocab([["a"]])
        spec = TokenSetSpec.from_mapping({"s": ["a"]})
        with pytest.raises(EmptyInputError):
            token_frequency([], spec, vocab)


class TestLengthStats:
    def test_mean_of_two(self):
        groups = {"g": [make_trajectory((0,) * 10), make_trajectory((0,) * 20)]}
        stats = length_stats(groups)
        assert stats["g"]["mean"] == 15.0
        assert stats["g"]["min"] == 10
        assert stats["g"]["max"] == 20
        assert stats["g"]["n"] == 2

    def test_single_trajectory_stddev_zero(self):
        stats = length_stats({"g": [make_trajectory((0, 0, 0))]})
        assert stats["g"]["stddev"] == 0.0

    def test_population_convention(self):
        groups = {"g": [make_trajectory((0,) * n) for n in (4, 8)]}
        # population stddev of {4, 8} is 2, sample would be 2*sqrt(2)
        assert length_stats(groups)["g"]["stddev"] == 2.0

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyInputError):
            length_stats({"g": []})
