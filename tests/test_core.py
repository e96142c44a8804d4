import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadecode.core import (
    DecodeConfig,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
    Vocabulary,
    VocabularyMismatchError,
    argmax_token,
    as_distribution,
    as_logits,
    combine_logits,
    nucleus_filter,
    sample_token,
    softmax_with_temperature,
)


def naive_nucleus(probs, top_p):
    """Reference: walk tokens by descending probability until mass >= top_p."""
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    kept, mass = [], 0.0
    for i in order:
        kept.append(i)
        mass += probs[i]
        if mass >= top_p:
            break
    out = np.zeros(len(probs))
    total = sum(probs[i] for i in kept)
    for i in kept:
        out[i] = probs[i] / total
    return out


def naive_softmax(logits, temperature):
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    exps = np.exp(scaled - scaled.max())
    return exps / exps.sum()


class TestVocabulary:
    def test_basic(self):
        v = Vocabulary(surface=("a", "b", "<bos>", "<eos>"), eos=3, bos=2)
        assert v.size == 4
        assert v.id_of("b") == 1
        assert v.pad == 2

    def test_pad_falls_back_to_eos(self):
        v = Vocabulary(surface=("a", "b"), eos=1, bos=None)
        assert v.pad == 1

    def test_duplicate_surface_rejected(self):
        with pytest.raises(InvalidConfigError):
            Vocabulary(surface=("a", "a"), eos=0)

    def test_eos_out_of_range_rejected(self):
        with pytest.raises(InvalidConfigError):
            Vocabulary(surface=("a", "b"), eos=2)

    def test_unknown_surface(self):
        v = Vocabulary(surface=("a", "b"), eos=1)
        with pytest.raises(KeyError):
            v.id_of("z")

    def test_dict_round_trip(self):
        v = Vocabulary(surface=("a", "b", "<eos>"), eos=2, bos=None)
        assert Vocabulary.from_dict(v.to_dict()) == v


class TestDecodeConfig:
    def test_defaults(self):
        c = DecodeConfig()
        assert c.delta_scale == 1.0
        assert c.temperature == 1.0
        assert c.top_p == 0.95
        assert c.max_tokens == 16384
        assert c.mode == "sample"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"max_tokens": 0},
            {"mode": "beam"},
            {"delta_scale": -0.5},
            {"delta_scale": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            DecodeConfig(**kwargs)

    def test_replace(self):
        c = DecodeConfig().replace(delta_scale=2.0)
        assert c.delta_scale == 2.0
        assert c.top_p == 0.95

    def test_dict_round_trip(self):
        c = DecodeConfig(delta_scale=0.5, seed=11)
        assert DecodeConfig.from_dict(c.to_dict()) == c

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfigError):
            DecodeConfig.from_dict({"delta_scale": 1.0, "beam_width": 4})


class TestAsLogits:
    def test_accepts_lists(self):
        out = as_logits([1, 2, 3])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(InvalidLogitsError):
            as_logits([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(InvalidLogitsError):
            as_logits([float("inf"), 0.0])

    def test_rejects_wrong_size(self):
        with pytest.raises(VocabularyMismatchError):
            as_logits([1.0, 2.0], vocab_size=3)

    def test_rejects_matrix(self):
        with pytest.raises(InvalidLogitsError):
            as_logits([[1.0], [2.0]])


class TestCombineLogits:
    def test_worked_example(self):
        out = combine_logits([1, 0], [2, 0], [1, 0], 1.0)
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_expert_equals_base_is_identity(self):
        base = [3.0, -1.0, 0.5]
        expert = [7.0, 2.0, -4.0]
        out = combine_logits(base, expert, expert, 1.0)
        np.testing.assert_array_equal(out, base)

    def test_half_scale(self):
        out = combine_logits([0, 0], [1, -1], [0, 0], 0.5)
        np.testing.assert_array_equal(out, [0.5, -0.5])

    def test_zero_scale_is_bitwise_base(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=17)
        expert = rng.normal(size=17)
        expert_base = rng.normal(size=17)
        out = combine_logits(base, expert, expert_base, 0.0)
        assert out.tobytes() == np.asarray(base, dtype=np.float64).tobytes()

    def test_length_mismatch(self):
        with pytest.raises(VocabularyMismatchError):
            combine_logits([1, 2], [1, 2, 3], [1, 2, 3], 1.0)

    def test_non_finite_input(self):
        with pytest.raises(InvalidLogitsError):
            combine_logits([1, np.inf], [0, 0], [0, 0], 1.0)

    def test_linearity_in_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            base, expert, expert_base = rng.normal(size=(3, 9))
            one = combine_logits(base, expert, expert_base, 0.7 + 0.6)
            two = combine_logits(
                combine_logits(base, expert, expert_base, 0.7), expert, expert_base, 0.6
            )
            np.testing.assert_allclose(one, two, atol=1e-12)


class TestSoftmaxWithTemperature:
    def test_symmetry(self):
        np.testing.assert_array_equal(
            softmax_with_temperature([0.0, 0.0], 1.0), [0.5, 0.5]
        )

    def test_analytic_two_thirds(self):
        out = softmax_with_temperature([np.log(2.0), 0.0], 1.0)
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.normal(size=11)
            shift = rng.normal() * 10
            a = softmax_with_temperature(logits, 1.3)
            b = softmax_with_temperature(logits + shift * 1.3, 1.3)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            logits = rng.normal(size=rng.integers(2, 30)) * 5
            tau = float(rng.uniform(0.1, 3.0))
            np.testing.assert_allclose(
                softmax_with_temperature(logits, tau),
                naive_softmax(logits, tau),
                atol=1e-12,
            )

    def test_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            logits = rng.normal(size=rng.integers(2, 50)) * rng.uniform(1, 30)
            total = softmax_with_temperature(logits, rng.uniform(0.05, 4.0)).sum()
            assert abs(total - 1.0) <= 1e-9

    def test_large_logits_stable(self):
        out = softmax_with_temperature([1000.0, 0.0], 1.0)
        assert np.isfinite(out).all()
        assert out[0] > 0.999

    def test_zero_temperature_rejected(self):
        with pytest.raises(InvalidConfigError):
            softmax_with_temperature([1.0, 2.0], 0.0)


class TestNucleusFilter:
    def test_worked_example(self):
        # 0.5 alone misses 0.7, adding 0.3 reaches 0.8, third token dropped
        out = nucleus_filter([0.5, 0.3, 0.2], 0.7)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0], atol=1e-15)

    def test_full_mass_unchanged(self):
        dist = np.array([0.4, 0.35, 0.25])
        out = nucleus_filter(dist, 1.0)
        assert out.tobytes() == dist.tobytes()

    def test_single_token_exceeds(self):
        out = nucleus_filter([0.9, 0.1], 0.5)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_matches_naive(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            raw = rng.random(size=rng.integers(2, 25))
            dist = raw / raw.sum()
            top_p = float(rng.uniform(0.05, 1.0))
            np.testing.assert_allclose(
                nucleus_filter(dist, top_p), naive_nucleus(dist, top_p), atol=1e-12
            )

    def test_always_keeps_a_token(self):
        out = nucleus_filter([0.25, 0.25, 0.25, 0.25], 0.01)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out > 0).sum() == 1

    def test_renormalizes_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            raw = rng.random(size=12)
            out = nucleus_filter(raw / raw.sum(), rng.uniform(0.1, 1.0))
            assert abs(out.sum() - 1.0) <= 1e-9

    def test_invalid_top_p(self):
        with pytest.raises(InvalidConfigError):
            nucleus_filter([0.5, 0.5], 0.0)
        with pytest.raises(InvalidConfigError):
            nucleus_filter([0.5, 0.5], 1.1)

    def test_rejects_unnormalized_when_asked(self):
        with pytest.raises(InvalidDistributionError):
            as_distribution([0.9, 0.3], require_normalized=True)


class TestArgmaxToken:
    def test_basic(self):
        assert argmax_token([1.0, 3.0, 2.0]) == 1

    def test_tie_breaks_low(self):
        assert argmax_token([5.0, 5.0, 0.0]) == 0

    def test_matches_softmax_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            logits = rng.normal(size=13)
            tau = rng.uniform(0.1, 3.0)
            assert argmax_token(logits) == int(
                np.argmax(softmax_with_temperature(logits, tau))
            )


class TestSampleToken:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_token([1.0, 0.0, 0.0], rng) == 0

    def test_frequency_fair_coin(self):
        rng = np.random.default_rng(12345)
        draws = np.array([sample_token([0.5, 0.5], rng) for _ in range(100_000)])
        freq = (draws == 0).mean()
        assert abs(freq - 0.5) < 0.01

    def test_deterministic_given_state(self):
        a = sample_token([0.3, 0.7], np.random.default_rng(42))
        b = sample_token([0.3, 0.7], np.random.default_rng(42))
        assert a == b

    def test_consumes_exactly_one_draw(self):
        rng1 = np.random.default_rng(77)
        rng2 = np.random.default_rng(77)
        sample_token([0.2, 0.3, 0.5], rng1)
        rng2.random()
        assert rng1.random() == rng2.random()

    def test_zero_probability_never_sampled(self):
        rng = np.random.default_rng(13)
        dist = [0.5, 0.0, 0.5]
        draws = {sample_token(dist, rng) for _ in range(5000)}
        assert 1 not in draws

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidDistributionError):
            sample_token([0.0, 0.0], np.random.default_rng(0))


class TestPipelineProperties:
    def test_zero_scale_pipeline_bitwise(self):
        # combine at 0, then softmax+nucleus: identical bytes to the base path
        rng = np.random.default_rng(21)
        for _ in range(100):
            base, expert, expert_base = rng.normal(size=(3, 15)) * 3
            via = nucleus_filter(
                softmax_with_temperature(
                    combine_logits(base, expert, expert_base, 0.0), 0.8
                ),
                0.9,
            )
            direct = nucleus_filter(softmax_with_temperature(base, 0.8), 0.9)
            assert via.tobytes() == direct.tobytes()

    def test_shift_leaves_argmax_and_distribution(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            base, expert, expert_base = rng.normal(size=(3, 10))
            combined = combine_logits(base, expert, expert_base, 1.0)
            shifted = combined + 3.7
            assert argmax_token(combined) == argmax_token(shifted)
            np.testing.assert_allclose(
                softmax_with_temperature(combined, 1.0),
                softmax_with_temperature(shifted, 1.0),
                atol=1e-9,
            )


# Distributions with exact ties (small integer weights) and with generic
# float weights; zeros are allowed as long as some mass remains.
weights = st.one_of(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=16),
    st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=16),
).filter(lambda w: sum(w) > 0)


def normalized(w) -> np.ndarray:
    arr = np.asarray(w, dtype=np.float64)
    return arr / arr.sum()


def rank(dist) -> list[int]:
    """Token ids by descending probability, ties by ascending id."""
    return sorted(range(len(dist)), key=lambda i: (-dist[i], i))


class TestNucleusProperties:
    @settings(max_examples=300, deadline=None)
    @given(w=weights, top_p=st.floats(min_value=1e-6, max_value=1.0))
    def test_keeps_minimal_ranked_head(self, w, top_p):
        dist = normalized(w)
        out = nucleus_filter(dist, top_p)
        kept = {i for i in range(dist.size) if out[i] > 0}
        order = rank(dist)
        # The kept tokens are the first len(kept) ranked ones, so among equal
        # probabilities the lowest ids are kept.
        assert kept == set(order[: len(kept)])
        head = [float(dist[i]) for i in order[: len(kept)]]
        if top_p == 1.0:
            # Full mass keeps the whole support, even where rounding lets a
            # shorter head sum to 1 (e.g. [1.0, 2.2e-309]).
            assert len(kept) == np.count_nonzero(dist)
            return
        # Minimal: without its last token the head misses top_p ...
        assert sum(head[:-1]) < top_p
        # ... and with it the head reaches top_p, unless rounding left the
        # whole support short of it.
        assert sum(head) >= top_p or len(kept) == np.count_nonzero(dist)

    @settings(max_examples=200, deadline=None)
    @given(w=weights, top_p=st.floats(min_value=1e-6, max_value=1.0))
    def test_renormalizes_the_kept_mass(self, w, top_p):
        dist = normalized(w)
        out = nucleus_filter(dist, top_p)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        kept = out > 0
        np.testing.assert_allclose(out[kept], dist[kept] / dist[kept].sum(), rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(w=weights)
    def test_full_mass_is_identity(self, w):
        dist = normalized(w)
        out = nucleus_filter(dist, 1.0)
        assert out.tobytes() == dist.tobytes()
        assert out is not dist


class TestSampleProperties:
    @settings(max_examples=300, deadline=None)
    @given(w=weights, seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_one_draw_and_a_supported_id(self, w, seed):
        dist = normalized(w)
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        token = sample_token(dist, rng)
        twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert 0 <= token < dist.size and dist[token] > 0
