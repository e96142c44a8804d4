"""The decode step core against a full-sort, full-cumsum reference.

``decode`` runs the private step core (one validation per scorer row, a
threshold head instead of a full sort, choice over the kept ids only).
The reference functions below are the straightforward full-vector steps;
every property here compares bytes, not values within a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltadecode import core, decoder
from deltadecode.core import (
    DecodeConfig,
    InvalidConfigError,
    InvalidDistributionError,
    _greedy,
    _nucleus,
    _sample,
    nucleus_filter,
    sample_token,
    softmax_with_temperature,
)
from deltadecode.decoder import decode, kl_divergence
from deltadecode.scorers import BigramMatrixScorer, build_vocab

JUST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


# -- reference steps: every one works on the whole vector ----------------


def ref_combine(b, e, eb, scale):
    if scale == 0.0:
        return b.copy()
    return b + scale * (e - eb)


def ref_softmax(logits, temperature):
    scaled = logits / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return probs


def ref_nucleus(probs, top_p):
    """Rank every id (descending, lowest id on ties) and cut at top_p."""
    if top_p == 1.0:
        return probs.copy()
    order = np.argsort(-probs, kind="stable")
    cumulative = np.cumsum(probs[order])
    cut = min(int(np.searchsorted(cumulative, top_p, side="left")), probs.size - 1)
    kept = order[: cut + 1]
    out = np.zeros_like(probs)
    out[kept] = probs[kept]
    out /= out.sum()
    return out


def ref_sample(probs, rng):
    """Cumsum over the whole vector; past its end, the highest supported id."""
    cumulative = np.cumsum(probs)
    idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
    if idx >= probs.size:
        idx = int(np.flatnonzero(probs > 0)[-1])
    return idx


def ref_decode(base, expert, expert_base, prompt, config, instrument):
    """The decode loop composed from the reference steps."""
    rng = np.random.default_rng(config.seed)
    context = list(prompt)
    rows = []
    for _ in range(config.max_tokens):
        b = base.score(context)
        if expert is not None:
            e, eb = expert.score(context), expert_base.score(context)
            logits = ref_combine(b, e, eb, config.delta_scale)
        else:
            logits = b
        dist = ref_nucleus(ref_softmax(logits, config.temperature), config.top_p)
        token = int(np.argmax(dist)) if config.mode == "greedy" else ref_sample(dist, rng)
        kl = None
        if "kl" in instrument:
            kl = kl_divergence(ref_softmax(b, config.temperature), dist)
        rows.append((token, float(np.log(dist[token])), kl))
        context.append(token)
        if token == base.vocab.eos:
            break
    return rows


class FixedDraw:
    """Stands in for a Generator whose next uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# -- distributions --------------------------------------------------------


def _softmax_rows(logits):
    return ref_softmax(np.asarray(logits, dtype=np.float64), 1.0)


@st.composite
def peaked(draw):
    """A few high ids over a long low tail, as decode sees at wide vocabularies."""
    n = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    logits = rng.normal(size=n) * draw(st.sampled_from([0.0, 0.01, 1.0])) - draw(
        st.floats(min_value=0, max_value=40)
    )
    k = draw(st.integers(min_value=1, max_value=min(n, 6)))
    logits[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
    return _softmax_rows(logits)


@st.composite
def flat(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    jitter = draw(st.sampled_from([0.0, 1e-12, 0.05]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return _softmax_rows(rng.normal(size=n) * jitter)


@st.composite
def with_zeros_and_ties(draw):
    """Small integer weights: exact ties and exact zeros."""
    w = draw(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40).filter(
            lambda w: sum(w) > 0
        )
    )
    arr = np.asarray(w, dtype=np.float64)
    return arr / arr.sum()


distributions = st.one_of(peaked(), flat(), with_zeros_and_ties())

top_ps = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.just(1.0),
    st.just(JUST_BELOW_ONE),
    st.floats(min_value=1e-12, max_value=1e-6).map(lambda eps: 1.0 - eps),
)


@st.composite
def tied_at_threshold(draw):
    """A distribution and the top_p whose head threshold is one of its entries."""
    dist = draw(distributions)
    i = draw(st.integers(min_value=0, max_value=dist.size - 1))
    top_p = 1.0 - dist.size * float(dist[i])
    if not 0 < top_p <= 1:
        top_p = 1.0
    return dist, top_p


@st.composite
def short_of_one(draw):
    """Public input whose mass is up to 1e-6 below 1, with top_p above that
    mass: the head never reaches top_p, so the full ranking decides."""
    dist = draw(distributions) * (1.0 - draw(st.floats(min_value=0.0, max_value=9e-7)))
    top_p = draw(st.floats(min_value=min(float(dist.sum()), JUST_BELOW_ONE), max_value=1.0))
    return dist, top_p


cases = st.one_of(st.tuples(distributions, top_ps), tied_at_threshold(), short_of_one())

EXAMPLES = [
    # Threshold (1 - top_p) / V == 0.125 exactly: the tied ids are candidates.
    (np.array([0.5, 0.125, 0.125, 0.125, 0.125]), 0.375),
    (np.array([0.25, 0.25, 0.125, 0.125, 0.125, 0.125]), 0.25),
    # The whole head is needed and the mass sums just short of top_p.
    (np.full(3, 1.0 / 3.0), JUST_BELOW_ONE),
    (np.array([0.5, 0.5 - 5e-7]), 1.0 - 1e-7),
    # Zeros inside the kept set once the fallback keeps everything.
    (np.array([0.0, 0.5 - 5e-7, 0.0, 0.5]), 1.0 - 1e-7),
    # A subnormal tail that rounding hides from the sum.
    (np.array([1.0, 2.2e-309]), JUST_BELOW_ONE),
    # The fallback keeps a trailing zero and the kept mass sums below 1, so
    # a draw near 1 takes the highest supported id, not the highest kept one.
    (np.array([13.0, 10.0, 6.0, 6.0, 1.0, 0.0]) / 36.0 * (1.0 - 5e-7), 1.0 - 1e-7),
]


def with_examples(**fixed):
    """Add every case in EXAMPLES, with ``fixed`` for the other arguments."""

    def decorate(test):
        for case in EXAMPLES:
            test = example(case=case, **fixed)(test)
        return test

    return decorate


class TestNucleusMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(case=cases)
    @with_examples()
    def test_public_filter_bytes(self, case):
        dist, top_p = case
        assert nucleus_filter(dist, top_p).tobytes() == ref_nucleus(dist, top_p).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=cases)
    @with_examples()
    def test_kept_ids_hold_all_the_mass(self, case):
        dist, top_p = case
        out, kept = _nucleus(dist, top_p)
        assert np.all(np.diff(kept) > 0)
        rest = np.ones(dist.size, dtype=bool)
        rest[kept] = False
        assert not out[rest].any()

    @settings(max_examples=100, deadline=None)
    @given(case=cases)
    def test_inputs_are_not_written(self, case):
        dist, top_p = case
        before = dist.tobytes()
        _nucleus(dist, top_p)
        nucleus_filter(dist, top_p)
        sample_token(dist, np.random.default_rng(0))
        assert dist.tobytes() == before


class TestChoiceMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(case=cases, seed=st.integers(min_value=0, max_value=2**64 - 1))
    @with_examples(seed=0)
    def test_sample_over_kept_ids(self, case, seed):
        dist, top_p = case
        filtered = ref_nucleus(dist, top_p)
        out, kept = _nucleus(dist, top_p)
        draws = [np.random.default_rng(seed) for _ in range(3)]
        expected = ref_sample(filtered, draws[0])
        assert _sample(out, kept, draws[1]) == expected
        assert sample_token(out, draws[2]) == expected
        assert draws[1].bit_generator.state == draws[0].bit_generator.state
        assert draws[2].bit_generator.state == draws[0].bit_generator.state

    @settings(max_examples=400, deadline=None)
    @given(case=cases, u=st.floats(min_value=0.0, max_value=JUST_BELOW_ONE))
    @with_examples(u=JUST_BELOW_ONE)
    @example(case=(np.full(3, 1.0 / 3.0), 1.0), u=JUST_BELOW_ONE)
    def test_sample_at_any_draw(self, case, u):
        # Draws near 1 land past a cumsum that rounds short of 1 and take
        # the highest-id fallback.
        dist, top_p = case
        out, kept = _nucleus(dist, top_p)
        expected = ref_sample(ref_nucleus(dist, top_p), FixedDraw(u))
        assert _sample(out, kept, FixedDraw(u)) == expected
        assert sample_token(dist, FixedDraw(u)) == ref_sample(dist, FixedDraw(u))

    @settings(max_examples=400, deadline=None)
    @given(case=cases)
    @with_examples()
    def test_greedy_over_kept_ids(self, case):
        dist, top_p = case
        out, kept = _nucleus(dist, top_p)
        assert _greedy(out, kept) == int(np.argmax(ref_nucleus(dist, top_p)))


@st.composite
def decode_setups(draw):
    """Peaked random bigram scorers and a config to decode them under."""
    vocab = build_vocab([[f"t{i}" for i in range(draw(st.integers(min_value=1, max_value=120)))]])
    n = vocab.size
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    gap = draw(st.floats(min_value=0, max_value=30))

    def matrix():
        m = rng.normal(size=(n, n)) - gap
        for row in m:
            row[rng.choice(n, size=min(n, 3), replace=False)] = rng.normal(size=min(n, 3))
        return m

    base, expert, expert_base = (BigramMatrixScorer(vocab, matrix(), name=r) for r in "abc")
    guided = draw(st.booleans())
    config = DecodeConfig(
        delta_scale=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        temperature=draw(st.sampled_from([1.0, 0.7, 1.3])),
        top_p=draw(top_ps),
        max_tokens=draw(st.integers(min_value=1, max_value=24)),
        mode=draw(st.sampled_from(["greedy", "sample"])),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    instrument = draw(st.sampled_from([(), ("kl",)]))
    prompt = [int(rng.integers(0, n))]
    scorers = (base, expert, expert_base) if guided else (base, None, None)
    return scorers, prompt, config, instrument


def float_bits(x):
    return None if x is None else np.float64(x).tobytes()


class TestDecodeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(setup=decode_setups())
    def test_tokens_logprobs_and_instruments(self, setup):
        scorers, prompt, config, instrument = setup
        trajectory = decode(*scorers, prompt=prompt, config=config, instrument=instrument)
        got = [
            (s.token, s.chosen_logprob, s.kl_base_vs_combined) for s in trajectory.generated
        ]
        expected = ref_decode(*scorers, prompt, config, instrument)
        assert [r[0] for r in got] == [r[0] for r in expected]
        assert [[float_bits(x) for x in r[1:]] for r in got] == [
            [float_bits(x) for x in r[1:]] for r in expected
        ]


class TestValidatesOncePerRow:
    """``as_logits``/``as_distribution`` as bound in ``core`` and ``decoder``."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"as_logits": 0, "as_distribution": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        for module in (core, decoder):
            for name in counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    def scorers(self):
        vocab = build_vocab([[f"t{i}" for i in range(50)]])
        n = vocab.size
        rng = np.random.default_rng(5)
        # eos (the last id) never wins, so every decode runs to max_tokens.
        mats = rng.normal(size=(3, n, n))
        mats[:, :, vocab.eos] = -1e3
        return [BigramMatrixScorer(vocab, m, name=r) for m, r in zip(mats, "abc")]

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("instrument", [(), ("kl",)])
    def test_guided_validates_three_rows_per_token(self, counts, mode, instrument):
        config = DecodeConfig(max_tokens=40, mode=mode, top_p=0.9)
        t = decode(*self.scorers(), prompt=[1], config=config, instrument=instrument)
        assert len(t.generated) == 40
        assert counts == {"as_logits": 3 * 40, "as_distribution": 0}

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_base_only_validates_one_row_per_token(self, counts, mode):
        config = DecodeConfig(max_tokens=40, mode=mode, top_p=0.9)
        t = decode(self.scorers()[0], prompt=[1], config=config, instrument=("kl",))
        assert len(t.generated) == 40
        assert counts == {"as_logits": 40, "as_distribution": 0}


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
class TestSoftmaxOverflow:
    """Finite logits over a tiny temperature overflow to +-inf, and
    inf - inf is NaN: the softmax raises instead of returning it."""

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("guided", [False, True])
    def test_decode_raises(self, mode, guided):
        vocab = build_vocab([["a", "b", "c"]])
        m = np.arange(vocab.size**2, dtype=np.float64).reshape(vocab.size, vocab.size)
        scorers = [BigramMatrixScorer(vocab, m + k, name=r) for k, r in enumerate("abc")]
        config = DecodeConfig(temperature=1e-310, mode=mode, max_tokens=3)
        with pytest.raises(InvalidDistributionError, match="overflowed"):
            decode(*(scorers if guided else scorers[:1]), prompt=[0], config=config)

    @pytest.mark.parametrize("logits", [[1.0, 2.0], [-1.0, -2.0], [1.0, 1.0]])
    def test_public_softmax_raises(self, logits):
        with pytest.raises(InvalidDistributionError, match="overflowed"):
            softmax_with_temperature(logits, 1e-310)

    def test_public_softmax_keeps_a_finite_overflow(self):
        # A max of 0 and -inf elsewhere is still a distribution: a point mass.
        out = softmax_with_temperature([0.0, -1.0], 1e-310)
        assert out.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, 0.0, -1.0])
    def test_public_softmax_rejects_temperature(self, temperature):
        with pytest.raises(InvalidConfigError, match="temperature"):
            softmax_with_temperature([1.0, 2.0], temperature)
