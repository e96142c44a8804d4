"""The decode step core against a full-sort, full-cumsum reference.

``decode`` runs the private step core (one validation per scorer row, a
threshold head instead of a full sort, choice over the kept ids only).
The reference functions below are the straightforward full-vector steps;
every property here compares bytes, not values within a tolerance.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltadecode import core, decoder
from deltadecode.core import (
    DecodeConfig,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
    _greedy,
    _nucleus,
    _nucleus_rows,
    _sample,
    _sample_rows,
    _softmax,
    _weights,
    nucleus_filter,
    sample_token,
    softmax_with_temperature,
)
from deltadecode.decoder import DecodeError, decode, kl_divergence
from deltadecode.scorers import BigramMatrixScorer, Scorer, build_vocab

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
    # Id 1 sits a hair under the threshold 0.125: the margin makes it a
    # candidate, and the exact quotient then drops it from the head.
    (np.array([0.6, 0.125 * (1 - 1e-12), 0.0, 0.4 - 0.125 * (1 - 1e-12)]), 0.5),
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
        out, kept = _nucleus(dist, 1.0, top_p)
        assert np.all(np.diff(kept) > 0)
        rest = np.ones(dist.size, dtype=bool)
        rest[kept] = False
        assert not out[rest].any()

    @settings(max_examples=100, deadline=None)
    @given(case=cases)
    def test_inputs_are_not_written(self, case):
        dist, top_p = case
        before = dist.tobytes()
        _nucleus(dist, 1.0, top_p)
        nucleus_filter(dist, top_p)
        sample_token(dist, np.random.default_rng(0))
        assert dist.tobytes() == before


class TestNucleusHeadGuards:
    """Weights (as ``_weights`` returns them, with their sum) on which
    dropping either guard of the head's candidate set changes the kept id.
    Both cases tie two quotients across a candidate boundary, so the full
    ranking puts the lower id first."""

    @staticmethod
    def assert_matches_reference(weights, top_p):
        total = float(weights.sum())
        got = _nucleus(weights, total, top_p)[0]
        assert got.tobytes() == ref_nucleus(weights / total, top_p).tobytes()

    def test_margin_admits_an_id_at_the_threshold(self):
        # All three quotients are fl(1/3), which is also the threshold, but
        # id 0 sits one ulp under fl(threshold * total) == 1.0: only the
        # (1 - 1e-9) margin makes it a candidate, and it ranks first.
        weights = np.array([1.0 - 2.0**-53, 1.0, 1.0])
        assert len(set((weights / weights.sum()).tolist())) == 1
        self.assert_matches_reference(weights, 1e-20)

    def test_quotient_filter_drops_margin_candidates(self):
        # Ids 1 and 2 are adjacent doubles whose quotients tie just under
        # the threshold; only id 2 clears the margin. Rounding leaves ids
        # 3-5 short of top_p, so an unfiltered head would end at id 2,
        # where the full ranking has id 1.
        weights = np.array([
            1.864091613934923e-16, 1.8640916150822953e-16, 1.8640916150822956e-16,
            1.0, 0.7240254178024375, 0.96241372186611,
            1.8640916142485574e-16, 1.8640916135681762e-16,
        ])
        quotients = weights / weights.sum()
        assert quotients[1] == quotients[2]
        self.assert_matches_reference(weights, 0.9999999999999994)


@st.composite
def logit_rows(draw, max_size=4000):
    """Peaked, flat or tied logit rows of 1 to ``max_size`` entries."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["peaked", "flat", "tied"]))
    if shape == "peaked":
        logits = rng.normal(size=n) - draw(st.floats(min_value=0, max_value=40))
        k = min(n, draw(st.integers(min_value=1, max_value=8)))
        logits[rng.choice(n, size=k, replace=False)] = rng.normal(size=k) * 3
    elif shape == "flat":
        logits = rng.normal(size=n) * draw(st.sampled_from([0.0, 1e-12, 0.05]))
    else:
        logits = rng.integers(-3, 2, size=n).astype(np.float64)
    return logits


def wide_peaked_row(n=32768, seed=3):
    """A decode-wide row: a few ids far above a low tail."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=n) - 20.0
    logits[rng.choice(n, size=8, replace=False)] = rng.normal(size=8) * 3
    return logits


class TestWeightsMatchReference:
    """``_weights`` then ``_nucleus`` on the unnormalised weights give the
    bytes of the full-vector softmax then nucleus."""

    @settings(max_examples=400, deadline=None)
    @given(
        logits=logit_rows(),
        temperature=st.sampled_from([0.7, 1.0, 1.3]),
        top_p=top_ps,
    )
    @example(logits=wide_peaked_row(), temperature=1.0, top_p=0.95)
    @example(logits=wide_peaked_row(), temperature=0.7, top_p=1.0 - 1e-12)
    @example(logits=np.zeros(32768), temperature=1.3, top_p=0.9)
    @example(logits=np.array([0.0, -745.2]), temperature=1.0, top_p=JUST_BELOW_ONE)
    def test_bytes(self, logits, temperature, top_p):
        before = logits.tobytes()
        weights, total = _weights(logits, temperature, np.empty(logits.size))
        assert total >= 1.0
        out, kept = _nucleus(weights, total, top_p)
        expected = ref_nucleus(ref_softmax(logits, temperature), top_p)
        assert out.tobytes() == expected.tobytes()
        assert logits.tobytes() == before
        rest = np.ones(logits.size, dtype=bool)
        rest[kept] = False
        assert not out[rest].any()

    @settings(max_examples=100, deadline=None)
    @given(logits=logit_rows(max_size=500), temperature=st.sampled_from([0.7, 1.0, 1.3]))
    def test_in_place(self, logits, temperature):
        weights, total = _weights(logits, temperature, np.empty(logits.size))
        work = logits.copy()
        in_place, same_total = _weights(work, temperature, work)
        assert in_place is work
        assert (in_place.tobytes(), same_total) == (weights.tobytes(), total)
        assert _softmax(logits, temperature).tobytes() == ref_softmax(logits, temperature).tobytes()


class TestChoiceMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(case=cases, seed=st.integers(min_value=0, max_value=2**64 - 1))
    @with_examples(seed=0)
    def test_sample_over_kept_ids(self, case, seed):
        dist, top_p = case
        filtered = ref_nucleus(dist, top_p)
        out, kept = _nucleus(dist, 1.0, top_p)
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
        out, kept = _nucleus(dist, 1.0, top_p)
        expected = ref_sample(ref_nucleus(dist, top_p), FixedDraw(u))
        assert _sample(out, kept, FixedDraw(u)) == expected
        assert sample_token(dist, FixedDraw(u)) == ref_sample(dist, FixedDraw(u))

    @settings(max_examples=400, deadline=None)
    @given(case=cases)
    @with_examples()
    def test_greedy_over_kept_ids(self, case):
        dist, top_p = case
        out, kept = _nucleus(dist, 1.0, top_p)
        assert _greedy(out, kept) == int(np.argmax(ref_nucleus(dist, top_p)))


@st.composite
def decode_setups(draw, delta_scale=None):
    """Peaked random bigram scorers and a config to decode them under; with
    ``delta_scale`` given, guided by that scale."""
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
    guided = delta_scale is not None or draw(st.booleans())
    if delta_scale is None:
        delta_scale = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    config = DecodeConfig(
        delta_scale=delta_scale,
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


def assert_decode_matches_reference(setup):
    scorers, prompt, config, instrument = setup
    trajectory = decode(*scorers, prompt=prompt, config=config, instrument=instrument)
    got = [(s.token, s.chosen_logprob, s.kl_base_vs_combined) for s in trajectory.generated]
    expected = ref_decode(*scorers, prompt, config, instrument)
    assert [r[0] for r in got] == [r[0] for r in expected]
    assert [[float_bits(x) for x in r[1:]] for r in got] == [
        [float_bits(x) for x in r[1:]] for r in expected
    ]


class TestDecodeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(setup=decode_setups())
    def test_tokens_logprobs_and_instruments(self, setup):
        assert_decode_matches_reference(setup)

    # One work buffer serves every step of a decode: no step may read what
    # an earlier one left in it.
    @pytest.mark.parametrize("delta_scale", [0.0, 0.5, 1.0, 2.0])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_scale_guided(self, delta_scale, data):
        assert_decode_matches_reference(data.draw(decode_setups(delta_scale)))


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
        # With delta_scale > 0 the three rows are checked for shape and
        # size alone, and for finite values through the one check of the
        # combined row: as_logits runs only when that check fails.
        config = DecodeConfig(max_tokens=40, mode=mode, top_p=0.9)
        t = decode(*self.scorers(), prompt=[1], config=config, instrument=instrument)
        assert len(t.generated) == 40
        assert counts == {"as_logits": 0, "as_distribution": 0}

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_zero_scale_validates_each_row(self, counts, mode):
        config = DecodeConfig(delta_scale=0.0, max_tokens=40, mode=mode, top_p=0.9)
        t = decode(*self.scorers(), prompt=[1], config=config)
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


class RowScorer(Scorer):
    """Row ``prefix[-1]`` of a read-only matrix, a read-only view each call.

    From step ``bad_at`` on (one-token prompts), entry 0 of the row is
    ``bad`` instead, still in a read-only array.
    """

    kind = "rows"

    def __init__(self, vocab, matrix, name, bad=None, bad_at=0):
        super().__init__(vocab, name=name)
        self.matrix = np.array(matrix, dtype=np.float64)
        self.matrix.setflags(write=False)
        self.bad = bad
        self.bad_at = bad_at

    def score(self, prefix):
        row = self.matrix[prefix[-1]]
        if self.bad is None or len(prefix) - 1 < self.bad_at:
            return row
        out = row.copy()
        out[0] = self.bad
        out.setflags(write=False)
        return out


ROLES = ("base", "expert", "expert_base")


def row_scorers(bad=None, bad_at=2):
    """Three read-only bigram scorers named by role; ``bad`` maps a role to
    the value its row carries from step ``bad_at`` on."""
    vocab = build_vocab([[f"t{i}" for i in range(12)]])
    rng = np.random.default_rng(11)
    mats = rng.normal(size=(3, vocab.size, vocab.size))
    mats[:, :, vocab.eos] = -50.0  # eos never wins: every decode runs to max_tokens
    bad = bad or {}
    return [
        RowScorer(vocab, m, name=role, bad=bad.get(role), bad_at=bad_at)
        for m, role in zip(mats, ROLES)
    ]


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
class TestBadRows:
    """A guided step reports a non-finite scorer row by name and step,
    whichever row carries it and whatever it is."""

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"base": math.nan}, "base"),
            ({"expert": math.inf}, "expert"),
            ({"expert_base": -math.inf}, "expert_base"),
            # inf - inf is NaN in the difference; expert is checked first.
            ({"expert": math.inf, "expert_base": math.inf}, "expert"),
            ({"expert": -math.inf, "expert_base": -math.inf}, "expert"),
            ({"base": math.inf, "expert_base": math.nan}, "base"),
        ],
        ids=["nan-base", "inf-expert", "neg-inf-expert-base", "inf-minus-inf", "neg-inf-both", "base-first"],
    )
    @pytest.mark.parametrize("delta_scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_guided_names_row_and_step(self, bad, named, delta_scale, mode):
        config = DecodeConfig(delta_scale=delta_scale, max_tokens=6, mode=mode, top_p=0.9)
        message = f"scorer '{named}' returned bad logits at step 2: logits contain non-finite values"
        with pytest.raises(DecodeError, match=re.escape(message)):
            decode(*row_scorers(bad), prompt=[1], config=config)

    @pytest.mark.parametrize("role", ["expert", "expert_base"])
    def test_zero_scale_still_names_row(self, role):
        config = DecodeConfig(delta_scale=0.0, max_tokens=6)
        message = f"scorer '{role}' returned bad logits at step 2: logits contain non-finite values"
        with pytest.raises(DecodeError, match=re.escape(message)):
            decode(*row_scorers({role: math.nan}), prompt=[1], config=config)

    def test_base_only_names_row(self):
        message = "scorer 'base' returned bad logits at step 2: logits contain non-finite values"
        with pytest.raises(DecodeError, match=re.escape(message)):
            decode(row_scorers({"base": -math.inf})[0], prompt=[1], config=DecodeConfig(max_tokens=6))

    @pytest.mark.parametrize(
        "big", [{"expert": 1.7e308, "expert_base": -1.7e308}, {"base": 1.7e308, "expert": 1.7e308}]
    )
    def test_finite_rows_that_overflow(self, big):
        config = DecodeConfig(delta_scale=1.0, max_tokens=6)
        with pytest.raises(InvalidLogitsError, match="combined logits overflowed"):
            decode(*row_scorers(big), prompt=[1], config=config)


class TestReadOnlyRows:
    """Scorer rows may be read-only views; decode writes into none of them."""

    @pytest.mark.parametrize(
        "guided, changes, instrument",
        [
            (False, {}, ()),
            (True, {"delta_scale": 0.0}, ()),
            (True, {}, ()),
            (True, {"delta_scale": 2.0, "temperature": 0.7}, ()),
            (False, {"temperature": 1.3}, ()),
            (True, {}, ("kl",)),
            (False, {"top_p": 1.0}, ("kl",)),
        ],
        ids=["base-only", "zero-scale", "guided", "temperature", "base-temperature", "kl", "base-kl"],
    )
    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_rows_unchanged(self, guided, changes, instrument, mode):
        scorers = row_scorers()
        before = [s.matrix.tobytes() for s in scorers]
        config = DecodeConfig(max_tokens=30, mode=mode, top_p=0.9, seed=3).replace(**changes)
        used = scorers if guided else scorers[:1]
        t = decode(*used, prompt=[1], config=config, instrument=instrument)
        assert len(t.generated) == 30
        assert [s.matrix.tobytes() for s in scorers] == before
        expected = ref_decode(*(used if guided else (used[0], None, None)), [1], config, instrument)
        assert [(s.token, float_bits(s.chosen_logprob)) for s in t.generated] == [
            (r[0], float_bits(r[1])) for r in expected
        ]


# -- lockstep: one prompt, many seeds, stepped as one block ----------------


class TestBatchedStepsMatchOneRow:
    """A one-row block through ``_nucleus_rows`` and ``_sample_rows`` gives
    the bytes and ids ``_nucleus`` and ``_sample`` give the row, at every
    boundary: a cumsum equal to top_p, a draw equal to a cumsum, and a
    draw past a cumsum that rounds short of 1."""

    # The cumsum of the first ``kept`` ranked ids is exactly top_p.
    BOUNDARIES = [
        (np.array([0.5, 0.25, 0.25]), 0.5, 1),
        (np.array([0.25, 0.25, 0.5]), 0.75, 2),
    ]

    @settings(max_examples=400, deadline=None)
    @given(case=cases)
    @with_examples()
    def test_nucleus(self, case):
        dist, top_p = case
        got = _nucleus_rows(dist[None, :], np.ones(1), top_p)
        assert got[0].tobytes() == _nucleus(dist, 1.0, top_p)[0].tobytes()

    @pytest.mark.parametrize("dist, top_p, kept", BOUNDARIES)
    def test_nucleus_at_top_p(self, dist, top_p, kept):
        got = _nucleus_rows(dist[None, :], np.ones(1), top_p)[0]
        assert got.tobytes() == _nucleus(dist, 1.0, top_p)[0].tobytes()
        assert np.count_nonzero(got) == kept

    @settings(max_examples=400, deadline=None)
    @given(case=cases, u=st.floats(min_value=0.0, max_value=JUST_BELOW_ONE))
    @with_examples(u=JUST_BELOW_ONE)
    def test_sample(self, case, u):
        dist, top_p = case
        out, kept = _nucleus(dist, 1.0, top_p)
        assert _sample_rows(out[None, :], [FixedDraw(u)])[0] == _sample(out, kept, FixedDraw(u))

    @pytest.mark.parametrize(
        "dist, u, token",
        [
            # u equal to a cumulative value passes it (searchsorted right).
            (np.array([0.25, 0.25, 0.5]), 0.25, 1),
            (np.array([0.25, 0.25, 0.5]), 0.5, 2),
            # Past a cumsum short of 1: the highest supported id, not the last id.
            (np.array([0.5, 0.5 - 1e-9, 0.0]), JUST_BELOW_ONE, 1),
        ],
    )
    def test_sample_at_a_cumulative_value(self, dist, u, token):
        kept = np.arange(dist.size)
        assert _sample(dist, kept, FixedDraw(u)) == token
        assert _sample_rows(dist[None, :], [FixedDraw(u)])[0] == token


@st.composite
def lockstep_setups(draw):
    """Bigram scorers over a small vocabulary whose rows have ties, one-hot
    peaks, random values, or random values with exact zeros in their
    softmax; a config, seeds for up to a dozen rows, and kl on or off."""
    vocab = build_vocab([[f"t{i}" for i in range(draw(st.integers(min_value=1, max_value=30)))]])
    n = vocab.size
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def matrix():
        shape = draw(st.sampled_from(["normal", "tied", "one-hot", "zeros"]))
        if shape == "normal":
            return rng.normal(size=(n, n)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
        if shape == "zeros":  # exact zeros among the softmax entries
            m = rng.normal(size=(n, n))
            m[rng.random(size=(n, n)) < 0.5] = -800.0
            return m
        if shape == "tied":
            return rng.integers(-3, 2, size=(n, n)).astype(np.float64)
        m = np.zeros((n, n))
        m[np.arange(n), rng.integers(0, n, size=n)] = draw(st.sampled_from([1.0, 30.0, 800.0]))
        return m

    base, expert, expert_base = (BigramMatrixScorer(vocab, matrix(), name=r) for r in "abc")
    guided = draw(st.booleans())
    config = DecodeConfig(
        delta_scale=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        temperature=draw(st.sampled_from([1.0, 0.7, 1.3])),
        top_p=draw(top_ps),
        max_tokens=draw(st.integers(min_value=1, max_value=12)),
        mode=draw(st.sampled_from(["greedy", "sample"])),
    )
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=12))
    instrument = draw(st.sampled_from([(), ("kl",)]))
    scorers = (base, expert, expert_base) if guided else (base, None, None)
    return scorers, [int(rng.integers(0, n))], config, seeds, instrument


def step_bits(trajectory):
    return trajectory.stop_reason, [
        (s.token, float_bits(s.chosen_logprob), float_bits(s.kl_base_vs_combined))
        for s in trajectory.generated
    ]


def assert_lockstep_matches_decode(scorers, prompt, config, seeds, instrument):
    rows = list(
        decoder._decode_lockstep(
            *scorers, prompt=prompt, config=config, seeds=seeds, instrument=instrument
        )
    )
    assert sorted(row for row, _ in rows) == list(range(len(seeds)))
    for row, trajectory in rows:
        expected = decode(
            *scorers, prompt=prompt, config=config.replace(seed=seeds[row]), instrument=instrument
        )
        assert step_bits(trajectory) == step_bits(expected)
        assert trajectory == expected


class TestLockstepMatchesDecode:
    """``_decode_lockstep`` gives each seed's row the bytes ``decode`` gives
    that seed: tokens, logprob and kl bits, and the stop reason."""

    @settings(max_examples=300, deadline=None)
    @given(setup=lockstep_setups())
    def test_each_row_is_its_decode(self, setup):
        assert_lockstep_matches_decode(*setup)

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_kl_with_exact_zeros_in_the_base_softmax(self, mode):
        # Every odd id's base logit is 800 below the rest, so its softmax
        # entry is an exact 0 and kl sums only the even ids' terms; summing
        # all V terms with zeros in between groups them differently, and
        # changes the bits at this size.
        vocab = build_vocab([[f"t{i}" for i in range(38)]])
        n = vocab.size
        rng = np.random.default_rng(4)
        m = rng.normal(size=(n, n))
        m[:, 1::2] = -800.0
        base = BigramMatrixScorer(vocab, m, name="a")
        assert (_softmax(base.score([0]), 1.0)[1::2] == 0).all()
        pair = [BigramMatrixScorer(vocab, rng.normal(size=(n, n)), name=r) for r in "bc"]
        config = DecodeConfig(top_p=0.9, max_tokens=10, mode=mode)
        for scorers in ((base, None, None), (base, *pair)):
            assert_lockstep_matches_decode(scorers, [0], config, list(range(9)), ("kl",))

    def test_rows_leave_the_block_at_eos(self):
        vocab = build_vocab([["a", "b"]])
        m = np.zeros((vocab.size, vocab.size))
        m[:, vocab.eos] = 0.5  # every step may stop, so rows stop apart
        scorer = BigramMatrixScorer(vocab, m)
        config = DecodeConfig(top_p=1.0, max_tokens=20)
        rows = list(decoder._decode_lockstep(scorer, prompt=[0], config=config, seeds=range(12)))
        lengths = [len(t.generated) for _, t in rows]
        assert lengths == sorted(lengths) and len(set(lengths)) > 2
        assert_lockstep_matches_decode((scorer, None, None), [0], config, list(range(12)), ())


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
class TestLockstepChecks:
    """A block is checked as ``decode`` checks each row, with its messages."""

    @staticmethod
    def assert_same_error(scorers, config, error=DecodeError):
        with pytest.raises(error) as expected:
            decode(*scorers, prompt=[1], config=config)
        with pytest.raises(error) as got:
            list(decoder._decode_lockstep(*scorers, prompt=[1], config=config, seeds=[5, 6, 7]))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "bad", [{"base": math.nan}, {"expert": math.inf}, {"expert_base": -math.inf},
                {"expert": math.inf, "expert_base": math.inf}, {"base": math.inf, "expert_base": math.nan}],
    )
    @pytest.mark.parametrize("delta_scale", [0.0, 1.0, 2.0])
    def test_bad_row_named_by_role_and_step(self, bad, delta_scale):
        config = DecodeConfig(delta_scale=delta_scale, max_tokens=6, top_p=0.9)
        self.assert_same_error(row_scorers(bad), config)

    def test_base_only_block_is_checked(self):
        config = DecodeConfig(max_tokens=6)
        self.assert_same_error(row_scorers({"base": -math.inf})[:1], config)

    @pytest.mark.parametrize(
        "big", [{"expert": 1.7e308, "expert_base": -1.7e308}, {"base": 1.7e308, "expert": 1.7e308}]
    )
    def test_finite_rows_that_overflow(self, big):
        config = DecodeConfig(delta_scale=1.0, max_tokens=6)
        self.assert_same_error(row_scorers(big), config, InvalidLogitsError)

    def test_softmax_overflow(self):
        config = DecodeConfig(temperature=1e-310, max_tokens=3)
        self.assert_same_error(row_scorers(), config, InvalidDistributionError)

    def test_scorer_exception_named(self):
        class Failing(RowScorer):
            def score(self, prefix):
                if len(prefix) > 3:
                    raise RuntimeError("lost the model")
                return super().score(prefix)

        scorers = row_scorers()
        failing = Failing(scorers[1].vocab, scorers[1].matrix, name="expert")
        config = DecodeConfig(max_tokens=6)
        self.assert_same_error([scorers[0], failing, scorers[2]], config)

    def test_wrong_block_shape_named(self):
        class Short(RowScorer):
            def _score_rows(self, prefixes):
                return super()._score_rows(prefixes)[:, 1:]

        scorers = row_scorers()
        short = Short(scorers[0].vocab, scorers[0].matrix, name="base")
        message = "scorer 'base' returned bad logits at step 0: expected 3 rows of 14 logits"
        with pytest.raises(DecodeError, match=re.escape(message)):
            list(decoder._decode_lockstep(short, prompt=[1], config=DecodeConfig(), seeds=[1, 2, 3]))

    def test_rows_unchanged(self):
        scorers = row_scorers()
        before = [s.matrix.tobytes() for s in scorers]
        config = DecodeConfig(max_tokens=30, top_p=0.9)
        for used in (scorers, scorers[:1]):
            rows = list(decoder._decode_lockstep(*used, prompt=[1], config=config, seeds=range(4), instrument=("kl",)))
            assert len(rows) == 4
        assert [s.matrix.tobytes() for s in scorers] == before
