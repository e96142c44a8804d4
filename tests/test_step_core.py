"""The decode step core against a full-sort, full-cumsum reference.

``decode`` runs the private step core (one validation per scorer row, a
threshold head instead of a full sort, a sort of values rather than ids
when every id is a candidate, choice over the kept ids only, or over the
whole vector with no copy when every id is kept).
The reference functions below are the straightforward full-vector steps;
every property here compares bytes, not values within a tolerance.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltadecode import core, decoder
from deltadecode.core import (
    DecodeConfig,
    TokenPrefix,
    Vocabulary,
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
from deltadecode.scorers import (
    BigramMatrixScorer,
    ConstantScorer,
    NGramModel,
    Scorer,
    TableScorer,
    build_vocab,
    train_ngram,
)

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
        out, kept = _nucleus(dist, 1.0, top_p, np.zeros(dist.size))
        assert np.all(np.diff(kept) > 0)
        rest = np.ones(dist.size, dtype=bool)
        rest[kept] = False
        assert not out[rest].any()

    @settings(max_examples=100, deadline=None)
    @given(case=cases)
    def test_inputs_are_not_written(self, case):
        dist, top_p = case
        before = dist.tobytes()
        _nucleus(dist, 1.0, top_p, np.zeros(dist.size))
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
        got = _nucleus(weights, total, top_p, np.zeros(weights.size))[0]
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


# -- the head from a sparse step's lanes ------------------------------------


def lane_row(size, ids, lane_weights, fill):
    """A sparse step's weights (``fill`` at every id outside the ascending
    ``ids``), their sum, and the lanes ``decoder._sparse_weights`` gives
    ``_nucleus`` for them: None when the ids cover the vocabulary."""
    ids = np.asarray(ids, dtype=np.intp)
    lane_weights = np.asarray(lane_weights, dtype=np.float64)
    weights = np.full(size, np.float64(fill))
    weights[ids] = lane_weights
    lanes = (ids, lane_weights, np.float64(fill)) if ids.size < size else None
    return weights, float(weights.sum()), lanes


# Where the fill weight sits against the head's candidate floor
# ``(1 - top_p) / V * total * (1 - 1e-9)``, as floor = fill * factor: the
# fill well and just under the floor (the lanes give the candidates), at
# it, over it by less than the margin, and well over it (the dense
# candidates decide).
FLOOR_OVER_FILL = [2.0, 1.0 + 1e-6, 1.0, 1.0 - 5e-10, 0.5]


@st.composite
def lane_cases(draw):
    """Lanes as a sparse step leaves them, and a top_p.

    The largest weight is exactly 1, as exp(0) makes it: in a lane, or in
    the fill when no id is counted. Few distinct lane weights make ties,
    among lanes and with the fill; U runs from empty to every id.
    """
    size = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ids = np.sort(rng.choice(size, draw(st.integers(min_value=0, max_value=size)), replace=False))
    levels = rng.uniform(0.0, 1.0, draw(st.integers(min_value=1, max_value=4)))
    lane_weights = levels[rng.integers(0, levels.size, ids.size)]
    if ids.size:
        lane_weights[rng.integers(ids.size)] = 1.0
        fill = draw(st.sampled_from([float(levels[0]), 1e-300, 1e-12]) | st.floats(1e-300, 1.0))
    else:
        fill = 1.0
    weights, total, lanes = lane_row(size, ids, lane_weights, fill)
    factor = draw(st.sampled_from(FLOOR_OVER_FILL) | st.none())
    if factor is None:
        top_p = draw(top_ps)
    else:
        top_p = 1.0 - size * fill * factor / (total * (1.0 - 1e-9))
        top_p = min(max(top_p, 1e-9), 1.0)
    return weights, total, lanes, top_p


class TestLaneHead:
    """The head a sparse step finds from its lanes is the dense one."""

    @settings(max_examples=600, deadline=None)
    @given(case=lane_cases())
    # The lane head rounds short of top_p: the dense fallback decides.
    @example(case=(*lane_row(
        7, [0, 1, 2, 3, 5, 6],
        [0.36058182743604117, 0.6140195186293923, 0.24319896876956437,
         0.48626753374081727, 0.2830384365568139, 1.0],
        3.569496770145993e-19,
    ), JUST_BELOW_ONE))
    # No id counted: the fill is the max and a candidate.
    @example(case=(*lane_row(5, [], [], 1.0), 0.9))
    # Every id counted: no lanes, so the dense candidates decide.
    @example(case=(*lane_row(3, [0, 1, 2], [1.0, 0.5, 0.5], 0.0), 0.7))
    def test_equals_the_dense_nucleus(self, case):
        weights, total, lanes, top_p = case
        row = np.zeros(weights.size)
        dist, kept = _nucleus(weights, total, top_p, row, lanes)
        dense, dense_kept = _nucleus(weights, total, top_p, np.zeros(weights.size))
        assert dist.tobytes() == dense.tobytes() == ref_nucleus(weights / total, top_p).tobytes()
        assert kept.tobytes() == dense_kept.tobytes()
        # The row holds the nucleus at the kept ids only, so zeroing them
        # there readies it for the next step.
        if dist is row:
            row[kept] = 0.0
        assert not row.any()


# -- the full path, ranked by value -----------------------------------------


@st.composite
def tied_rows(draw):
    """A distribution of 2 to 6 distinct values over up to 2048 ids, one of
    them maybe exactly zero, and a top_p that puts the cut inside a tied
    run (with every id a candidate), on the last id, or past it."""
    size = draw(st.integers(min_value=2, max_value=2048))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = rng.uniform(0.5, 1.5, draw(st.integers(min_value=2, max_value=6)))
    if draw(st.booleans()):
        levels[0] = 0.0
    weights = levels[rng.integers(0, levels.size, size)]
    weights[rng.integers(size)] = levels.max()
    dist = weights / weights.sum()
    cumulative = np.cumsum(np.sort(dist)[::-1])
    where = draw(st.sampled_from(["inside", "last", "past"]))
    if where == "inside":
        # Every id is a candidate once top_p >= 1 - V * (least probability).
        first = int(np.searchsorted(cumulative, 1.0 - size * dist[dist > 0].min()))
        j = draw(st.integers(min_value=min(first, size - 1), max_value=size - 1))
        top_p = float(cumulative[j])
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            top_p = float(np.nextafter(top_p, draw(st.sampled_from([0.0, 2.0]))))
    elif where == "last":
        top_p = float(np.nextafter(cumulative[-2], 2.0))
    else:
        dist = dist * (1.0 - 5e-7)
        top_p = draw(st.sampled_from([1.0 - 1e-7, JUST_BELOW_ONE]))
    return dist, min(max(top_p, 1e-9), 1.0)


def flat_tied_row(size=1024, distinct=5, seed=7):
    """Near-flat n-gram-like weights of a few distinct values, as
    ``decode-long`` steps see them: every id a nucleus candidate."""
    rng = np.random.default_rng(seed)
    levels = np.exp(rng.uniform(-0.3, 0.0, distinct))
    weights = levels[rng.integers(0, distinct, size)]
    return weights / weights.sum()


class TestValueRankedCut:
    """The full path ranks values, not ids: the kept set is every id above
    the edge value and the lowest ids at it, as the stable id ranking keeps."""

    @settings(max_examples=400, deadline=None)
    @given(case=tied_rows())
    @example(case=(flat_tied_row(), 0.95))
    @example(case=(np.array([0.25, 0.0, 0.25, 0.25, 0.25]), 0.5))
    def test_equals_the_id_ranking(self, case):
        dist, top_p = case
        out, kept = _nucleus(dist, 1.0, top_p, np.zeros(dist.size))
        assert out.tobytes() == ref_nucleus(dist, top_p).tobytes()
        assert nucleus_filter(dist, top_p).tobytes() == out.tobytes()

    def test_cut_inside_a_tied_run(self):
        dist = flat_tied_row()
        out, kept = _nucleus(dist, 1.0, 0.95, np.zeros(dist.size))
        assert kept.size == dist.size  # the full path
        kept_ids = np.flatnonzero(out)
        at_edge = np.flatnonzero(dist == dist[kept_ids].min())
        # Of the ids at the edge value, the lowest are kept and the rest dropped.
        dropped = np.setdiff1d(at_edge, kept_ids)
        assert dropped.size and kept_ids.size > dist.size // 2
        assert dropped.min() > np.intersect1d(at_edge, kept_ids).max()
        assert out.tobytes() == ref_nucleus(dist, 0.95).tobytes()


@st.composite
def full_path_rows(draw):
    """Weights of a few tied near-flat values at V in {16, 1024, 1026},
    their sum and a top_p of at least 0.3: the smallest weight is at least
    e^-0.3 of the mean, far above ``(1 - top_p)`` of it, so every id is a
    nucleus candidate."""
    size = draw(st.sampled_from([16, 1024, 1026]))
    distinct = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = np.exp(rng.uniform(-0.3, 0.0, distinct))
    weights = levels[rng.integers(0, distinct, size)]
    top_p = draw(
        st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0 - 1e-7, JUST_BELOW_ONE, 1.0])
        | st.floats(min_value=0.3, max_value=1.0)
    )
    return weights, float(weights.sum()), top_p


def at_the_floor(size, top_p, seed):
    """Near-flat weights whose smallest, id 0, equals the nucleus's
    candidate floor ``(1 - top_p) / V * total * (1 - 1e-9)`` exactly."""
    weights = np.exp(np.random.default_rng(seed).uniform(-0.3, 0.0, size))
    # The floor moves with the total that id 0 is part of; a few rounds
    # settle both.
    for _ in range(20):
        floor = (1.0 - top_p) / size * float(weights.sum()) * (1.0 - 1e-9)
        if weights[0] == floor:
            return weights
        weights[0] = floor
    raise AssertionError("the floor did not settle")


class TestFullPathChoice:
    """When every id is a candidate, the nucleus returns one shared,
    read-only ``arange(V)`` as its kept ids, and token choice reads the
    whole vector: the same token as over a fresh writable ``arange(V)``."""

    @staticmethod
    def assert_full_path(weights, total, top_p, seed=0):
        size = weights.size
        row = np.zeros(size)
        dist, kept = _nucleus(weights, total, top_p, row)
        assert dist is not row and kept.size == size
        assert kept is _nucleus(weights, total, top_p, np.zeros(size))[1]
        assert dist.tobytes() == ref_nucleus(weights / total, top_p).tobytes()
        fresh = np.arange(size)
        assert _greedy(dist, kept) == _greedy(dist, fresh) == int(np.argmax(dist))
        draws = [np.random.default_rng(seed) for _ in range(3)]
        token = _sample(dist, kept, draws[0])
        assert token == _sample(dist, fresh, draws[1]) == ref_sample(dist, draws[2])
        assert draws[0].bit_generator.state == draws[1].bit_generator.state
        with pytest.raises(ValueError, match="read-only"):
            kept[token] = 0
        assert (kept == fresh).all()
        return dist

    @settings(max_examples=300, deadline=None)
    @given(case=full_path_rows(), seed=st.integers(min_value=0, max_value=2**64 - 1))
    @example(case=(flat_tied_row(), 1.0, 0.95), seed=0)
    @example(case=(flat_tied_row(16, 2, seed=1), 1.0, 0.95), seed=1)
    @example(case=(np.ones(1026), 1026.0, 0.5), seed=2)
    def test_equals_the_reference(self, case, seed):
        self.assert_full_path(*case, seed=seed)

    @pytest.mark.parametrize("size", [16, 1024, 1026])
    def test_cut_inside_a_tied_run(self, size):
        # At V=16 every near-flat id holds over 0.05 of the mass, so a
        # top_p of 0.95 would keep them all.
        weights = flat_tied_row(size, distinct=2, seed=size)
        dist = self.assert_full_path(weights, 1.0, 0.8)
        edge = dist[dist > 0].min()
        at_edge = np.flatnonzero(weights == weights[dist == edge][0])
        kept_at_edge = np.flatnonzero(dist[at_edge])
        # The cut falls inside the run: some ids at the edge value are kept
        # and the later ones dropped.
        assert 0 < kept_at_edge.size < at_edge.size
        assert kept_at_edge.tolist() == list(range(kept_at_edge.size))

    @pytest.mark.parametrize("size", [16, 1024, 1026])
    def test_smallest_weight_at_the_floor(self, size):
        top_p = 0.95
        weights = at_the_floor(size, top_p, seed=size)
        self.assert_full_path(weights, float(weights.sum()), top_p)
        # One ulp below the floor, id 0 is no candidate: the head path.
        weights[0] = np.nextafter(weights[0], 0.0)
        total = float(weights.sum())
        assert weights[0] < (1.0 - top_p) / size * total * (1.0 - 1e-9)
        row = np.zeros(size)
        dist, kept = _nucleus(weights, total, top_p, row)
        assert dist is row and kept.size < size
        assert dist.tobytes() == ref_nucleus(weights / total, top_p).tobytes()
        assert _greedy(dist, kept) == int(np.argmax(dist))
        draws = [np.random.default_rng(5) for _ in range(2)]
        assert _sample(dist, kept, draws[0]) == ref_sample(dist, draws[1])


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
        out, kept = _nucleus(weights, total, top_p, np.zeros(weights.size))
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
        out, kept = _nucleus(dist, 1.0, top_p, np.zeros(dist.size))
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
        out, kept = _nucleus(dist, 1.0, top_p, np.zeros(dist.size))
        expected = ref_sample(ref_nucleus(dist, top_p), FixedDraw(u))
        assert _sample(out, kept, FixedDraw(u)) == expected
        assert sample_token(dist, FixedDraw(u)) == ref_sample(dist, FixedDraw(u))

    @settings(max_examples=400, deadline=None)
    @given(case=cases)
    @with_examples()
    def test_greedy_over_kept_ids(self, case):
        dist, top_p = case
        out, kept = _nucleus(dist, 1.0, top_p, np.zeros(dist.size))
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


def alternating_triple(size):
    """Three order-2 n-gram models over ``size`` ids that count every
    context: even contexts a few ids many times, so the fill falls under
    the candidate floor and the lanes give the head; odd contexts a few ids
    once, so the fill is a candidate and the dense nucleus decides. Each
    row counts even and odd ids, so a decode moves between the two."""
    vocab = build_vocab([[f"t{i}" for i in range(size - 2)]])
    rng = np.random.default_rng(5)
    rows = {}
    for ctx in range(size):
        ids = rng.choice(size - 1, 4, replace=False)  # never eos
        rows[ctx] = (ids, rng.integers(1000, 4000, 4) if ctx % 2 == 0 else np.ones(4, dtype=int))

    def model(boost, name):
        counts = {}
        for ctx, (ids, row_counts) in rows.items():
            row = {int(t): int(c) for t, c in zip(ids, row_counts)}
            row[int(ids[0])] += boost * int(row_counts[0])
            counts[(ctx,)] = row
        return NGramModel(vocab, 2, counts, 1e-3, name=name)

    return model(0, "b"), model(1, "e"), model(0, "eb")


class TestLaneHeadInDecode:
    """A guided decode whose steps take the lane head at some steps and
    the dense fallback at others gives the reference's bytes: the zero row
    the head is written into must be clean at every step."""

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("top_p, seed", [(0.9, 1), (0.9, 2), (0.8, 3)])
    def test_steps_alternate_and_match_the_reference(self, monkeypatch, mode, top_p, seed):
        size = decoder._SPARSE_MIN_VOCAB
        scorers = alternating_triple(size)
        config = DecodeConfig(top_p=top_p, max_tokens=40, mode=mode, seed=seed)
        lane_heads = []
        nucleus = decoder._nucleus

        def spy(weights, total, top_p, row, lanes=None):
            dist, kept = nucleus(weights, total, top_p, row, lanes)
            floor = (1.0 - top_p) / weights.size * total * (1.0 - 1e-9)
            assert lanes is not None  # every step is sparse
            lane_heads.append(bool(lanes[2] < floor and dist is row))
            return dist, kept

        monkeypatch.setattr(decoder, "_nucleus", spy)
        assert_decode_matches_reference((scorers, [0], config, ()))
        assert True in lane_heads and False in lane_heads


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
        assert got[0].tobytes() == _nucleus(dist, 1.0, top_p, np.zeros(dist.size))[0].tobytes()

    @pytest.mark.parametrize("dist, top_p, kept", BOUNDARIES)
    def test_nucleus_at_top_p(self, dist, top_p, kept):
        got = _nucleus_rows(dist[None, :], np.ones(1), top_p)[0]
        assert got.tobytes() == _nucleus(dist, 1.0, top_p, np.zeros(dist.size))[0].tobytes()
        assert np.count_nonzero(got) == kept

    @settings(max_examples=400, deadline=None)
    @given(case=cases, u=st.floats(min_value=0.0, max_value=JUST_BELOW_ONE))
    @with_examples(u=JUST_BELOW_ONE)
    def test_sample(self, case, u):
        dist, top_p = case
        out, kept = _nucleus(dist, 1.0, top_p, np.zeros(dist.size))
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
    """Scorers over a small vocabulary, with or without bos: each role a
    bigram matrix whose rows have ties, one-hot peaks, random values, or
    random values with exact zeros in their softmax, or an n-gram table
    of order 1 to 4 (a block reads it by integer key) trained on a few
    short documents, so prompts meet contexts it never counted; a config,
    seeds for up to a dozen rows, each row's prompt (rows share one of up
    to four prompts of one to five ids, so a block mixes prompt lengths,
    some shorter than an n-gram's context), and kl on or off."""
    words = [f"t{i}" for i in range(draw(st.integers(min_value=1, max_value=30)))]
    vocab = build_vocab([words])
    if draw(st.booleans()):  # no bos: short contexts are padded with eos
        vocab = Vocabulary(surface=vocab.surface, eos=vocab.eos, bos=None)
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

    def ngram(name):
        docs = [
            rng.integers(0, n, size=draw(st.integers(min_value=0, max_value=6))).tolist()
            for _ in range(draw(st.integers(min_value=0, max_value=6)))
        ]
        return train_ngram(
            docs,
            draw(st.integers(min_value=1, max_value=4)),
            vocab,
            smoothing_k=draw(st.sampled_from([1e-3, 0.5, 2.0])),
            append_eos=draw(st.booleans()),
            name=name,
        )

    base, expert, expert_base = (
        ngram(r) if draw(st.booleans()) else BigramMatrixScorer(vocab, matrix(), name=r) for r in "abc"
    )
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
    pool = [
        [int(t) for t in rng.integers(0, n, size=draw(st.integers(min_value=1, max_value=5)))]
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    prompts = [pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))] for _ in seeds]
    return scorers, prompts, config, seeds, instrument


def step_bits(trajectory):
    return trajectory.stop_reason, [
        (s.token, float_bits(s.chosen_logprob), float_bits(s.kl_base_vs_combined))
        for s in trajectory.generated
    ]


def assert_lockstep_matches_decode(scorers, prompts, config, seeds, instrument):
    rows = list(
        decoder._decode_lockstep(
            *scorers, prompts=prompts, config=config, seeds=seeds, instrument=instrument
        )
    )
    assert sorted(row for row, _ in rows) == list(range(len(seeds)))
    for row, trajectory in rows:
        expected = decode(
            *scorers, prompt=prompts[row], config=config.replace(seed=seeds[row]), instrument=instrument
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
            assert_lockstep_matches_decode(scorers, [[0]] * 9, config, list(range(9)), ("kl",))

    def test_rows_leave_the_block_at_eos(self):
        vocab = build_vocab([["a", "b"]])
        m = np.zeros((vocab.size, vocab.size))
        m[:, vocab.eos] = 0.5  # every step may stop, so rows stop apart
        scorer = BigramMatrixScorer(vocab, m)
        config = DecodeConfig(top_p=1.0, max_tokens=20)
        rows = list(decoder._decode_lockstep(scorer, prompts=[[0]] * 12, config=config, seeds=range(12)))
        lengths = [len(t.generated) for _, t in rows]
        assert lengths == sorted(lengths) and len(set(lengths)) > 2
        assert_lockstep_matches_decode((scorer, None, None), [[0]] * 12, config, list(range(12)), ())

    @pytest.mark.parametrize("guided", [False, True])
    def test_rows_of_different_prompts(self, guided):
        # Trigram rows read two ids of context, so prompts of one to four
        # ids score differently from the first step; every document ends
        # in eos, so rows stop apart. Rows share prompt objects, and one
        # prompt is repeated as an equal list of its own.
        rng = np.random.default_rng(8)
        vocab = build_vocab([[f"t{i}" for i in range(7)]])
        docs = [rng.integers(0, 7, size=rng.integers(1, 6)).tolist() for _ in range(40)]
        base = train_ngram(docs, 3, vocab, smoothing_k=0.2, name="a")
        pair = [train_ngram(docs[i::2], 2, vocab, smoothing_k=0.2, name=r) for i, r in enumerate("bc")]
        scorers = (base, *pair) if guided else (base, None, None)
        pool = [[3], [1, 4], [0, 2, 5], [6, 6, 1, 2]]
        prompts = [pool[i % 4] for i in range(14)] + [[0, 2, 5]]
        config = DecodeConfig(top_p=0.9, max_tokens=4)
        seeds = list(range(100, 115))
        rows = list(decoder._decode_lockstep(*scorers, prompts=prompts, config=config, seeds=seeds))
        assert len({len(t.generated) for _, t in rows if t.stop_reason == "eos"}) > 2
        assert {t.stop_reason for _, t in rows} == {"eos", "max_tokens"}
        assert_lockstep_matches_decode(scorers, prompts, config, seeds, ("kl",))

    @pytest.mark.parametrize("guided", [False, True])
    def test_lone_row_goes_on_from_the_block_ids(self, guided):
        # Greedy rows over n-gram tables read by key: the row prompted [0]
        # stops at eos at step 0 and the one prompted [5] at step 1, so the
        # row prompted [1] goes on alone from step 2, its prefix rebuilt
        # from the block's ids.
        vocab = build_vocab([[f"t{i}" for i in range(6)]])
        docs = [[0], [5, 2], [1, 2, 3, 4] * 3]
        base = train_ngram(docs, 3, vocab, name="a")
        pair = [train_ngram(docs, order, vocab, name=r) for order, r in ((4, "b"), (2, "c"))]
        scorers = (base, *pair) if guided else (base, None, None)
        config = DecodeConfig(max_tokens=8, mode="greedy", delta_scale=0.5)
        prompts = [[0], [5], [1]]
        rows = dict(decoder._decode_lockstep(*scorers, prompts=prompts, config=config, seeds=[0, 1, 2]))
        assert [len(rows[row].generated) for row in range(3)] == [1, 2, 8]
        assert_lockstep_matches_decode(scorers, prompts, config, [0, 1, 2], ())

    @pytest.mark.parametrize("guided", [False, True])
    @pytest.mark.parametrize("kind", ["table", "bigram_matrix", "constant"])
    def test_each_scorer_kind(self, kind, guided):
        # Table rows read whole prefixes through the default
        # ``Scorer._score_window``; bigram-matrix and constant rows read the
        # block's window themselves. Prompts of one to three ids share rows.
        rng = np.random.default_rng(6)
        vocab = build_vocab([[f"t{i}" for i in range(5)]])
        n = vocab.size
        prompts = [[1], [2, 3], [0, 4, 2]] * 3

        def scorer(name):
            if kind == "table":
                table = {(*prompt, t): rng.normal(size=n) for prompt in prompts[:3] for t in range(n)}
                return TableScorer(vocab, table, default=rng.normal(size=n), name=name)
            if kind == "bigram_matrix":
                return BigramMatrixScorer(vocab, rng.normal(size=(n, n)), name=name)
            return ConstantScorer(vocab, rng.normal(size=n), name=name)

        scorers = tuple(map(scorer, "abc")) if guided else (scorer("a"), None, None)
        config = DecodeConfig(top_p=0.9, max_tokens=6)
        assert_lockstep_matches_decode(scorers, prompts, config, list(range(len(prompts))), ("kl",))

    @pytest.mark.parametrize("guided", [False, True])
    def test_keyed_block_makes_no_prefix_calls(self, guided, monkeypatch):
        # N-gram tables (read by key), bigram matrices and constant rows
        # read their rows off the block's id array: its steps build, append
        # to and index no row's TokenPrefix, and the calls its setup and
        # results make do not grow with the steps. No document ends in eos
        # and every eos logit is far below the rest, so greedy rows never
        # stop early and never leave one row alone.
        rng = np.random.default_rng(3)
        vocab = build_vocab([[f"t{i}" for i in range(9)]])
        n, eos = vocab.size, vocab.eos
        docs = [rng.integers(0, 9, size=8).tolist() for _ in range(30)]
        matrices = rng.normal(size=(3, n, n))
        matrices[:, :, eos] = -100.0
        constants = rng.normal(size=(3, n))
        constants[:, eos] = -100.0
        worlds = [
            [
                train_ngram(docs, 3, vocab, append_eos=False, name="a"),
                *(train_ngram(docs[i::2], 2, vocab, append_eos=False, name=r) for i, r in enumerate("bc")),
            ],
            [BigramMatrixScorer(vocab, m, name=r) for m, r in zip(matrices, "abc")],
            [ConstantScorer(vocab, row, name=r) for row, r in zip(constants, "abc")],
        ]
        worlds = [tuple(world) if guided else (world[0], None, None) for world in worlds]
        prompts = [TokenPrefix(n, p) for p in ([1], [2, 3], [4, 5, 6])] * 4
        seeds = list(range(len(prompts)))
        for scorers in worlds:
            assert_lockstep_matches_decode(scorers, prompts, DecodeConfig(max_tokens=6, mode="greedy"), seeds, ())
        calls = Counter()
        for name in ("append", "head", "__getitem__", "__len__", "__iter__"):
            def spy(self, *args, _real=getattr(TokenPrefix, name), _name=name):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(TokenPrefix, name, spy)
        trusted = TokenPrefix._trusted.__func__

        def trusted_spy(cls, *args):
            calls["_trusted"] += 1
            return trusted(cls, *args)

        monkeypatch.setattr(TokenPrefix, "_trusted", classmethod(trusted_spy))
        for scorers in worlds:
            counted = []
            for max_tokens in (1, 6):
                calls.clear()
                config = DecodeConfig(max_tokens=max_tokens, mode="greedy")
                rows = list(decoder._decode_lockstep(*scorers, prompts=prompts, config=config, seeds=seeds))
                assert {t.stop_reason for _, t in rows} == {"max_tokens"}
                counted.append(dict(calls))
            assert counted[0] == counted[1]
            assert not {"append", "head", "__getitem__", "_trusted"} & set(counted[1])


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
            list(decoder._decode_lockstep(*scorers, prompts=[[1]] * 3, config=config, seeds=[5, 6, 7]))
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
            def _score_window(self, window):
                return super()._score_window(window)[:, 1:]

        scorers = row_scorers()
        short = Short(scorers[0].vocab, scorers[0].matrix, name="base")
        message = "scorer 'base' returned bad logits at step 0: expected 3 rows of 14 logits"
        with pytest.raises(DecodeError, match=re.escape(message)):
            list(decoder._decode_lockstep(short, prompts=[[1]] * 3, config=DecodeConfig(), seeds=[1, 2, 3]))

    def test_rows_unchanged(self):
        scorers = row_scorers()
        before = [s.matrix.tobytes() for s in scorers]
        config = DecodeConfig(max_tokens=30, top_p=0.9)
        for used in (scorers, scorers[:1]):
            rows = list(decoder._decode_lockstep(*used, prompts=[[1]] * 4, config=config, seeds=range(4), instrument=("kl",)))
            assert len(rows) == 4
        assert [s.matrix.tobytes() for s in scorers] == before


class TestSeedHash:
    """``core._seed_words`` is NumPy's SeedSequence hash run over rows, and
    a block's generators draw what ``np.random.default_rng`` draws."""

    words = st.integers(min_value=0, max_value=2**32 - 1)

    @settings(max_examples=200, deadline=None)
    @given(
        entropy=st.lists(st.lists(words, min_size=1, max_size=8), min_size=1, max_size=5),
        n_words=st.integers(min_value=1, max_value=8),
    )
    @example(entropy=[[0], [2**32 - 1], [0] * 8, [2**32 - 1] * 8], n_words=8)
    def test_equals_seed_sequence(self, entropy, n_words):
        # One width per call, as a pass takes one: rows of one draw's width.
        width = len(entropy[0])
        table = np.array([(row * width)[:width] for row in entropy], np.uint32)
        for dtype in (np.uint32, np.uint64):
            got = core._seed_words(table, n_words, dtype)
            assert got.dtype == dtype and got.shape == (len(entropy), n_words)
            for row, state in zip(table, got):
                want = np.random.SeedSequence(row).generate_state(n_words, dtype)
                assert state.tolist() == want.tolist()
                assert state.flags.c_contiguous

    @pytest.mark.parametrize(
        "rows", [1, decoder._HASHED_MIN_ROWS - 1, decoder._HASHED_MIN_ROWS, 3 * decoder._HASHED_MIN_ROWS]
    )
    def test_block_draws_equal_default_rng(self, rows):
        fixed = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        random = np.random.default_rng(20).integers(0, 2**64, size=rows, dtype=np.uint64).tolist()
        seeds = (fixed + random)[:rows]
        for generator, seed in zip(decoder._generators(seeds), seeds):
            reference = np.random.default_rng(seed)
            assert generator.random(3).tolist() == reference.random(3).tolist()
            assert generator.integers(0, 2**62, 3).tolist() == reference.integers(0, 2**62, 3).tolist()

    def test_seed_past_64_bits_keeps_default_rng(self):
        seeds = [2**64 + 3] + list(range(decoder._HASHED_MIN_ROWS))
        for generator, seed in zip(decoder._generators(seeds), seeds):
            assert generator.random() == np.random.default_rng(seed).random()

    def test_negative_seed_in_a_block_raises_as_decode_does(self):
        scorers = row_scorers()
        config = DecodeConfig(max_tokens=3, mode="sample")
        with pytest.raises(ValueError) as expected:
            decode(*scorers, prompt=[1], config=config.replace(seed=-1))
        seeds = list(range(decoder._HASHED_MIN_ROWS)) + [-1]
        with pytest.raises(ValueError) as got:
            list(decoder._decode_lockstep(*scorers, prompts=[[1]] * len(seeds), config=config, seeds=seeds))
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_hashed_block_rows_are_their_decodes(self):
        scorers = row_scorers()
        config = DecodeConfig(max_tokens=8, top_p=0.9, mode="sample")
        seeds = [0, 2**32, 2**64 - 1] + list(range(5, 5 + 2 * decoder._HASHED_MIN_ROWS))
        assert_lockstep_matches_decode(scorers, [[1]] * len(seeds), config, seeds, ("kl",))
