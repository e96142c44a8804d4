"""The guided decode step over sparse n-gram rows against the dense step.

An ``NGramModel`` row is one fill logit plus a few counted ids. A guided
``decode`` over three such rows at a large vocabulary combines only the
ids some role counts, plus one fill lane, and writes the weights into its
buffer as one fill and one scatter (``decoder._sparse_weights``). Every
test here compares that with the same decode through scorers that expose
only ``score``, which take the dense step: tokens, logprobs and errors
must agree bit for bit.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadecode import decoder
from deltadecode.core import DecodeConfig, InvalidLogitsError, Vocabulary
from deltadecode.decoder import DecodeError, decode
from deltadecode.scorers import NGramModel, Scorer

# The smallest vocabulary whose steps may take the sparse path.
GATE = decoder._SPARSE_MIN_VOCAB
JUST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class DenseOnly(Scorer):
    """``inner`` without its sparse form, so ``decode`` takes the dense step."""

    kind = "dense_only"

    def __init__(self, inner):
        super().__init__(inner.vocab, inner.name)
        self.inner = inner

    def score(self, prefix):
        return self.inner.score(prefix)


def vocab_of(size):
    return Vocabulary(tuple(f"t{i}" for i in range(size)), eos=size - 1, bos=size - 2)


def steps(trajectory):
    return [(s.token, np.float64(s.chosen_logprob).tobytes()) for s in trajectory.generated]


def outcome(scorers, prompt, config):
    """The decode's steps and stop reason, or its error's type and message."""
    try:
        trajectory = decode(*scorers, prompt=prompt, config=config)
    except Exception as exc:
        return type(exc), str(exc)
    return steps(trajectory), trajectory.stop_reason


def assert_sparse_equals_dense(scorers, prompt, config):
    assert outcome(scorers, prompt, config) == outcome([DenseOnly(s) for s in scorers], prompt, config)


@pytest.fixture
def sparse_steps(monkeypatch):
    """Counts the steps that take the sparse path."""
    counts = {"sparse": 0}
    sparse_weights = decoder._sparse_weights

    def counted(*args, **kwargs):
        counts["sparse"] += 1
        return sparse_weights(*args, **kwargs)

    monkeypatch.setattr(decoder, "_sparse_weights", counted)
    return counts


# -- the one numeric assumption ------------------------------------------


@st.composite
def table_fills(draw):
    """A fill logit ``ln(k / (total + k * V))`` of a random table, and that
    fill less a larger counted logit, as the max-shift leaves it."""
    size = draw(st.integers(2, 2**17))
    k = draw(st.sampled_from([1e-9, 1e-6, 0.5, 1.0]) | st.floats(1e-9, 1e3))
    total = draw(st.integers(0, 2**40))
    fill = float(np.log(k / (total + k * size)))
    top = float(np.log((draw(st.integers(1, 2**20)) + k) / (total + k * size)))
    return draw(st.sampled_from([fill, fill - max(top, fill)]))


@settings(max_examples=400, deadline=None)
@given(
    x=st.floats(-745.0, 0.0) | table_fills(),
    size=st.sampled_from([GATE, 32768]),
    position=st.floats(0.0, 1.0),
    short=st.integers(1, 33),
    seed=st.integers(0, 2**32 - 1),
)
def test_exp_of_a_lane_is_independent_of_the_array(x, size, position, short, seed):
    # The sparse step takes exp of a few lanes; the dense one of V ids.
    rng = np.random.default_rng(seed)
    lone = np.exp(np.array([x]))[0]
    tail = rng.uniform(-745.0, 0.0, short)
    tail[-1] = x
    np.exp(tail, out=tail)
    row = rng.uniform(-745.0, 0.0, size)
    at = min(int(position * size), size - 1)
    row[at] = x
    np.exp(row, out=row)
    assert lone.tobytes() == tail[-1].tobytes() == row[at].tobytes()


# -- random n-gram triples ----------------------------------------------


def random_model(rng, size, order, k, pool, row_sizes, top_count, name):
    """An n-gram model whose contexts are drawn from ``pool`` and whose rows
    count ``row_sizes``-many ids, pool ids first so a decode stays near
    counted contexts. Few distinct counts make ties, and a zero count makes
    a counted id tie the fill."""
    counts = {}
    for _ in range(int(rng.integers(0, 8))):
        ctx = tuple(int(t) for t in rng.choice(pool, order - 1))
        n = min(int(rng.choice(row_sizes)), size)
        ids = np.unique(np.concatenate([rng.choice(pool, min(n, pool.size)), rng.integers(0, size, n)]))
        ids = rng.permutation(ids)[:n]
        counts[ctx] = {int(t): int(c) for t, c in zip(ids, rng.integers(0, top_count + 1, ids.size))}
    return NGramModel(vocab_of(size), order, counts, k, name=name)


@st.composite
def guided_cases(draw, sizes, row_sizes=None):
    size = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(size, min(size, draw(st.integers(1, 12))), replace=False)
    # Row lengths on both sides of the gate: up to size // 48 ids per role
    # fit under it.
    menu = row_sizes or [0, 1, 8, size // 64, size // 48, size // 20]
    k = draw(st.sampled_from([1e-6, 1e-3, 0.5, 1.0]))
    top_count = draw(st.sampled_from([1, 3, 100]))
    models = [
        random_model(rng, size, draw(st.integers(1, 3)), k, pool, menu, top_count, name)
        for name in ("b", "e", "eb")
    ]
    if draw(st.booleans()):  # an expert_base that shares the base's counts
        base = models[0]
        models[2] = NGramModel(base.vocab, base.order, base.counts, k, name="eb")
    config = DecodeConfig(
        delta_scale=draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 4.0)),
        temperature=draw(st.sampled_from([1.0, 0.7, 1.3]) | st.floats(0.2, 3.0)),
        top_p=draw(st.sampled_from([1.0, JUST_BELOW_ONE, 0.999, 0.95, 0.9, 0.5, 0.1])),
        max_tokens=draw(st.integers(1, 16)),
        mode=draw(st.sampled_from(["greedy", "sample"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    prompt = [int(t) for t in rng.choice(pool, draw(st.integers(1, 3)))]
    return models, prompt, config


class TestSparseStepEqualsDense:
    @settings(max_examples=80, deadline=None)
    @given(case=guided_cases(st.sampled_from([GATE, GATE + 1, 6000, 8192])))
    def test_above_the_gate(self, case):
        assert_sparse_equals_dense(*case)

    # With the gate open at every size, small vocabularies reach the cases
    # the gate keeps from large ones: every id counted (the union is the
    # whole vocabulary and the fill lane drops out), and rows of any length.
    @settings(max_examples=150, deadline=None)
    @given(case=guided_cases(st.integers(2, 40), row_sizes=[0, 1, 3, 40]))
    def test_every_step_sparse(self, case):
        with mock.patch.object(decoder, "_sparse_pays", lambda size, counted: True):
            assert_sparse_equals_dense(*case)

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_steps_switch_paths_at_the_gate(self, sparse_steps, mode):
        # Contexts in ``few`` count 4 ids per role, under the gate; those in
        # ``many`` count 120 per role, 360 in all, over it (V / 16 = 256).
        # Both lead back into both, so a decode switches paths.
        size = GATE
        rng = np.random.default_rng(11)
        few, many = rng.choice(size - 2, (2, 6), replace=False)
        pool = np.concatenate([few, many])

        # Every role counts the same ids, as in the decode-wide inputs, so
        # the decode stays on counted contexts. The cold ids hold 1% of the
        # mass and fall outside the nucleus.
        hot = {int(ctx): rng.choice(pool, 4, replace=False) for ctx in pool}
        cold = {int(ctx): rng.choice(np.setdiff1d(np.arange(size), pool), 116, replace=False) for ctx in many}

        def model(boost, name):
            counts = {}
            for ctx in map(int, pool):
                row = {int(t): int(rng.integers(2000, 4000)) for t in hot[ctx]}
                row[int(hot[ctx][0])] += boost
                row.update({int(t): 1 for t in cold.get(ctx, ())})
                counts[(ctx,)] = row
            return NGramModel(vocab_of(size), 2, counts, 1e-6, name=name)

        scorers = [model(0, "b"), model(3000, "e"), model(0, "eb")]
        config = DecodeConfig(max_tokens=60, mode=mode, seed=3, top_p=0.9)
        assert_sparse_equals_dense(scorers, [int(few[0])], config)
        sparse_steps["sparse"] = 0
        trajectory = decode(*scorers, prompt=[int(few[0])], config=config)
        assert len(trajectory.generated) == 60
        contexts = [int(few[0]), *trajectory.tokens[:-1]]
        assert sparse_steps["sparse"] == sum(t in few for t in contexts)
        assert 0 < sparse_steps["sparse"] < 60

    @pytest.mark.parametrize("nan_role", [None, 0, 1, 2])
    def test_every_id_counted(self, nan_role):
        # A role that counts every id never shows its fill, even a NaN one.
        size = 5
        rng = np.random.default_rng(2)
        full = {(): {t: int(rng.integers(1, 9)) for t in range(size)}}
        part = [{(): {0: 3, 2: 5}}, {(): {1: 2, 3: 4, 4: 1}}]
        models = [
            NGramModel(vocab_of(size), 1, counts, 0.5, name=name)
            for counts, name in zip([full, *part], ("b", "e", "eb"))
        ]
        if nan_role is not None:
            # Roles 1 and 2 between them count every id, yet each shows its fill.
            models[nan_role] = Faulty(models[nan_role], nan_fill)
        config = DecodeConfig(max_tokens=6, seed=1)
        with mock.patch.object(decoder, "_sparse_pays", lambda size, counted: True):
            assert_sparse_equals_dense(models, [0], config)
            result = outcome(models, [0], config)
        if nan_role in (None, 0):
            assert len(result[0]) == 6
        else:
            assert result[0] is DecodeError and "returned bad logits at step 0" in result[1]


# -- which steps take the sparse path -----------------------------------


def wide_triple(size=GATE):
    rng = np.random.default_rng(4)
    pool = rng.choice(size - 2, 16, replace=False)

    def model(name):
        counts = {
            (int(ctx),): {int(t): int(c) for t, c in zip(rng.choice(pool, 4), rng.integers(1, 50, 4))}
            for ctx in pool
        }
        return NGramModel(vocab_of(size), 2, counts, 1e-6, name=name)

    models = [model("b"), model("e"), model("eb")]
    return models, [int(pool[0])]


@pytest.mark.parametrize(
    "case, sparse",
    [
        ("guided", True),
        ("kl instrument", False),
        ("zero scale", False),
        ("base only", False),
        ("a role without a sparse form", False),
        ("below the gate", False),
    ],
)
def test_which_steps_are_sparse(sparse_steps, case, sparse):
    models, prompt = wide_triple(GATE // 2 if case == "below the gate" else GATE)
    config = DecodeConfig(max_tokens=12, delta_scale=0.0 if case == "zero scale" else 1.0, seed=5)
    if case == "base only":
        models[1:] = [None, None]
    if case == "a role without a sparse form":
        models[2] = DenseOnly(models[2])
    instrument = ("kl",) if case == "kl instrument" else ()
    calls = []
    for model in models:
        if model is not None:
            score = model.score
            model.score = lambda prefix, score=score: calls.append(1) or score(prefix)
    trajectory = decode(*models, prompt=prompt, config=config, instrument=instrument)
    n = len(trajectory.generated)
    assert sparse_steps["sparse"] == (n if sparse else 0)
    assert (len(calls) == 0) == sparse


# -- errors on the sparse path --------------------------------------------


class Faulty(NGramModel):
    """``inner``'s table, with ``fault`` applied to each sparse row (and so
    to each ``score``) from step ``at`` on, counted from the prefix length."""

    def __init__(self, inner, fault, at=0, prompt_len=1):
        super().__init__(inner.vocab, inner.order, inner.counts, inner.smoothing_k, name=inner.name)
        self.fault, self.from_len = fault, prompt_len + at

    def _sparse_row(self, prefix):
        row = super()._sparse_row(prefix)
        return self.fault(*row) if len(prefix) >= self.from_len else row


def lost(fill, ids, values):
    raise RuntimeError("table lost")


def huge_values(fill, ids, values):
    return fill, ids, np.full(values.shape, 1e308)


def huge_negative_fill(fill, ids, values):
    return -1e308, ids, values


def nan_fill(fill, ids, values):
    return np.nan, ids, values


def inf_values(fill, ids, values):
    return fill, ids, values + np.inf


@pytest.mark.parametrize(
    "faults, expected",
    [
        ({1: lost}, (DecodeError, r"scorer 'expert \(e\)' failed at step 3: table lost")),
        ({0: lost, 2: lost}, (DecodeError, r"scorer 'base \(b\)' failed at step 3: table lost")),
        (
            {2: nan_fill},
            (DecodeError, r"scorer 'expert_base \(eb\)' returned bad logits at step 3: "
             r"logits contain non-finite values"),
        ),
        (
            {1: inf_values, 2: nan_fill},
            (DecodeError, r"scorer 'expert \(e\)' returned bad logits at step 3: "
             r"logits contain non-finite values"),
        ),
        (
            # Each row is finite; at the expert's ids the difference is not.
            {1: huge_values, 2: huge_negative_fill},
            (InvalidLogitsError, r"combined logits overflowed to non-finite values"),
        ),
    ],
)
@pytest.mark.parametrize("delta_scale", [1.0, 2.0])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_errors_match_the_dense_step(sparse_steps, faults, expected, delta_scale):
    models, prompt = wide_triple()
    for role, fault in faults.items():
        models[role] = Faulty(models[role], fault, at=3, prompt_len=len(prompt))
    config = DecodeConfig(max_tokens=8, delta_scale=delta_scale, seed=9)
    kind, message = outcome(models, prompt, config)
    assert kind is expected[0] and re.fullmatch(expected[1], message), message
    # Steps 0-2 ran sparse; step 3 failed reading its rows or inside its sparse step.
    assert sparse_steps["sparse"] == (3 if lost in faults.values() else 4)
    assert outcome([DenseOnly(m) for m in models], prompt, config) == (kind, message)
