"""Batched teacher-forced replay: ``Scorer._greedy_rows`` and ``decoder._replay``.

Replay asks the probe for the greedy id of every teacher-forced prefix
through ``_greedy_rows``. The default reads each dense row; ``NGramModel``
reads the answer off its table. The properties below pin both to the dense
``argmax`` of ``score``, and ``pcr`` to the one-row-at-a-time loop it
replaced.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadecode import decoder
from deltadecode.analysis import PcrReport, pcr
from deltadecode.core import (
    DecodeConfig,
    InvalidLogitsError,
    TokenPrefix,
    Vocabulary,
    VocabularyMismatchError,
    as_logits,
)
from deltadecode.decoder import Trajectory, replay_against
from deltadecode.remote import RemoteScorer, ScorerClient, StubServer
from deltadecode.scorers import (
    BigramMatrixScorer,
    ConstantScorer,
    NGramModel,
    TableScorer,
    UnknownPrefixError,
)


def word_vocab(size: int, eos: int = 0, bos: int | None = None) -> Vocabulary:
    return Vocabulary(surface=tuple(f"w{i}" for i in range(size)), eos=eos, bos=bos)


def trajectory(prompt, tokens) -> Trajectory:
    return Trajectory.from_tokens(prompt, tokens, "max_tokens", DecodeConfig())


def dense_greedy(probe, heads) -> list[int]:
    """Per head, ``argmax`` of the checked dense row of ``prefix[:n]``, a plain list."""
    size = probe.vocab.size
    return [int(np.argmax(as_logits(probe.score(prefix[:n]), size))) for prefix, n in heads]


def loop_replay(trajectory, probe) -> list[tuple[int, int]]:
    """``replay_against`` as it was before batching: one checked row per token."""
    generated = trajectory.tokens
    size = probe.vocab.size
    context = TokenPrefix(size, trajectory.prompt_tokens + generated[:1])
    pairs = []
    for token in generated[1:]:
        predicted = int(np.argmax(as_logits(probe.score(context), size)))
        context.append(token)
        pairs.append((predicted, token))
    return pairs


def loop_pcr(trajectories, probe) -> PcrReport:
    """``pcr`` as it was before batching."""
    values = []
    for t in trajectories:
        pairs = loop_replay(t, probe)
        values.append(sum(1 for predicted, actual in pairs if predicted == actual) / len(pairs))
    return PcrReport(per_trajectory=tuple(values), mean=float(np.mean(values)), n=len(values))


def all_heads(prefixes):
    return [(prefix, n) for prefix in prefixes for n in range(len(prefix) + 1)]


@st.composite
def ngram_probes(draw, max_size=64):
    """An n-gram model plus prefixes whose contexts it counts, partly.

    Rows mix zero counts, repeated maxima, fully counted rows and empty
    rows; smoothing up to 1e20 swamps the counts so the fill ties them.
    Contexts are taken from the prefixes' own heads, and some are left
    out, so unseen contexts occur too.
    """
    size = draw(st.integers(min_value=1, max_value=max_size))
    order = draw(st.integers(min_value=1, max_value=3))
    eos = draw(st.integers(min_value=0, max_value=size - 1))
    bos = draw(st.none() | st.integers(min_value=0, max_value=size - 1))
    vocab = word_vocab(size, eos, bos)
    ids = st.integers(min_value=0, max_value=size - 1)
    prefixes = draw(st.lists(st.lists(ids, max_size=8), min_size=1, max_size=3))
    need = order - 1
    pad = [vocab.pad] * need
    contexts = {
        tuple((pad + p[:n])[-need:]) if need else () for p in prefixes for n in range(len(p) + 1)
    }
    counts = {}
    values = st.sampled_from([0, 1, 2, 2, 3])
    for ctx in sorted(contexts):
        if not draw(st.booleans()):
            continue  # left unseen
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            counts[ctx] = {t: draw(values) for t in range(size)}
        else:
            counted = draw(st.lists(ids, unique=True, max_size=min(size, 10)))
            counts[ctx] = {t: draw(values) for t in counted}
    k = draw(st.sampled_from([1e-6, 0.5, 1.0, 1e20]))
    model = NGramModel(vocab, order, counts, k)
    return model, [TokenPrefix(size, p) for p in prefixes]


@settings(max_examples=300, deadline=None)
@given(probe=ngram_probes())
def test_ngram_greedy_rows_equal_dense_argmax(probe):
    model, prefixes = probe
    heads = all_heads(prefixes)
    got = model._greedy_rows(heads)
    assert got == dense_greedy(model, heads)
    assert all(type(token) is int for token in got)


def test_ngram_greedy_rows_of_no_heads():
    model = NGramModel(word_vocab(3), 2, {(0,): {1: 2}})
    assert model._greedy_rows([]) == []


def test_ngram_unseen_context_answers_zero():
    model = NGramModel(word_vocab(5), 2, {(1,): {3: 2}, (2,): {}})
    heads = [(TokenPrefix(5, [4]), 1), (TokenPrefix(5, [2]), 1), (TokenPrefix(5, [1]), 1)]
    assert model._greedy_rows(heads) == [0, 0, 3]


def test_ngram_fill_reaching_the_counted_maximum():
    # Mathematically a counted logit is never below its row's fill, but the
    # two come from separate float logs; edit the fill to reach both cases.
    model = NGramModel(word_vocab(5), 1, {(): {0: 3, 1: 3, 3: 1}})
    model._fill[0] = model._logits.max() + 1.0
    heads = [(TokenPrefix(5), 0)]
    assert model._greedy_rows(heads) == dense_greedy(model, heads) == [2]
    # A tie: counted id 2 and uncounted ids 3 and 4 hold the maximum.
    model = NGramModel(word_vocab(5), 1, {(): {0: 1, 2: 3, 1: 0}})
    model._fill[0] = model._logits.max()
    assert model._greedy_rows(heads) == dense_greedy(model, heads) == [2]


small_sizes = st.integers(min_value=2, max_value=8)
# Few distinct values, so rows often tie at their maximum.
logit_values = st.sampled_from([-1.5, 0.0, 0.0, 1.0, 2.0])


@st.composite
def dense_probes(draw):
    """A constant, bigram-matrix or table probe plus prefixes over its vocabulary."""
    size = draw(small_sizes)
    vocab = word_vocab(size)
    ids = st.integers(min_value=0, max_value=size - 1)
    row = st.lists(logit_values, min_size=size, max_size=size)
    prefixes = draw(st.lists(st.lists(ids, min_size=1, max_size=6), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["constant", "bigram", "table"]))
    if kind == "constant":
        probe = ConstantScorer(vocab, draw(row))
    elif kind == "bigram":
        probe = BigramMatrixScorer(vocab, [draw(row) for _ in range(size)])
    else:
        keys = {tuple(p[:n]) for p in prefixes for n in range(1, len(p) + 1)}
        table = {key: draw(row) for key in sorted(keys) if draw(st.booleans())}
        probe = TableScorer(vocab, table, default=draw(row))
    return probe, [TokenPrefix(size, p) for p in prefixes]


@settings(max_examples=150, deadline=None)
@given(probe=dense_probes())
def test_default_greedy_rows_equal_per_row_loop(probe):
    scorer, prefixes = probe
    heads = [(prefix, n) for prefix in prefixes for n in range(1, len(prefix) + 1)]
    assert scorer._greedy_rows(heads) == dense_greedy(scorer, heads)


@settings(max_examples=10, deadline=None)
@given(probe=dense_probes(), data=st.data())
def test_remote_default_greedy_rows_equal_per_row_loop(probe, data):
    scorer, prefixes = probe
    size = scorer.vocab.size
    tokens = st.lists(st.integers(min_value=0, max_value=size - 1), min_size=2, max_size=8)
    trajectories = [trajectory(prefix[:1], data.draw(tokens)) for prefix in prefixes]
    with StubServer(scorer) as server:
        with ScorerClient.connect_tcp(server.host, server.port) as client:
            remote = RemoteScorer(client, scorer.vocab)
            heads = [(prefix, n) for prefix in prefixes for n in range(1, len(prefix) + 1)]
            assert remote._greedy_rows(heads) == dense_greedy(scorer, heads)
            assert pcr(trajectories, remote) == loop_pcr(trajectories, scorer)


@st.composite
def replays(draw):
    """A probe of either path and trajectories over its vocabulary, some with
    prompts of hundreds of tokens."""
    if draw(st.booleans()):
        probe, _ = draw(ngram_probes(max_size=12))
    else:
        probe, _ = draw(dense_probes())
    ids = st.integers(min_value=0, max_value=probe.vocab.size - 1)
    prompts = st.lists(ids, min_size=1, max_size=6) | st.lists(ids, min_size=200, max_size=400)
    trajectories = draw(
        st.lists(
            st.builds(trajectory, prompts, st.lists(ids, min_size=2, max_size=12)),
            min_size=1,
            max_size=5,
        )
    )
    return probe, trajectories


@settings(max_examples=100, deadline=None)
@given(replay=replays(), batch=st.sampled_from([1, 3, 1024]))
def test_pcr_equals_per_row_loop(replay, batch):
    probe, trajectories = replay
    with patch.object(decoder, "_REPLAY_BATCH", batch):
        assert pcr(trajectories, probe) == loop_pcr(trajectories, probe)
        for t in trajectories:
            assert replay_against(t, probe) == loop_replay(t, probe)


class TestDefaultPathErrors:
    def table_probe(self, row):
        vocab = word_vocab(3)
        probe = TableScorer(vocab, {(0, 1): [0.0, 1.0, 0.0]}, default=[1.0, 0.0, 0.0])
        probe._table[(0, 1)] = np.asarray(row, dtype=np.float64)  # a broken row
        return probe

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises(self, bad):
        probe = self.table_probe([0.0, bad, 0.0])
        t = trajectory((0,), (1, 2, 0))
        with pytest.raises(InvalidLogitsError, match="non-finite"):
            replay_against(t, probe)
        with pytest.raises(InvalidLogitsError, match="non-finite"):
            pcr([t], probe)

    def test_wrong_size_row_raises(self):
        probe = self.table_probe([0.0, 1.0, 0.0, 2.0])
        t = trajectory((0,), (1, 2))
        with pytest.raises(VocabularyMismatchError, match="expected 3 logits, got 4"):
            replay_against(t, probe)
        with pytest.raises(VocabularyMismatchError, match="expected 3 logits, got 4"):
            pcr([t], probe)

    def test_unknown_prefix_propagates(self):
        probe = TableScorer(word_vocab(3), {(0, 1): [0.0, 1.0, 0.0]})
        t = trajectory((0,), (1, 2, 0))
        with pytest.raises(UnknownPrefixError, match=r"\(0, 1, 2\)"):
            replay_against(t, probe)
        with pytest.raises(UnknownPrefixError):
            pcr([t], probe)


class TestBatching:
    def probes(self):
        rng = np.random.default_rng(3)
        vocab = word_vocab(6)
        counts = {(c,): {int(t): int(rng.integers(0, 4)) for t in rng.choice(6, 3)} for c in range(6)}
        return NGramModel(vocab, 2, counts), BigramMatrixScorer(vocab, rng.normal(size=(6, 6)))

    def test_boundary_inside_a_trajectory_gives_identical_pairs(self, monkeypatch):
        rng = np.random.default_rng(4)
        trajectories = [
            trajectory(rng.integers(0, 6, 3).tolist(), rng.integers(0, 6, n).tolist())
            for n in (5, 2, 7, 3)
        ]
        for probe in self.probes():
            whole = decoder._replay(trajectories, probe)
            calls = []
            greedy = type(probe)._greedy_rows

            def recording(self, heads):
                calls.append(len(heads))
                return greedy(self, heads)

            monkeypatch.setattr(decoder, "_REPLAY_BATCH", 3)
            monkeypatch.setattr(type(probe), "_greedy_rows", recording)
            assert decoder._replay(trajectories, probe) == whole
            assert whole == [loop_replay(t, probe) for t in trajectories]
            # 4 + 1 + 6 + 2 heads in batches of 3: the first, third and
            # fourth trajectories each straddle a boundary.
            assert calls == [3, 3, 3, 3, 1]
            monkeypatch.undo()
