"""The checked token prefix: each id is checked once on the decode path.

``decode``, ``replay_against`` and ``delta_series`` grow a
:class:`TokenPrefix`; scorers of the same vocabulary size trust it and
check any other sequence in full. The properties below pin that trusting
the prefix changes no bit of the output: the same run with scorers that
are handed a plain ``list(prefix)``, which forces the full check, must
give identical tokens, logprobs and diagnostics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadecode.analysis import delta_series, pcr
from deltadecode.core import DecodeConfig, TokenPrefix, Vocabulary, VocabularyMismatchError
from deltadecode.decoder import DecodeError, Trajectory, decode, replay_against
from deltadecode.scorers import (
    ConstantScorer,
    CorpusIngestionError,
    NGramModel,
    Scorer,
    train_ngram,
)


def make_vocab(size: int) -> Vocabulary:
    surface = tuple(f"t{i}" for i in range(size - 2)) + ("<bos>", "<eos>")
    return Vocabulary(surface=surface, eos=size - 1, bos=size - 2)


class PlainList(Scorer):
    """Hands ``inner`` a plain list copy of each prefix, so it checks every id."""

    kind = "plain_list"

    def __init__(self, inner: Scorer):
        super().__init__(inner.vocab, inner.name, inner.tokenizer)
        self.inner = inner

    def score(self, prefix):
        return self.inner.score(list(prefix))


def step_bits(trajectory):
    """Every recorded number of a trajectory, floats as their exact hex form."""

    def bits(x):
        return None if x is None else float(x).hex()

    return (
        trajectory.prompt_tokens,
        trajectory.stop_reason,
        trajectory.scorer_labels,
        tuple(
            (s.token, bits(s.chosen_logprob), bits(s.kl_base_vs_combined))
            for s in trajectory.generated
        ),
    )


class TestTokenPrefix:
    def test_builds_checked_sequence(self):
        p = TokenPrefix(5, [3, np.int64(1)])
        p.append(4)
        assert list(p) == [3, 1, 4]
        assert len(p) == 3 and p[-1] == 4 and p[:2] == [3, 1]
        assert all(type(t) is int for t in p)
        assert p.size == 5

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    def test_append_rejects_out_of_range(self, bad):
        p = TokenPrefix(5, [0, 1])
        message = f"position 2: token id {bad} outside vocabulary of size 5"
        with pytest.raises(VocabularyMismatchError, match=message):
            p.append(bad)
        assert list(p) == [0, 1]

    def test_construction_names_position(self):
        with pytest.raises(VocabularyMismatchError, match="position 1: token id 7"):
            TokenPrefix(5, [0, 7, 1])

    @pytest.mark.parametrize("bad", [1.9, 1.0, "0", None])
    def test_non_integer_rejected_not_converted(self, bad):
        with pytest.raises(VocabularyMismatchError, match=f"position 1: token id {bad!r} is not an integer"):
            TokenPrefix(3, [0, bad])
        p = TokenPrefix(3, [np.int64(2), np.uint8(1)])
        assert list(p) == [2, 1] and all(type(t) is int for t in p)

    def test_head_shares_checked_ids(self):
        p = TokenPrefix(5, [3, 1, 4])
        head = p.head(2)
        head.append(0)
        assert list(head) == [3, 1, 0] and head.size == 5
        assert list(p) == [3, 1, 4]


class TestScorerCheck:
    VOCAB = make_vocab(5)

    def scorer(self):
        return ConstantScorer(self.VOCAB, np.arange(5.0))

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    def test_plain_list_checked_from_position_0(self, bad):
        with pytest.raises(CorpusIngestionError, match=f"prefix position 0: token id {bad} outside"):
            self.scorer().score([bad, 0, 1])

    def test_same_size_prefix_is_trusted(self):
        p = TokenPrefix(5, [0, 4])
        assert self.scorer()._check_prefix(p) is p

    def test_other_size_prefix_is_checked_again(self):
        scorer = self.scorer()
        with pytest.raises(CorpusIngestionError, match="prefix position 1: token id 7"):
            scorer.score(TokenPrefix(10, [1, 7]))
        wider = TokenPrefix(10, [1, 4])
        checked = scorer._check_prefix(wider)
        assert checked is not wider and checked.size == 5 and list(checked) == [1, 4]

    def test_ngram_context_reads_only_its_window(self):
        model = train_ngram([[0, 1, 2, 0, 1]], 3, self.VOCAB)
        assert model.context_of([2]) == (self.VOCAB.pad, 2)
        assert model.context_of(TokenPrefix(5, [0, 1, 2, 0])) == (2, 0)
        unigram = train_ngram([[0, 1]], 1, self.VOCAB)
        assert unigram.context_of([0, 1]) == ()


class TestDecodeChecks:
    VOCAB = make_vocab(6)

    def test_bad_prompt_names_position(self):
        base = ConstantScorer(self.VOCAB, np.zeros(6))
        message = "prompt position 2: token id 6 outside vocabulary of size 6"
        with pytest.raises(DecodeError, match=message):
            decode(base, prompt=[0, 1, 6], config=DecodeConfig(max_tokens=2))

    def test_float_or_string_prompt_rejected(self):
        base = ConstantScorer(self.VOCAB, np.zeros(6))
        with pytest.raises(DecodeError, match="prompt position 0: token id 1.9 is not an integer"):
            decode(base, prompt=[1.9, "0"], config=DecodeConfig(max_tokens=2))
        with pytest.raises(DecodeError, match="prompt position 1: token id '0' is not an integer"):
            decode(base, prompt=[1, "0"], config=DecodeConfig(max_tokens=2))

    def test_long_decode_checks_each_id_once(self, monkeypatch):
        """Id checks and prefix reads grow with prompt + tokens, not with T^2."""
        counts = {"checks": 0, "reads": 0}
        append, getitem, iterate = TokenPrefix.append, TokenPrefix.__getitem__, TokenPrefix.__iter__

        def counting_append(self, token):
            counts["checks"] += 1
            append(self, token)

        def counting_getitem(self, index):
            out = getitem(self, index)
            counts["reads"] += len(out) if isinstance(index, slice) else 1
            return out

        def counting_iter(self):
            counts["reads"] += len(self)
            return iterate(self)

        monkeypatch.setattr(TokenPrefix, "append", counting_append)
        monkeypatch.setattr(TokenPrefix, "__getitem__", counting_getitem)
        monkeypatch.setattr(TokenPrefix, "__iter__", counting_iter)
        order = 3
        corpus = [[i % 4 for i in range(j, j + 40)] for j in range(4)]
        base, expert, expert_base = (
            train_ngram(corpus, order, self.VOCAB, smoothing_k=k, append_eos=False)
            for k in (0.5, 1.0, 2.0)
        )
        prompt = [0, 1, 2, 3, 0]
        tokens = 1500
        config = DecodeConfig(max_tokens=tokens, mode="greedy")
        trajectory = decode(base, expert, expert_base, prompt=prompt, config=config)
        assert len(trajectory.generated) == tokens
        assert counts["checks"] == len(prompt) + tokens
        # Three n-gram calls per token read order - 1 ids each; building the
        # trajectory reads the prompt back once.
        assert counts["reads"] <= 3 * tokens * (order - 1) + len(prompt)


@st.composite
def ngram_worlds(draw):
    size = draw(st.integers(min_value=3, max_value=7))
    vocab = make_vocab(size)
    ids = st.integers(min_value=0, max_value=size - 1)

    def model(name):
        corpus = draw(st.lists(st.lists(ids, max_size=12), min_size=1, max_size=4))
        order = draw(st.integers(min_value=1, max_value=3))
        k = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
        return train_ngram(corpus, order, vocab, smoothing_k=k, name=name)

    base, expert, expert_base = model("base"), model("expert"), model("expert_base")
    prompt = draw(st.lists(ids, min_size=1, max_size=6))
    return base, expert, expert_base, prompt


configs = st.builds(
    DecodeConfig,
    delta_scale=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    temperature=st.sampled_from([0.7, 1.0, 1.6]),
    top_p=st.sampled_from([0.3, 0.9, 1.0]),
    max_tokens=st.integers(min_value=1, max_value=24),
    mode=st.sampled_from(["greedy", "sample"]),
    seed=st.integers(min_value=0, max_value=2**32),
)
instruments = st.sampled_from([(), ("kl",)])


@settings(max_examples=60, deadline=None)
@given(world=ngram_worlds(), config=configs, instrument=instruments, guided=st.booleans())
def test_decode_trusting_prefix_is_bitwise_full_check(world, config, instrument, guided):
    base, expert, expert_base, prompt = world
    scorers = (base, expert, expert_base) if guided else (base,)
    trusted = decode(*scorers, prompt=prompt, config=config, instrument=instrument)
    checked = decode(
        *(PlainList(s) for s in scorers), prompt=prompt, config=config, instrument=instrument
    )
    assert step_bits(trusted) == step_bits(checked)


@settings(max_examples=40, deadline=None)
@given(world=ngram_worlds(), config=configs)
def test_replay_trusting_prefix_equals_full_check(world, config):
    base, expert, expert_base, prompt = world
    trajectory = decode(base, expert, expert_base, prompt=prompt, config=config)
    probe = PlainList(expert)
    if len(trajectory.generated) >= 2:
        assert replay_against(trajectory, expert) == replay_against(trajectory, probe)
        assert pcr([trajectory, trajectory], expert) == pcr([trajectory, trajectory], probe)
    trusted = delta_series(trajectory, expert, expert_base)
    checked = delta_series(trajectory, probe, PlainList(expert_base))
    assert trusted.tobytes() == checked.tobytes()


def test_replay_names_bad_token_position():
    vocab = make_vocab(4)
    probe = NGramModel(vocab, 1, {(): {0: 1}})
    trajectory = decode(probe, prompt=[0, 1], config=DecodeConfig(max_tokens=3, mode="greedy"))
    bad = Trajectory.from_tokens(
        trajectory.prompt_tokens, (0, 1, 9), "max_tokens", trajectory.config_snapshot
    )
    with pytest.raises(VocabularyMismatchError, match="position 4: token id 9"):
        replay_against(bad, probe)
