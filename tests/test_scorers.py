import gc
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadecode import decoder
from deltadecode import scorers as scorers_module
from deltadecode.core import DecodeConfig, InvalidConfigError, TokenPrefix, Vocabulary
from deltadecode.decoder import DecodeError, decode
from deltadecode.scorers import (
    BigramMatrixScorer,
    ConstantScorer,
    CorpusIngestionError,
    NGramModel,
    TableScorer,
    UnknownPrefixError,
    build_vocab,
    byte_vocab,
    encode_text,
    load_corpus,
    load_scorer,
    load_vocab,
    render_tokens,
    save_scorer,
    save_vocab,
    train_ngram,
)

AB = Vocabulary(surface=("a", "b"), eos=1, bos=None)


def ids(text, vocab):
    return [vocab.id_of(t) for t in text.split()]


class TestVocabHelpers:
    def test_build_vocab_order_and_specials(self):
        v = build_vocab([["cat", "sat"], ["sat", "mat"]])
        assert v.surface == ("cat", "sat", "mat", "<bos>", "<eos>")
        assert v.bos == 3 and v.eos == 4

    def test_byte_vocab(self):
        v = byte_vocab()
        assert v.size == 258
        assert v.id_of("A") == 65
        assert v.bos == 256 and v.eos == 257

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab([["x", "y"]])
        save_vocab(v, tmp_path / "vocab.txt")
        assert load_vocab(tmp_path / "vocab.txt") == v

    def test_load_appends_missing_specials(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("a\nb\n")
        v = load_vocab(tmp_path / "vocab.txt")
        assert v.surface == ("a", "b", "<bos>", "<eos>")


class TestEncodeRender:
    def test_whitespace_round_trip(self):
        v = build_vocab([["to", "be", "or", "not"]])
        toks = encode_text("to be or not to be", v, "whitespace")
        assert render_tokens(toks, v, "whitespace") == "to be or not to be"

    def test_byte_round_trip(self):
        v = byte_vocab()
        toks = encode_text("hi there", v, "byte")
        assert render_tokens(toks, v, "byte") == "hi there"

    def test_render_skips_specials(self):
        v = build_vocab([["a"]])
        assert render_tokens([v.bos, 0, v.eos], v, "whitespace") == "a"

    def test_encode_unknown_token(self):
        v = build_vocab([["a"]])
        with pytest.raises(CorpusIngestionError):
            encode_text("a z", v, "whitespace")


class TestTrainNgram:
    def test_hand_counted_windows(self):
        # windows of [a,b,a,b]: (a,b), (b,a), (a,b)
        m = train_ngram([ids("a b a b", AB)], order=2, vocab=AB, append_eos=False)
        assert m.counts == {(0,): {1: 2}, (1,): {0: 1}}

    def test_add_one_bigram_arithmetic(self):
        m = train_ngram(
            [ids("a b a b", AB)], order=2, vocab=AB, smoothing_k=1.0, append_eos=False
        )
        # P(b|a) = (2+1)/(2+2) = 0.75
        np.testing.assert_allclose(np.exp(m.score([0])), [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(m.score([0]), np.log([0.25, 0.75]), atol=1e-15)

    def test_add_one_unigram_arithmetic(self):
        m = train_ngram(
            [ids("a a b", AB)], order=1, vocab=AB, smoothing_k=1.0, append_eos=False
        )
        # P(a) = (2+1)/(3+2) = 0.6
        np.testing.assert_allclose(np.exp(m.score([])), [0.6, 0.4], atol=1e-15)

    def test_empty_corpus_uniform(self):
        m = train_ngram([], order=1, vocab=AB, smoothing_k=1.0)
        np.testing.assert_allclose(np.exp(m.score([])), [0.5, 0.5], atol=1e-15)

    def test_unseen_context_uniform(self):
        abc = Vocabulary(surface=("a", "b", "c"), eos=2, bos=None)
        m = train_ngram([[0, 1]], order=2, vocab=abc, append_eos=False)
        np.testing.assert_allclose(
            m.score([2]), np.full(3, np.log(1 / 3)), atol=1e-15
        )

    def test_bos_padding_counts_first_token(self):
        v = build_vocab([["a", "b"]])
        m = train_ngram([[0, 1]], order=2, vocab=v, append_eos=False)
        assert m.counts[(v.bos,)] == {0: 1}

    def test_append_eos_counts_terminator(self):
        v = build_vocab([["a", "b"]])
        m = train_ngram([[0, 1]], order=2, vocab=v, append_eos=True)
        assert m.counts[(1,)] == {v.eos: 1}

    def test_out_of_vocab_id_names_position(self):
        with pytest.raises(CorpusIngestionError, match="document 0, position 2"):
            train_ngram([[0, 1, 9]], order=2, vocab=AB)

    def test_surface_tokens_rejected_helpfully(self):
        with pytest.raises(CorpusIngestionError, match="encode_text"):
            train_ngram([["a", "b"]], order=2, vocab=AB)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1.9, 0], "document 1, position 0: token 1.9 is not an int id"),
            ([0, "1"], "document 1, position 1: token '1' is not an int id"),
            ([True, 0], "document 1, position 0: token True is not an int id"),
        ],
        ids=["float", "numeric-string", "bool"],
    )
    def test_non_int_ids_rejected(self, doc, message):
        with pytest.raises(CorpusIngestionError, match=message):
            train_ngram([[0, 1], doc], order=2, vocab=AB, append_eos=False)

    def test_numpy_int_ids_train_as_ints(self):
        m = train_ngram([np.array([0, 1, 0, 1])], order=2, vocab=AB, append_eos=False)
        assert m.counts == {(0,): {1: 2}, (1,): {0: 1}}
        assert all(type(t) is int for ctx in m.counts for t in ctx)

    def test_order_zero_rejected(self):
        with pytest.raises(InvalidConfigError):
            train_ngram([[0]], order=0, vocab=AB)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(InvalidConfigError):
            train_ngram([[0]], order=1, vocab=AB, smoothing_k=0.0)

    def test_normalization_random_models(self):
        rng = np.random.default_rng(17)
        v = build_vocab([[f"t{i}" for i in range(6)]])
        for _ in range(50):
            docs = [
                list(rng.integers(0, 6, size=rng.integers(1, 12)))
                for _ in range(rng.integers(1, 8))
            ]
            m = train_ngram(docs, order=int(rng.integers(1, 4)), vocab=v)
            prefix = list(rng.integers(0, 6, size=rng.integers(0, 5)))
            total = np.exp(m.score(prefix)).sum()
            assert abs(total - 1.0) <= 1e-9

    def test_score_determinism(self):
        m = train_ngram([ids("a b a b", AB)], order=2, vocab=AB)
        assert m.score([0]).tobytes() == m.score([0]).tobytes()


class TestSyntheticScorers:
    def test_constant(self):
        v = build_vocab([["a"]])
        s = ConstantScorer(v, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.score([0, 0, 0]), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.score([]), [1.0, 2.0, 3.0])

    def test_bigram_matrix_rows(self):
        v = build_vocab([["a", "b"]])
        matrix = np.arange(16, dtype=np.float64).reshape(4, 4)
        s = BigramMatrixScorer(v, matrix)
        np.testing.assert_array_equal(s.score([0, 1]), matrix[1])

    def test_bigram_matrix_empty_prefix(self):
        v = build_vocab([["a", "b"]])
        s = BigramMatrixScorer(v, np.zeros((4, 4)))
        with pytest.raises(InvalidConfigError):
            s.score([])

    def test_table_lookup(self):
        v = build_vocab([["a", "b"]])
        s = TableScorer(v, {(0, 1): [9.0, 0.0, 0.0, 0.0]})
        np.testing.assert_array_equal(s.score([0, 1]), [9.0, 0.0, 0.0, 0.0])

    def test_table_missing_prefix_errors(self):
        v = build_vocab([["a", "b"]])
        s = TableScorer(v, {(0,): [1.0, 0.0, 0.0, 0.0]})
        with pytest.raises(UnknownPrefixError):
            s.score([1])

    @pytest.mark.parametrize("key", [(1.9,), ("1",), (True,), (None,)], ids=["float", "numeric-string", "bool", "none"])
    def test_table_non_int_key_rejected(self, key):
        v = Vocabulary(surface=("a", "b", "c"), eos=2)
        with pytest.raises(InvalidConfigError, match=re.escape(f"table key {key!r}: ids must be ints")):
            TableScorer(v, {(0,): [0.0, 0.0, 0.0], key: [0.0, 1.0, 2.0]})

    def test_table_numpy_int_keys(self):
        v = Vocabulary(surface=("a", "b", "c"), eos=2)
        s = TableScorer(v, {(np.int64(1), np.int32(0)): [0.0, 1.0, 2.0]})
        np.testing.assert_array_equal(s.score([1, 0]), [0.0, 1.0, 2.0])

    def test_table_default_row(self):
        v = build_vocab([["a", "b"]])
        s = TableScorer(v, {}, default=[0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.score([1, 0]), [0.0, 1.0, 0.0, 0.0])


class TestCorpusLoading:
    def test_whitespace_corpus(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b\nb a a\n")
        docs, vocab = load_corpus(path, mode="whitespace")
        assert vocab.surface == ("a", "b", "<bos>", "<eos>")
        assert docs == [[0, 1], [1, 0, 0]]

    def test_explicit_vocab_rejects_unknown(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b\na z b\n")
        with pytest.raises(CorpusIngestionError, match="line 2, token 2"):
            load_corpus(path, mode="whitespace", vocab=build_vocab([["a", "b"]]))

    def test_byte_corpus(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("hi\n")
        docs, vocab = load_corpus(path, mode="byte")
        assert docs == [[104, 105]]
        assert vocab.size == 258


class TestScorerSerialization:
    def test_ngram_round_trip(self, tmp_path):
        v = build_vocab([["a", "b", "c"]])
        docs = [[0, 1, 2, 0], [2, 1]]
        m = train_ngram(docs, order=2, vocab=v, smoothing_k=0.5, name="demo")
        save_scorer(m, tmp_path / "m.json")
        loaded = load_scorer(tmp_path / "m.json")
        assert isinstance(loaded, NGramModel)
        assert loaded.vocab == v
        assert loaded.counts == m.counts
        assert loaded.smoothing_k == 0.5
        assert loaded.name == "demo"
        for prefix in ([], [0], [1, 2], [0, 1, 2]):
            assert m.score(prefix).tobytes() == loaded.score(prefix).tobytes()

    def test_constant_round_trip(self, tmp_path):
        v = build_vocab([["a"]])
        s = ConstantScorer(v, [0.5, -1.5, 2.0], name="const")
        save_scorer(s, tmp_path / "c.json")
        loaded = load_scorer(tmp_path / "c.json")
        np.testing.assert_array_equal(loaded.score([]), s.score([]))

    def test_bigram_round_trip(self, tmp_path):
        v = build_vocab([["a", "b"]])
        s = BigramMatrixScorer(v, np.arange(16.0).reshape(4, 4))
        save_scorer(s, tmp_path / "b.json")
        loaded = load_scorer(tmp_path / "b.json")
        np.testing.assert_array_equal(loaded.score([3]), s.score([3]))

    def test_save_is_deterministic(self, tmp_path):
        v = build_vocab([["a", "b", "c"]])
        m = train_ngram([[0, 1, 2, 0, 1]], order=2, vocab=v)
        save_scorer(m, tmp_path / "one.json")
        save_scorer(m, tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_float_logits_survive_round_trip_bitwise(self, tmp_path):
        v = build_vocab([["a"]])
        values = [1 / 3, np.pi, -2.5e-17]
        s = ConstantScorer(v, values)
        save_scorer(s, tmp_path / "c.json")
        loaded = load_scorer(tmp_path / "c.json")
        assert loaded.score([]).tobytes() == s.score([]).tobytes()

    def test_unknown_kind_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"kind": "transformer"}')
        with pytest.raises(InvalidConfigError):
            load_scorer(tmp_path / "bad.json")


ABC = Vocabulary(surface=("a", "b", "c"), eos=2, bos=None)


class TestNGramValidation:
    """Every malformed input is refused when the model is built."""

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_count(self, count):
        message = rf"context \(0,\), token 1: count {count} is negative"
        with pytest.raises(InvalidConfigError, match=message):
            NGramModel(ABC, 2, {(0,): {1: count}})

    @pytest.mark.parametrize("count", [2.7, "3", True, np.True_, None])
    def test_non_int_count(self, count):
        with pytest.raises(InvalidConfigError, match=r"context \(0,\), token 1: count .* is not an int"):
            NGramModel(ABC, 2, {(0,): {0: 1, 1: count}})

    def test_numpy_int_counts_and_ids_pass(self):
        m = NGramModel(ABC, 2, {(np.int64(0),): {np.int32(1): np.uint8(3)}})
        assert m.counts == {(0,): {1: 3}}
        assert [type(t) for t in (*next(iter(m.counts)), *m.counts[(0,)])] == [int, int]

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, "1.0", True])
    def test_bad_smoothing_k(self, k):
        with pytest.raises(InvalidConfigError, match="smoothing_k must be finite and > 0"):
            NGramModel(ABC, 2, {(0,): {1: 1}}, smoothing_k=k)

    @pytest.mark.parametrize("order", [2.5, True, 0, -1, "2", np.float64(2.0)])
    def test_bad_order(self, order):
        with pytest.raises(InvalidConfigError, match="order must be an int >= 1"):
            NGramModel(ABC, order, {})

    def test_bad_order_in_train_ngram(self):
        with pytest.raises(InvalidConfigError, match="order must be an int >= 1"):
            train_ngram([[0, 1]], order=2.5, vocab=ABC)

    def test_numpy_int_order_passes(self):
        assert NGramModel(ABC, np.int64(2), {(0,): {1: 1}}).order == 2

    @pytest.mark.parametrize("ctx", [(99,), (3,), (-1,)])
    def test_context_id_outside_vocabulary(self, ctx):
        message = rf"context \({ctx[0]},\): id {ctx[0]} outside vocabulary of size 3"
        with pytest.raises(InvalidConfigError, match=message):
            NGramModel(ABC, 2, {(0,): {1: 1}, ctx: {1: 1}})

    @pytest.mark.parametrize("ctx", [(1.9,), ("1",), (True,)])
    def test_non_int_context_id(self, ctx):
        with pytest.raises(InvalidConfigError, match="ids must be ints"):
            NGramModel(ABC, 2, {ctx: {1: 1}})

    def test_token_id_outside_vocabulary(self):
        with pytest.raises(InvalidConfigError, match=r"context \(1,\): token id 3 outside vocabulary"):
            NGramModel(ABC, 2, {(0,): {1: 1}, (1,): {0: 1, 3: 1}})

    def test_non_int_token_id(self):
        with pytest.raises(InvalidConfigError, match=r"context \(0,\): token 1.0 is not an int id"):
            NGramModel(ABC, 2, {(0,): {1.0: 1}})

    def test_context_length(self):
        with pytest.raises(InvalidConfigError, match=r"context \(0, 1\) has length 2, expected 1"):
            NGramModel(ABC, 2, {(0, 1): {1: 1}})

    def test_repeated_context_in_pairs(self):
        with pytest.raises(InvalidConfigError, match=r"context \(1,\) is listed twice"):
            NGramModel(ABC, 2, [[[1], [[0, 1]]], [[0], []], [[1], [[2, 1]]]])

    @pytest.mark.parametrize("row", [[[2, 1], [0, 1], [2, 4]], [[0, 1], [0, 2]]])
    def test_repeated_token_in_pairs(self, row):
        with pytest.raises(InvalidConfigError, match=r"context \(1,\): token (2|0) is counted twice"):
            NGramModel(ABC, 2, [[[0], [[0, 1]]], [[1], row]])

    @pytest.mark.parametrize("counts", [3, {(0,): 5}, [[[0], [[1, 2, 3]]]], [[[0]]]])
    def test_malformed_layout(self, counts):
        with pytest.raises(InvalidConfigError):
            NGramModel(ABC, 2, counts)

    @pytest.mark.parametrize("row", [{1: 2**52, 2: 2**52}, {1: 2**62}, {1: 2**63}, {1: 10**400}])
    def test_counts_must_sum_below_2_53(self, row):
        # Below 2**53 every total is exact in float64.
        with pytest.raises(InvalidConfigError, match=r"sum to less than 2\*\*53"):
            NGramModel(ABC, 2, {(0,): {0: 1}, (1,): row})

    def test_huge_ids_are_out_of_range(self):
        with pytest.raises(InvalidConfigError, match="outside vocabulary"):
            NGramModel(ABC, 2, {(2**70,): {1: 1}})
        with pytest.raises(InvalidConfigError, match="outside vocabulary"):
            NGramModel(ABC, 2, {(0,): {2**70: 1}})

    def test_pairs_equal_mapping(self):
        mapping = NGramModel(ABC, 2, {(0,): {2: 4, 1: 1}, (2,): {}})
        pairs = NGramModel(ABC, 2, [[[0], [[1, 1], [2, 4]]], [[2], []]])
        assert pairs.counts == mapping.counts
        for ctx in ([0], [1], [2], []):
            assert pairs.score(ctx).tobytes() == mapping.score(ctx).tobytes()


def dense_reference(counts, order, k, vocab, prefix):
    """The dense n-gram row: ``k`` everywhere, counts added, one log over V."""
    need = order - 1
    ctx = list(prefix[-need:]) if need else []
    ctx = tuple([vocab.pad] * (need - len(ctx)) + ctx)
    numerators = np.full(vocab.size, k, dtype=np.float64)
    total = k * vocab.size
    row = counts.get(ctx)
    if row:
        for t, c in row.items():
            numerators[t] += c
        total += sum(row.values())
    return np.log(numerators / total)


def _vocab(size):
    return Vocabulary(
        surface=tuple(f"t{i}" for i in range(size)),
        eos=size - 1,
        bos=size - 2 if size >= 2 else None,
    )


@st.composite
def ngram_cases(draw, max_order=3):
    size = draw(st.integers(1, 2000))
    order = draw(st.integers(1, max_order))
    k = draw(st.sampled_from([1e-6, 0.5, 1.0]) | st.floats(1e-9, 1e3))
    ids = st.integers(0, size - 1)
    rows = st.dictionaries(ids, st.integers(0, 2**40), max_size=12)
    counts = draw(st.dictionaries(st.tuples(*[ids] * (order - 1)), rows, max_size=6))
    prefixes = draw(st.lists(st.lists(ids, max_size=order + 1), min_size=1, max_size=4))
    # Also ask for every counted context, as the tail of a longer prefix.
    prefixes += [[draw(ids), *ctx] for ctx in counts]
    return _vocab(size), order, k, counts, prefixes


class TestNGramScoreBitwise:
    """``score`` returns the dense formula's bytes, in a fresh array each
    call, ``_sparse_row`` returns them as a fill and ascending unique ids,
    and ``_score_window`` returns them as the rows of one block."""

    def _check(self, vocab, order, k, counts, prefixes):
        model = NGramModel(vocab, order, counts, smoothing_k=k)
        wanted = [dense_reference(counts, order, k, vocab, prefix) for prefix in prefixes]
        for prefix, want in zip(prefixes, wanted):
            out = model.score(prefix)
            assert out.dtype == np.float64 and out.base is None
            assert out.tobytes() == want.tobytes()
            out[:] = 7.0
            assert model.score(prefix).tobytes() == want.tobytes()
            fill, ids, values = model._sparse_row(prefix)
            assert ids.dtype.kind == "i" and (np.diff(ids) > 0).all()
            row = np.full(vocab.size, fill)
            row[ids] = values
            assert row.tobytes() == want.tobytes()
        block = model._score_window(block_window(prefixes, order - 1))
        assert block.dtype == np.float64 and block.shape == (len(prefixes), vocab.size)
        assert block.tobytes() == np.stack(wanted).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(ngram_cases())
    def test_matches_dense_formula(self, case):
        self._check(*case)

    def test_wide_vocabulary(self):
        rng = np.random.default_rng(8)
        size = 32768
        counts = {
            (int(c),): {int(t): int(n) for t, n in zip(rng.integers(0, size, 8), rng.integers(1, 100, 8))}
            for c in rng.integers(0, size, 50)
        }
        counts[(size - 2,)] = {}
        counts[(0,)] = {5: 2**40, 6: 0}
        prefixes = [[c[0]] for c in counts] + [[], [1, 2, 3], [int(rng.integers(0, size))]]
        for k in (1e-6, 1.0):
            self._check(_vocab(size), 2, k, counts, prefixes)


class TestNGramRow:
    """A row is one context lookup, then a fill and one scatter of the
    context's counted logits, for a prefix of any length given as a
    ``TokenPrefix`` or as a plain list."""

    VOCAB = _vocab(7)
    CORPUS = [[0, 1, 2, 3, 1, 2, 4], [2, 3, 1, 0, 0, 1], [4, 4, 2, 1]]

    @staticmethod
    def prefixes(order):
        """Prefixes shorter than, as long as and longer than ``order - 1``."""
        need = order - 1
        lengths = sorted({max(need - 1, 0), need, need + 1, need + 4})
        ids = [1, 2, 3, 1, 0, 4, 2]
        return [ids[len(ids) - n :] if n else [] for n in lengths] + [[5], [0, 5]]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_fill_plus_scatter(self, order):
        model = train_ngram(self.CORPUS, order, self.VOCAB)
        prefixes = self.prefixes(order)
        rows = []
        for prefix in prefixes:
            fill, ids, values = model._sparse_row(prefix)
            want = np.full(self.VOCAB.size, fill)
            want[ids] = values
            dense = dense_reference(model.counts, order, 1.0, self.VOCAB, prefix)
            assert want.tobytes() == dense.tobytes()
            rows.append(want)
            checked = TokenPrefix(self.VOCAB.size, prefix)
            for given_as in (prefix, checked):
                assert model.score(given_as).tobytes() == want.tobytes()
            assert model.context_of(prefix) == model.context_of(checked)
            assert len(model.context_of(prefix)) == order - 1
        block = model._score_window(block_window(prefixes, order - 1))
        assert block.tobytes() == np.stack(rows).tobytes()

    def test_context_is_left_padded(self):
        model = train_ngram(self.CORPUS, 3, self.VOCAB)
        pad = self.VOCAB.pad
        assert model.context_of([]) == (pad, pad)
        assert model.context_of([4]) == (pad, 4)
        assert model.context_of(TokenPrefix(7, [0, 1, 2])) == (1, 2)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("bad, at", [([0, 7], 1), ([-1], 0), ([1, 2, 3, 99], 3)])
    def test_plain_list_out_of_range_names_position(self, order, bad, at):
        model = train_ngram(self.CORPUS, order, self.VOCAB)
        with pytest.raises(CorpusIngestionError, match=f"prefix position {at}: token id"):
            model.score(bad)


def block_window(prefixes, width):
    """A lockstep block's ids for ``prefixes``: one row each, right-aligned
    in at least ``width`` columns, -1 before a row's first id."""
    lead = max([width, *map(len, prefixes)])
    window = np.full((len(prefixes), lead), -1, dtype=np.int64)
    for row, prefix in zip(window, prefixes):
        row[lead - len(prefix) :] = prefix
    return window


def lockstep_rows(scorers, prompts, config):
    """Each row's trajectory from one lockstep block, by row."""
    rows = decoder._decode_lockstep(*scorers, prompts=prompts, config=config, seeds=range(len(prompts)))
    return dict(rows)


def with_object_keys(model):
    """A copy of ``model`` whose key column holds Python ints in an object
    array, as a table whose keys would not fit in int64 does."""
    int64_powers = scorers_module._key_powers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scorers_module, "_key_powers", lambda *args: int64_powers(*args).astype(object))
        copy = NGramModel(model.vocab, model.order, model.counts, model.smoothing_k, name=model.name)
    assert copy._keys.dtype == object
    return copy


def int64_edge(size):
    """The lowest order whose keys reach 2**63 at vocabulary size ``size``."""
    return next(order for order in range(2, 65) if size ** (order - 1) >= 2**63)


def context_tuple(prefix, need, pad):
    """The reference context of ``prefix``: its last ``need`` ids, left-padded."""
    padded = [pad] * need + list(prefix)
    return tuple(padded[len(padded) - need :])


@st.composite
def key_column_cases(draw):
    """An n-gram table of order 1 to 4, or one order below or at its
    vocabulary's int64 key edge, with prefixes that reach its contexts,
    contexts next to them, unseen and padded contexts, and ids 0 and V - 1."""
    size = draw(st.integers(2, 300))
    edge = int64_edge(size)
    order = draw(st.sampled_from([1, 2, 3, 4, edge - 1, edge]))
    need, pad = order - 1, _vocab(size).pad
    ids = st.integers(0, size - 1) | st.sampled_from([0, size - 1])
    short = draw(st.lists(st.lists(ids, max_size=need + 2), min_size=1, max_size=4))
    contexts = draw(st.lists(st.tuples(*[ids] * need), max_size=6))
    # Some padded contexts are counted too, so a short prefix can be seen.
    contexts += [context_tuple(p, need, pad) for p in short if draw(st.booleans())]
    contexts = list(dict.fromkeys(contexts))
    rows = [draw(st.dictionaries(ids, st.integers(0, 50), max_size=5)) for _ in contexts]
    prefixes = short + [[draw(ids), *ctx] for ctx in contexts]
    # The same context but for its last id: the same bucket, maybe unseen.
    prefixes += [[*ctx[:-1], draw(ids)] for ctx in contexts if ctx]
    k = draw(st.sampled_from([1e-6, 0.5, 1.0, 100.0]))
    return _vocab(size), order, k, dict(zip(contexts, rows)), prefixes


class TestNGramKeyedBlock:
    """A lockstep block reads an n-gram table's rows off its id window
    (``_score_window``) with ``score``'s bytes, by integer key, with the
    key column held as int64 or as Python ints, at any window width."""

    @settings(max_examples=150, deadline=None)
    @given(ngram_cases(max_order=4), st.integers(0, 5))
    def test_window_rows_equal_score(self, case, width):
        # Each prefix cut to its last ``width`` ids, in a window of
        # ``width`` columns: below, at or above order - 1.
        vocab, order, k, counts, prefixes = case
        prefixes = [prefix[max(len(prefix) - width, 0) :] for prefix in prefixes]
        model = NGramModel(vocab, order, counts, smoothing_k=k)
        assert model._keys.dtype == np.int64
        want = np.stack([model.score(prefix) for prefix in prefixes])
        window = block_window(prefixes, width)
        assert window.shape == (len(prefixes), width)
        for table in (model, with_object_keys(model)):
            block = table._score_window(window)
            assert block.dtype == np.float64 and block.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bos", [True, False])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_padded_and_unseen_contexts(self, bos, order):
        vocab = _vocab(9)
        if not bos:  # short contexts are padded with eos
            vocab = Vocabulary(surface=vocab.surface, eos=vocab.eos, bos=None)
        model = train_ngram([[3, 4, 0, 2, 3, 4, 1], [1], [0, 2, 3]], order, vocab, smoothing_k=0.5)
        prefixes = [[], [3], [3, 4], [2, 3, 4], [6, 6, 6, 6], [0, 2, 3, 4, 0]]
        rows = [model._row_of(prefix) for prefix in prefixes]
        if order > 1:
            assert model._unseen in rows and len(set(rows)) > 2
        want = np.stack([model.score(prefix) for prefix in prefixes])
        for table in (model, with_object_keys(model)):
            assert [table._row_of(prefix) for prefix in prefixes] == rows
            for width in (order - 1, order + 2):
                assert table._score_window(block_window(prefixes, width)).tobytes() == want.tobytes()

    def test_keys_past_int64_read_from_the_key_column(self):
        vocab = byte_vocab()  # V=258: 258**7 < 2**63 <= 258**8
        docs = [list(b"abcabd"), list(b"bcad"), list(b"dcba")]
        assert train_ngram(docs, 8, vocab)._keys.dtype == np.int64
        model = train_ngram(docs, 9, vocab, smoothing_k=0.5, name="base")
        assert model._keys.dtype == object
        prompts = [list(b"a"), list(b"abcab"), list(b"zzzzzzzzzz"), list(b"bcad")]
        want = np.stack([model.score(p) for p in prompts])
        for width in (0, 12):
            assert model._score_window(block_window(prompts, width)).tobytes() == want.tobytes()
        config = DecodeConfig(max_tokens=6, top_p=0.9)
        for row, trajectory in lockstep_rows((model, None, None), prompts, config).items():
            assert trajectory == decode(model, prompt=prompts[row], config=config.replace(seed=row))

    def test_overriding_subclass_is_called(self):
        data = Path(__file__).resolve().parent / "data"
        docs, vocab = load_corpus(data / "transfer_base.txt")
        trained = train_ngram(docs, 3, vocab, smoothing_k=0.5, name="base")

        class Counting(NGramModel):
            blocks = 0

            def _score_window(self, window):
                Counting.blocks += 1
                return super()._score_window(window)

        class Short(NGramModel):
            def _score_window(self, window):
                return super()._score_window(window)[:, 1:]

        counting = Counting(vocab, 3, trained.counts, 0.5, name="base")
        prompts = [[0], [1, 2], [3]]
        config = DecodeConfig(max_tokens=4)
        rows = lockstep_rows((counting, None, None), prompts, config)
        assert Counting.blocks > 0
        assert rows == lockstep_rows((trained, None, None), prompts, config)
        short = Short(vocab, 3, trained.counts, 0.5, name="base")
        message = f"scorer 'base' returned bad logits at step 0: expected 3 rows of {vocab.size} logits"
        with pytest.raises(DecodeError, match=re.escape(message)):
            lockstep_rows((short, None, None), prompts, config)


class TestNGramKeyColumn:
    """Every lookup of an n-gram table reads one sorted key column, and
    finds what a dict from each context tuple to its row finds."""

    @settings(max_examples=200, deadline=None)
    @given(key_column_cases())
    def test_lookups_equal_a_tuple_dict(self, case):
        vocab, order, k, counts, prefixes = case
        model = NGramModel(vocab, order, counts, smoothing_k=k)
        need, size = order - 1, vocab.size
        assert (model._keys.dtype == object) == (size**need >= 2**63)
        # The reference: one tuple per context, the rows in key order.
        row_of = {ctx: i for i, ctx in enumerate(sorted(counts))}
        assert model.counts == counts
        wanted = []
        for prefix in prefixes:
            ctx = context_tuple(prefix, need, vocab.pad)
            want = dense_reference(counts, order, k, vocab, prefix)
            assert model._row_of(prefix) == row_of.get(ctx, len(counts))
            assert model.score(prefix).tobytes() == want.tobytes()
            fill, ids, values = model._sparse_row(prefix)
            assert ids.tolist() == sorted(counts.get(ctx, {}))
            row = np.full(size, fill)
            row[ids] = values
            assert row.tobytes() == want.tobytes()
            wanted.append(want)
        # Each head reads only its first n ids.
        heads = [(TokenPrefix(size, [*p, size - 1, 0]), len(p)) for p in prefixes]
        assert model._greedy_rows(heads) == [int(np.argmax(w)) for w in wanted]
        for width in (need, need + 3):
            block = model._score_window(block_window(prefixes, width))
            assert block.tobytes() == np.stack(wanted).tobytes()

    @pytest.mark.parametrize("route", ["canonical", "json"])
    def test_repeated_context_named_as_first_listed(self, route, tmp_path):
        # (5, 5) and (1, 1) are both listed twice; (5, 5) comes first in
        # the file, though (1, 1) has the lower key.
        listed = [(5, 5), (1, 1), (2, 3), (5, 5), (1, 1)]
        model = NGramModel(_vocab(8), 3, {ctx: {} for ctx in set(listed)})
        path = tmp_path / "m.json"
        save_scorer(model, path)
        data = path.read_bytes()
        rows = ",".join(f"[[{a},{b}],[[0,{i + 1}]]]" for i, (a, b) in enumerate(listed))
        data = b'{"counts":[' + rows.encode() + data[data.index(b'],"kind"') :]
        path.write_bytes(data)
        payload = (
            scorers_module._canonical_payload(data)
            if route == "canonical"
            else scorers_module._json_payload(data, path)
        )
        assert payload is not None
        with pytest.raises(InvalidConfigError) as info:
            scorers_module._scorer_from(payload, path)
        assert str(info.value) == "context (5, 5) is listed twice"

    def test_table_keeps_no_python_object_per_context(self):
        """Built from _CountArrays, a table keeps about 50 bytes per context
        here: its bound, id count, fill, key, about one lookup bucket and
        the logit of its one counted id (the ids and counts are the
        caller's arrays). A tuple and a dict entry per context took it to
        about 165; the smallest Python object would cost 28 more."""
        size, n = 256, 20000
        rng = np.random.default_rng(0)
        keys = np.sort(rng.choice(size * size, n, replace=False))
        arrays = scorers_module._CountArrays(
            np.stack([keys // size, keys % size], axis=1), np.ones(n, np.int64), keys % 7, np.ones(n, np.int64)
        )
        vocab = _vocab(size)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = NGramModel(vocab, 3, arrays)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert model._unseen == n
        assert kept < 64 * n + 8 * (size + 1) + 4096


def _load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestNGramFileRoundTrip:
    """Loaded counts equal the file's rows, and saving again gives its bytes."""

    def _check_files(self, paths, tmp_path):
        for path in paths:
            data = path.read_bytes()
            payload = json.loads(data)
            model = load_scorer(path)
            assert isinstance(model, NGramModel)
            assert model.counts == {tuple(ctx): dict(row) for ctx, row in payload["counts"]}
            save_scorer(model, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == data

    def test_decode_wide_scorers(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        inputs = _load_module(root / "perfbench" / "inputs.py", "perfbench_inputs")
        inputs.generate("decode-wide", 1, tmp_path / "wide")
        names = ("base.json", "expert.json", "expert_base.json")
        self._check_files([tmp_path / "wide" / n for n in names], tmp_path)

    def test_transfer_fixture(self, tmp_path):
        data = Path(__file__).resolve().parent / "data"
        base_docs, vocab = load_corpus(data / "transfer_base.txt")
        expert_docs, _ = load_corpus(data / "transfer_expert.txt", vocab=vocab)
        models = {
            "base": train_ngram(base_docs, 3, vocab, smoothing_k=0.5),
            "expert": train_ngram(expert_docs, 2, vocab, smoothing_k=0.5),
            "expert_base": train_ngram(base_docs, 2, vocab, smoothing_k=0.5),
        }
        for name, model in models.items():
            save_scorer(model, tmp_path / f"{name}.json")
        self._check_files([tmp_path / f"{name}.json" for name in models], tmp_path)


class TestLoadScorerFileErrors:
    """A malformed scorer file is refused by name, with its path."""

    def _ngram_payload(self):
        model = NGramModel(ABC, 2, {(0,): {1: 2}})
        return {
            "kind": "ngram",
            "name": "m",
            "tokenizer": "whitespace",
            "vocab": ABC.to_dict(),
            "order": 2,
            "smoothing_k": 1.0,
            "counts": [[list(ctx), sorted(row.items())] for ctx, row in model.counts.items()],
        }

    def test_top_level_list(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([self._ngram_payload()]))
        message = f"expected a JSON object in {path}, got list"
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            load_scorer(path)

    @pytest.mark.parametrize("key", ["vocab", "counts", "order", "smoothing_k"])
    def test_missing_key(self, tmp_path, key):
        payload = self._ngram_payload()
        del payload[key]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError, match=re.escape(f"missing key '{key}' in {path}")):
            load_scorer(path)

    @pytest.mark.parametrize(
        "vocab, message",
        [
            ({}, "vocab is missing key 'surface'"),
            ([1], "vocab must be a JSON object, got list"),
            ("abc", "vocab must be a JSON object, got str"),
            ({"surface": ["a", "b"]}, "vocab is missing key 'eos'"),
            ({"surface": "ab", "eos": 0}, "vocab 'surface' must be a list of str"),
            ({"surface": ["a", 1], "eos": 0}, "vocab 'surface' must be a list of str"),
            ({"surface": ["a", "b"], "eos": "0"}, "vocab 'eos' must be an int, got str"),
            ({"surface": ["a", "b"], "eos": 1.0}, "vocab 'eos' must be an int, got float"),
            ({"surface": ["a", "b"], "eos": True}, "vocab 'eos' must be an int, got bool"),
            ({"surface": ["a", "b"], "eos": 0, "bos": False}, "vocab 'bos' must be an int, got bool"),
            ({"surface": ["a", "b"], "eos": 0, "bos": "1"}, "vocab 'bos' must be an int, got str"),
            ({"surface": ["a", "b"], "eos": 2}, "eos id 2 out of range for size 2"),
        ],
    )
    @pytest.mark.parametrize("kind", ["ngram", "constant"])
    def test_bad_vocab(self, tmp_path, vocab, message, kind):
        payload = self._ngram_payload()
        if kind == "constant":
            payload = {"kind": "constant", "logits": [0.0, 0.0]}
        payload["vocab"] = vocab
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(f'{message} in {path}')}$"):
            load_scorer(path)

    def test_null_bos_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        vocab = {"surface": ["a", "b"], "eos": 1, "bos": None}
        path.write_text(json.dumps({"kind": "constant", "vocab": vocab, "logits": [0.0, 1.0]}))
        assert load_scorer(path).vocab == Vocabulary(("a", "b"), eos=1)

    @pytest.mark.parametrize("data", [b'{"kind": "ngram",', b"", b'{"kind": "ngram"} x', b"\xff{}"])
    def test_invalid_json(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(InvalidConfigError, match=re.escape(f"invalid JSON in {path}: ")):
            load_scorer(path)


class TestLoadScorerCollector:
    """``load_scorer`` pauses the cyclic collector and leaves it as it found it."""

    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "m.json"
        save_scorer(train_ngram([[0, 1, 2, 0]], 2, ABC), path)
        return path

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_state_restored(self, collector, model_path):
        load_scorer(model_path)
        assert gc.isenabled() is collector

    def test_state_restored_when_load_raises(self, collector, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "ngram"}')
        with pytest.raises(InvalidConfigError, match="missing key 'vocab'"):
            load_scorer(path)
        assert gc.isenabled() is collector

    def test_paused_while_building(self, collector, model_path, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return NGramModel(*args, **kwargs)

        monkeypatch.setattr(scorers_module, "NGramModel", spy)
        load_scorer(model_path)
        assert seen == [False]
        assert gc.isenabled() is collector


@st.composite
def count_tables(draw, counted=False):
    """A valid table in the layout ``save_scorer`` writes, and its vocabulary.

    Ids are Python or NumPy ints. With ``counted``, the first row counts
    at least one token.
    """
    size = draw(st.integers(1, 12))
    width = draw(st.integers(0, 2))
    ids = st.integers(0, size - 1)
    ids = ids | ids.map(np.int64) | ids.map(np.int32)
    contexts = draw(
        st.lists(
            st.tuples(*[ids] * width),
            min_size=int(counted),
            max_size=6,
            unique_by=lambda c: tuple(map(int, c)),
        )
    )
    rows = [
        draw(st.dictionaries(ids, st.integers(0, 50), min_size=int(counted and not i), max_size=size))
        for i in range(len(contexts))
    ]
    table = [[list(c), [[t, n] for t, n in row.items()]] for c, row in zip(contexts, rows)]
    return _vocab(size), width, table


class TestNGramLoadProperties:
    """Random tables load to the dense formula; one fault is named as before."""

    @settings(max_examples=100, deadline=None)
    @given(table=count_tables(), k=st.sampled_from([0.5, 1.0, 3.0]))
    def test_valid_tables_load_to_dense_formula(self, table, k, tmp_path_factory):
        vocab, width, pairs = table
        counts = {tuple(map(int, c)): {int(t): int(n) for t, n in row} for c, row in pairs}
        built = NGramModel(vocab, width + 1, pairs, smoothing_k=k)
        path = tmp_path_factory.mktemp("table") / "m.json"
        save_scorer(built, path)
        data = path.read_bytes()
        loaded = load_scorer(path)
        assert loaded.counts == built.counts == counts
        prefixes = [list(c) for c in counts] + [[], [vocab.size - 1] * (width + 1)]
        for model in (built, loaded):
            for prefix in prefixes:
                want = dense_reference(counts, width + 1, k, vocab, prefix)
                assert model.score(prefix).tobytes() == want.tobytes()
        save_scorer(loaded, path)
        assert path.read_bytes() == data

    @settings(max_examples=300, deadline=None)
    @given(table=count_tables(counted=True), data=st.data())
    def test_single_fault_gives_the_row_walk_message(self, table, data):
        """The message is ``_first_bad_entry``'s, or the context or total one."""
        vocab, width, pairs = table
        size = vocab.size
        outside = st.integers(size, 2**70) | st.integers(-(2**70), -1)
        not_int = st.sampled_from([True, False, np.True_, 1.5, 2.0, "3", None])
        faults = ["pair_length", "id_type", "count_type", "negative", "id_range", "twice"]
        faults += ["huge_count", "context_twice"] + ["context_type", "context_range"] * bool(width)
        fault = data.draw(st.sampled_from(faults))
        ctx, row = data.draw(st.sampled_from([p for p in pairs if p[1] or fault.startswith("context")]))
        j = data.draw(st.integers(0, max(len(row) - 1, 0)))
        expected = None
        if fault == "context_twice":
            pairs.append([list(ctx), []])
            expected = f"context {tuple(map(int, ctx))} is listed twice"
        elif fault == "context_type":
            ctx[data.draw(st.integers(0, width - 1))] = data.draw(not_int)
        elif fault == "context_range":
            ctx[data.draw(st.integers(0, width - 1))] = data.draw(outside)
        elif fault == "pair_length":
            row[j] = data.draw(st.sampled_from([row[j][:1], row[j] + [1], []]))
        elif fault == "id_type":
            row[j][0] = data.draw(not_int)
        elif fault == "count_type":
            row[j][1] = data.draw(not_int)
        elif fault == "negative":
            row[j][1] = data.draw(st.integers(-(2**70), -1))
        elif fault == "id_range":
            row[j][0] = data.draw(outside)
        elif fault == "twice":
            row.insert(data.draw(st.integers(0, len(row))), [row[j][0], 1])
        elif fault == "huge_count":
            row[j][1] = data.draw(st.integers(2**63, 2**70) | st.just(10**400))
            expected = "n-gram counts must sum to less than 2**53"
        if expected is None:
            keys, rows = [c for c, _ in pairs], [r for _, r in pairs]
            expected = scorers_module._first_bad_entry(keys, rows, width, size)
        with pytest.raises(InvalidConfigError) as info:
            NGramModel(vocab, width + 1, pairs)
        assert str(info.value) == expected


TABLE = ("_bounds", "_ids", "_counts", "_logits", "_fill", "_key_list", "_keys", "_buckets", "_pad_keys")


def json_route(path):
    """The scorer ``load_scorer``'s json route builds from ``path``."""
    data = Path(path).read_bytes()
    return scorers_module._scorer_from(scorers_module._json_payload(data, path), path)


def canonical_load(path):
    """``load_scorer(path)`` with the size rule lifted, so that a file of
    any size takes the canonical route when it can."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scorers_module, "_CANONICAL_MIN_BYTES", 0)
        return load_scorer(path)


def refuse_json_route(data, path):
    raise AssertionError(f"{path} left the canonical route")


def outcome(load, path):
    """The model ``load(path)`` returns, or its exception's type and text."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_table(got, want):
    for name in TABLE:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        else:
            assert type(a) is type(b) and repr(a) == repr(b), name


def assert_loads_as_json_route(path):
    want, got = outcome(json_route, path), outcome(canonical_load, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_table(got, want)


@st.composite
def ngram_models(draw, max_size=300):
    """An n-gram model of order 1 to 3: empty rows, ids up to V - 1, and
    sometimes one count that brings the total to 2**53 - 1."""
    size = draw(st.integers(1, max_size))
    width = draw(st.integers(0, 2))
    ids = st.integers(0, size - 1) | st.just(size - 1)
    contexts = draw(st.lists(st.tuples(*[ids] * width), max_size=6, unique=True))
    rows = [draw(st.dictionaries(ids, st.integers(0, 99), max_size=6)) for _ in contexts]
    counted = [(row, t) for row in rows for t in row]
    if counted and draw(st.booleans()):
        row, t = draw(st.sampled_from(counted))
        row[t] += 2**53 - 1 - sum(sum(r.values()) for r in rows)
    k = draw(st.sampled_from([0.5, 1.0, 1e-6]))
    return NGramModel(_vocab(size), width + 1, dict(zip(contexts, rows)), k)


# A trigram file in the canonical layout, and edits of it that json.loads
# reads differently, refuses, or reads alike in another layout.
SMALL = NGramModel(_vocab(12), 3, {(0, 1): {2: 3, 5: 10}, (1, 2): {}, (11, 11): {0: 1, 11: 7}})
EDITS = {
    "leading zero id": ("[[2,3]", "[[02,3]"),
    "leading zero count": ("[5,10]", "[5,010]"),
    "double zero": ("[5,10]", "[5,00]"),
    "negative": ("[5,10]", "[5,-1]"),
    "float": ("[5,10]", "[5,1.0]"),
    "exponent": ("[5,10]", "[5,1e1]"),
    "true": ("[[2,3]", "[[true,3]"),
    "space": ("[5,10]", "[5, 10]"),
    "newline": ("]],[[1,2]", "]],\n[[1,2]"),
    "second counts key": (',"kind"', ',"counts":[],"kind"'),
    "order true": ('"order":3', '"order":true'),
    "order float": ('"order":3', '"order":3.0'),
    "order zero": ('"order":3', '"order":0'),
    "order too wide": ('"order":3', '"order":99'),
    "empty slot": ("[[2,3]", "[[,3]"),
    "double comma": ("[5,10]", "[5,,10]"),
    "trailing comma": ("[5,10]]", "[5,10],]"),
    "wide context": ("[[1,2],", "[[1,2,2],"),
    "pair of three": ("[5,10]", "[5,10,1]"),
    "lone count": ("[5,10]", "[10]"),
    "18 digits": ("[5,10]", "[5," + "1" * 18 + "]"),
    "19 digits": ("[5,10]", "[5," + "1" * 19 + "]"),
    "5000 digits": ("[5,10]", "[5," + "9" * 5000 + "]"),
    "id outside": ("[11,7]", "[12,7]"),
    "token twice": ("[5,10]", "[2,10]"),
    "context twice": ("[[1,2],[]]", "[[0,1],[]]"),
    "unsorted row": ("[[2,3],[5,10]]", "[[5,10],[2,3]]"),
    "object row": ("[[2,3],[5,10]]", '{"2":3}'),
    "no rest": (',"kind"', '}  ,"kind"'),
    "not UTF-8": ('"name":"ngram"', '"name":"\udcff"'),
}


class TestCanonicalRoute:
    """A file ``save_scorer`` wrote loads to the json route's table without
    ``json.loads`` reading its counts; any other file loads (or fails) as
    the json route does."""

    @settings(max_examples=150, deadline=None)
    @given(model=ngram_models())
    def test_saved_model_loads_to_the_json_route_table(self, model, tmp_path_factory):
        path = tmp_path_factory.mktemp("m") / "m.json"
        save_scorer(model, path)
        want = json_route(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scorers_module, "_json_payload", refuse_json_route)
            got = canonical_load(path)
        assert_same_table(got, want)
        assert got.counts == model.counts

    @settings(max_examples=300, deadline=None)
    @given(model=ngram_models(max_size=20), data=st.data())
    def test_one_byte_edit_loads_as_the_json_route(self, model, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("m") / "m.json"
        save_scorer(model, path)
        text = bytearray(path.read_bytes())
        counts_end = text.index(b'"', len(b'{"counts":'))
        at = data.draw(st.integers(0, counts_end) | st.integers(0, len(text) - 1))
        byte = data.draw(st.sampled_from(b'0123456789[],-. "etnrufal:{}\xff'))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "replace":
            text[at] = byte
        elif edit == "insert":
            text.insert(at, byte)
        else:
            del text[at]
        path.write_bytes(bytes(text))
        assert_loads_as_json_route(path)

    @pytest.mark.parametrize("old, new", EDITS.values(), ids=EDITS.keys())
    def test_named_edit_loads_as_the_json_route(self, old, new, tmp_path):
        path = tmp_path / "m.json"
        save_scorer(SMALL, path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_bytes(text.replace(old, new).encode("utf-8", "surrogateescape"))
        assert_loads_as_json_route(path)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_saved_files_above_the_size_rule_stay_canonical(self, order, tmp_path, monkeypatch):
        """Fails if a file ``save_scorer`` wrote, of at least
        ``_CANONICAL_MIN_BYTES`` bytes, reaches the json route."""
        rng = np.random.default_rng(order)
        size = 600
        rows = {
            tuple(map(int, rng.integers(0, size, order - 1))): {
                int(t): int(rng.integers(0, 10**9)) for t in rng.integers(0, size, rng.integers(0, 5))
            }
            for _ in range(120)
        }
        rows[(size - 1,) * (order - 1)] = {size - 1: 1}
        rows[(0,) * (order - 1)] = {}
        model = NGramModel(_vocab(size), order, rows)
        path = tmp_path / "m.json"
        save_scorer(model, path)
        assert path.stat().st_size >= scorers_module._CANONICAL_MIN_BYTES
        want = json_route(path)
        monkeypatch.setattr(scorers_module, "_json_payload", refuse_json_route)
        assert_same_table(load_scorer(path), want)

    def test_overlong_count_names_the_path(self, tmp_path):
        """A count past ``int``'s 4300-digit limit goes to the json route,
        which names the file."""
        model = NGramModel(_vocab(600), 2, {(c,): {c: c + 1} for c in range(600)})
        path = tmp_path / "m.json"
        save_scorer(model, path)
        path.write_text(path.read_text().replace("[[7,8]]", "[[7,%s]]" % ("9" * 5000), 1))
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(f'invalid JSON in {path}: Exceeds the limit')}"):
            load_scorer(path)

    def test_decimals_of_every_length(self):
        numbers = [0, 7, 10, 99, 12345678, 10**8, 123456789, 10**16 - 1, 10**17, 10**18 - 1]
        numbers += [int("9" * n) for n in range(1, 19)] + [int("1" + "0" * (n - 1)) for n in range(1, 19)]
        text = b'{"counts":[' + b",".join(b"%d" % n for n in numbers) + b"]"
        buf = np.frombuffer(text, dtype=np.uint8)
        lengths = np.array([len(str(n)) for n in numbers], dtype=np.int64)
        ends = np.cumsum(lengths + 1) + len(b'{"counts":')
        assert scorers_module._decimals(buf, ends, lengths).tolist() == numbers

    def test_peak_memory_is_a_small_multiple_of_the_table(self, tmp_path):
        """The canonical route builds no JSON tree: the traced peak of a
        V=8192 load stays under 3x what the loaded model keeps (about 4.5x
        when ``json.loads`` read the whole file)."""
        size = 8192
        rng = np.random.default_rng(0)
        rows = {
            (c,): dict(zip(rng.choice(size, 8, replace=False).tolist(), rng.integers(1, 100, 8).tolist()))
            for c in range(size)
        }
        path = tmp_path / "m.json"
        save_scorer(NGramModel(_vocab(size), 2, rows), path)
        del rows
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = load_scorer(path)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.vocab.size == size
        assert peak - before < 3 * (after - before)
