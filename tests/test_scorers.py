import gc
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadecode import scorers as scorers_module
from deltadecode.core import InvalidConfigError, Vocabulary
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
def ngram_cases(draw):
    size = draw(st.integers(1, 2000))
    order = draw(st.integers(1, 3))
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
    and ``_score_rows`` returns them as the rows of one block."""

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
        block = model._score_rows(prefixes)
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
