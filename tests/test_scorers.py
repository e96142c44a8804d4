import numpy as np
import pytest

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
