"""Local scorers: deterministic maps from a token prefix to a logit vector.

A scorer owns a :class:`~deltadecode.core.Vocabulary` and returns one finite
float64 logit per token id. Synthetic scorers (constant / table / bigram
matrix) exist for tests and protocol stubs; :class:`NGramModel` is the
desk-scale stand-in for a real language model.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from .core import (
    InvalidConfigError,
    TokenPrefix,
    Vocabulary,
    VocabularyMismatchError,
    as_logits,
)

__all__ = [
    "BOS_TOKEN",
    "EOS_TOKEN",
    "BigramMatrixScorer",
    "ConstantScorer",
    "CorpusIngestionError",
    "NGramModel",
    "Scorer",
    "TableScorer",
    "UnknownPrefixError",
    "build_vocab",
    "byte_vocab",
    "encode_text",
    "load_corpus",
    "load_scorer",
    "load_vocab",
    "render_tokens",
    "save_scorer",
    "save_vocab",
    "train_ngram",
]

BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"

TOKENIZERS = ("whitespace", "byte")


class CorpusIngestionError(ValueError):
    """A corpus or prompt contains a token outside the vocabulary."""


class UnknownPrefixError(KeyError):
    """A table scorer was asked about a prefix it has no row for."""


class Scorer(ABC):
    """Pure function from token-id prefix to a full-vocabulary logit vector.

    Implementations must be deterministic: identical prefixes yield
    bitwise-identical logits, with no hidden state between calls. ``score``
    receives any ``Sequence`` of ids and passes it through
    :meth:`_check_prefix` before reading it; it must not modify it.
    """

    kind = "abstract"

    def __init__(self, vocab: Vocabulary, name: str = "", tokenizer: str = "whitespace"):
        if tokenizer not in TOKENIZERS:
            raise InvalidConfigError(f"tokenizer must be one of {TOKENIZERS}, got {tokenizer!r}")
        self.vocab = vocab
        self.name = name or self.kind
        self.tokenizer = tokenizer

    @abstractmethod
    def score(self, prefix: Sequence[int]) -> np.ndarray:
        """Return logits for the next token after ``prefix``."""

    def _check_prefix(self, prefix: Sequence[int]) -> TokenPrefix:
        """``prefix`` with every id known to be in range for this vocabulary.

        A :class:`TokenPrefix` of this vocabulary's size is returned as it
        is; any other sequence is checked id by id into a new one.
        """
        size = self.vocab.size
        if isinstance(prefix, TokenPrefix) and prefix.size == size:
            return prefix
        try:
            return TokenPrefix(size, prefix)
        except VocabularyMismatchError as exc:
            raise CorpusIngestionError(f"prefix {exc}") from None


class ConstantScorer(Scorer):
    """Returns the same logit vector regardless of prefix."""

    kind = "constant"

    def __init__(self, vocab, logits, name="", tokenizer="whitespace"):
        super().__init__(vocab, name, tokenizer)
        self._logits = as_logits(logits, vocab.size).copy()

    def score(self, prefix):
        self._check_prefix(prefix)
        return self._logits.copy()


class TableScorer(Scorer):
    """Looks the prefix up in an explicit table of logit rows.

    A missing prefix raises :class:`UnknownPrefixError` unless a default
    row was supplied.
    """

    kind = "table"

    def __init__(self, vocab, table: Mapping, default=None, name="", tokenizer="whitespace"):
        super().__init__(vocab, name, tokenizer)
        self._table = {
            tuple(int(t) for t in key): as_logits(row, vocab.size).copy()
            for key, row in table.items()
        }
        self._default = None if default is None else as_logits(default, vocab.size).copy()

    def score(self, prefix):
        key = tuple(self._check_prefix(prefix))
        row = self._table.get(key)
        if row is None:
            if self._default is None:
                raise UnknownPrefixError(f"no table row for prefix {key} and no default row")
            row = self._default
        return row.copy()


class BigramMatrixScorer(Scorer):
    """Returns the matrix row indexed by the last prefix token."""

    kind = "bigram_matrix"

    def __init__(self, vocab, matrix, name="", tokenizer="whitespace"):
        super().__init__(vocab, name, tokenizer)
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.shape != (vocab.size, vocab.size):
            raise InvalidConfigError(
                f"bigram matrix must be {vocab.size}x{vocab.size}, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise InvalidConfigError("bigram matrix contains non-finite entries")
        self._matrix = arr.copy()

    def score(self, prefix):
        ids = self._check_prefix(prefix)
        if not ids:
            raise InvalidConfigError("bigram scorer needs at least one prefix token")
        return self._matrix[ids[-1]].copy()


class NGramModel(Scorer):
    """Add-k smoothed n-gram model scoring exact log-probabilities.

    ``counts`` maps a context tuple (the ``order - 1`` most recent tokens,
    left-padded with the vocabulary's pad id at sequence start) to per-token
    occurrence counts. Logits are ``ln((count + k) / (total + k * V))``, so
    they exponentiate back to the smoothed conditional distribution.
    """

    kind = "ngram"

    def __init__(
        self,
        vocab,
        order: int,
        counts: Mapping,
        smoothing_k: float = 1.0,
        name="",
        tokenizer="whitespace",
    ):
        super().__init__(vocab, name, tokenizer)
        if order < 1:
            raise InvalidConfigError(f"order must be >= 1, got {order}")
        if smoothing_k <= 0:
            raise InvalidConfigError(f"smoothing_k must be > 0, got {smoothing_k}")
        self.order = int(order)
        self.smoothing_k = float(smoothing_k)
        self._counts: dict[tuple[int, ...], dict[int, int]] = {}
        self._totals: dict[tuple[int, ...], int] = {}
        for key, row in counts.items():
            ctx = tuple(int(t) for t in key)
            if len(ctx) != self.order - 1:
                raise InvalidConfigError(
                    f"context {ctx} has length {len(ctx)}, expected {self.order - 1}"
                )
            clean = {int(t): int(c) for t, c in dict(row).items()}
            for t in clean:
                if not 0 <= t < vocab.size:
                    raise InvalidConfigError(f"count for token id {t} outside vocabulary")
            self._counts[ctx] = clean
            self._totals[ctx] = sum(clean.values())

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        return {ctx: dict(row) for ctx, row in self._counts.items()}

    def context_of(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Last ``order - 1`` tokens of ``prefix``, left-padded at the start."""
        need = self.order - 1
        ids = list(prefix[-need:]) if need else []
        if len(ids) < need:
            ids = [self.vocab.pad] * (need - len(ids)) + ids
        return tuple(ids)

    def score(self, prefix):
        ctx = self.context_of(self._check_prefix(prefix))
        k = self.smoothing_k
        size = self.vocab.size
        numerators = np.full(size, k, dtype=np.float64)
        total = k * size
        row = self._counts.get(ctx)
        if row:
            for t, c in row.items():
                numerators[t] += c
            total += self._totals[ctx]
        return np.log(numerators / total)


def train_ngram(
    corpus: Sequence[Sequence[int]],
    order: int,
    vocab: Vocabulary,
    smoothing_k: float = 1.0,
    append_eos: bool = True,
    name: str = "",
    tokenizer: str = "whitespace",
) -> NGramModel:
    """Count every length-``order`` window in ``corpus`` and build a model.

    When the vocabulary has a bos token, documents are left-padded with it
    so the first token gets a context too. Without a bos, only windows
    whose full context lies inside the document are counted; padding with
    a real token would fabricate transitions that never occurred.
    ``append_eos`` extends each document with eos so trained models learn
    where documents end (pass False to count the raw tokens only).
    """
    if order < 1:
        raise InvalidConfigError(f"order must be >= 1, got {order}")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    need = order - 1
    for doc_index, doc in enumerate(corpus):
        try:
            ids = [int(t) for t in doc]
        except (TypeError, ValueError):
            raise CorpusIngestionError(
                f"document {doc_index}: expected token ids, got "
                f"non-integer tokens (encode surfaces with encode_text first)"
            ) from None
        for pos, t in enumerate(ids):
            if not 0 <= t < vocab.size:
                raise CorpusIngestionError(
                    f"document {doc_index}, position {pos}: token id {t} "
                    f"outside vocabulary of size {vocab.size}"
                )
        if append_eos:
            ids = ids + [vocab.eos]
        seq = ([vocab.bos] * need + ids) if vocab.bos is not None else ids
        for i in range(need, len(seq)):
            ctx = tuple(seq[i - need : i])
            row = counts.setdefault(ctx, {})
            row[seq[i]] = row.get(seq[i], 0) + 1
    return NGramModel(vocab, order, counts, smoothing_k, name=name, tokenizer=tokenizer)


def byte_vocab() -> Vocabulary:
    """Vocabulary for byte tokenization: ids 0..255 plus bos and eos."""
    surface = tuple(chr(b) for b in range(256)) + (BOS_TOKEN, EOS_TOKEN)
    return Vocabulary(surface=surface, eos=257, bos=256)


def build_vocab(token_lists: Sequence[Sequence[str]]) -> Vocabulary:
    """Vocabulary from surfaces in first-occurrence order, specials appended."""
    seen: dict[str, None] = {}
    for tokens in token_lists:
        for tok in tokens:
            seen.setdefault(tok, None)
    seen.pop(BOS_TOKEN, None)
    seen.pop(EOS_TOKEN, None)
    surface = tuple(seen) + (BOS_TOKEN, EOS_TOKEN)
    return Vocabulary(surface=surface, eos=len(surface) - 1, bos=len(surface) - 2)


def load_vocab(path) -> Vocabulary:
    """Read a vocabulary file: one token surface per line, line = token id.

    ``<bos>`` / ``<eos>`` lines are recognized as the specials; missing
    specials are appended after the listed tokens.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    surface = list(lines)
    for special in (BOS_TOKEN, EOS_TOKEN):
        if special not in surface:
            surface.append(special)
    return Vocabulary(
        surface=tuple(surface),
        eos=surface.index(EOS_TOKEN),
        bos=surface.index(BOS_TOKEN),
    )


def save_vocab(vocab: Vocabulary, path) -> None:
    Path(path).write_text("\n".join(vocab.surface) + "\n", encoding="utf-8")


def _tokenize_line(line: str, mode: str) -> list[str]:
    if mode == "whitespace":
        return line.split()
    if mode == "byte":
        return [chr(b) for b in line.encode("utf-8")]
    raise InvalidConfigError(f"tokenizer must be one of {TOKENIZERS}, got {mode!r}")


def load_corpus(path, mode: str = "whitespace", vocab: Vocabulary | None = None):
    """Read a one-document-per-line UTF-8 corpus file.

    Returns ``(documents, vocab)`` where documents are token-id lists.
    Without an explicit ``vocab`` one is built from the corpus; with one,
    unknown tokens raise :class:`CorpusIngestionError` naming the line and
    token position (both 1-based).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    token_lines = [_tokenize_line(line, mode) for line in lines]
    if vocab is None:
        vocab = byte_vocab() if mode == "byte" else build_vocab(token_lines)
    index = {tok: i for i, tok in enumerate(vocab.surface)}
    documents = []
    for lineno, tokens in enumerate(token_lines, start=1):
        ids = []
        for pos, tok in enumerate(tokens, start=1):
            if tok not in index:
                raise CorpusIngestionError(
                    f"line {lineno}, token {pos}: {tok!r} not in vocabulary"
                )
            ids.append(index[tok])
        documents.append(ids)
    return documents, vocab


def encode_text(text: str, vocab: Vocabulary, mode: str = "whitespace") -> list[int]:
    """Tokenize ``text`` into ids; unknown tokens raise an ingestion error."""
    index = {tok: i for i, tok in enumerate(vocab.surface)}
    ids = []
    for pos, tok in enumerate(_tokenize_line(text, mode), start=1):
        if tok not in index:
            raise CorpusIngestionError(f"token {pos}: {tok!r} not in vocabulary")
        ids.append(index[tok])
    return ids


def render_tokens(
    token_ids: Sequence[int],
    vocab: Vocabulary,
    mode: str = "whitespace",
    skip_special: bool = True,
) -> str:
    """Surface form of ``token_ids``; specials are dropped by default."""
    specials = {vocab.eos} | ({vocab.bos} if vocab.bos is not None else set())
    kept = [int(t) for t in token_ids if not (skip_special and int(t) in specials)]
    for t in kept:
        if not 0 <= t < vocab.size:
            raise CorpusIngestionError(f"token id {t} outside vocabulary of size {vocab.size}")
    if mode == "byte":
        return "".join(vocab.surface[t] for t in kept)
    return " ".join(vocab.surface[t] for t in kept)


def _scorer_payload(scorer: Scorer) -> dict:
    payload = {
        "kind": scorer.kind,
        "name": scorer.name,
        "tokenizer": scorer.tokenizer,
        "vocab": scorer.vocab.to_dict(),
    }
    if isinstance(scorer, NGramModel):
        payload["order"] = scorer.order
        payload["smoothing_k"] = scorer.smoothing_k
        payload["counts"] = [
            [list(ctx), sorted((t, c) for t, c in row.items())]
            for ctx, row in sorted(scorer.counts.items())
        ]
    elif isinstance(scorer, ConstantScorer):
        payload["logits"] = [float(x) for x in scorer._logits]
    elif isinstance(scorer, BigramMatrixScorer):
        payload["matrix"] = [[float(x) for x in row] for row in scorer._matrix]
    elif isinstance(scorer, TableScorer):
        payload["entries"] = [
            [list(key), [float(x) for x in row]]
            for key, row in sorted(scorer._table.items())
        ]
        default = scorer._default
        payload["default"] = None if default is None else [float(x) for x in default]
    else:
        raise InvalidConfigError(f"cannot serialize scorer kind {scorer.kind!r}")
    return payload


def save_scorer(scorer: Scorer, path) -> None:
    """Write a scorer to a deterministic JSON file."""
    data = json.dumps(_scorer_payload(scorer), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(data + "\n", encoding="utf-8")


def load_scorer(path) -> Scorer:
    """Load a scorer saved by :func:`save_scorer`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = payload.get("kind")
    if kind not in ("ngram", "constant", "bigram_matrix", "table"):
        raise InvalidConfigError(f"unknown scorer kind {kind!r} in {path}")
    vocab = Vocabulary.from_dict(payload["vocab"])
    name = payload.get("name", "")
    tokenizer = payload.get("tokenizer", "whitespace")
    if kind == "ngram":
        counts = {tuple(ctx): dict(row) for ctx, row in payload["counts"]}
        return NGramModel(
            vocab,
            payload["order"],
            counts,
            payload["smoothing_k"],
            name=name,
            tokenizer=tokenizer,
        )
    if kind == "constant":
        return ConstantScorer(vocab, payload["logits"], name=name, tokenizer=tokenizer)
    if kind == "bigram_matrix":
        return BigramMatrixScorer(vocab, payload["matrix"], name=name, tokenizer=tokenizer)
    table = {tuple(key): row for key, row in payload["entries"]}
    return TableScorer(
        vocab, table, default=payload.get("default"), name=name, tokenizer=tokenizer
    )
