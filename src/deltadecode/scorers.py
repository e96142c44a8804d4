"""Local scorers: deterministic maps from a token prefix to a logit vector.

A scorer owns a :class:`~deltadecode.core.Vocabulary` and returns one finite
float64 logit per token id. Synthetic scorers (constant / table / bigram
matrix) exist for tests and protocol stubs; :class:`NGramModel` is the
desk-scale stand-in for a real language model.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import accumulate, chain
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

    def _score_rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """The rows :meth:`score` gives for ``prefixes``, as one 2-D array.

        The lockstep decoder's batch call. This default stacks ``score``'s
        rows; a scorer that can fill the block at once overrides it.
        """
        return np.stack([self.score(prefix) for prefix in prefixes])

    def _greedy_rows(self, heads: Sequence[tuple[TokenPrefix, int]]) -> list[int]:
        """For each ``(prefix, n)`` in ``heads``, the lowest id holding the
        largest logit of ``score(prefix[:n])``.

        Teacher-forced replay's batch call; ``prefix`` is a
        :class:`TokenPrefix` of this vocabulary's size. This default checks
        each row with ``as_logits`` and takes its ``argmax``; a scorer that
        can read the answer without building rows overrides it.
        """
        size = self.vocab.size
        return [int(np.argmax(as_logits(self.score(prefix.head(n)), size))) for prefix, n in heads]

    def _sparse_row(self, prefix: Sequence[int]) -> tuple[float, np.ndarray, np.ndarray] | None:
        """``score(prefix)`` as ``(fill, ids, values)``, or None.

        ``ids`` are ascending and unique, ``values`` are the logits at
        those ids, and every other id holds ``fill``: a row equal bit for
        bit to ``score(prefix)``, for a scorer whose rows differ from a
        constant at a few ids. The guided decoder then combines only the
        ids some role counts. This default has no sparse form.
        """
        return None

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
        for key in table:
            if not all(map(_is_int, key)):
                raise InvalidConfigError(f"table key {key!r}: ids must be ints")
        self._table = {
            tuple(map(int, key)): as_logits(row, vocab.size).copy() for key, row in table.items()
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
    occurrence counts. It may also be given as ``(context, row)`` pairs with
    each row as ``(token, count)`` pairs, the layout :func:`save_scorer`
    writes. Logits are ``ln((count + k) / (total + k * V))``, so they
    exponentiate back to the smoothed conditional distribution.

    Construction checks every input once and flattens the counts into one
    table: the counted ids of every context back to back, their counts and
    logits, and one fill logit ``ln(k / (total + k * V))`` per context for
    the ids it never counted. A row is then an O(V) fill plus a scatter of
    the context's counted logits.
    """

    kind = "ngram"

    def __init__(
        self,
        vocab,
        order: int,
        counts: Mapping | Sequence,
        smoothing_k: float = 1.0,
        name="",
        tokenizer="whitespace",
    ):
        super().__init__(vocab, name, tokenizer)
        self.order = _check_order(order)
        if (
            isinstance(smoothing_k, bool)
            or not isinstance(smoothing_k, numbers.Real)
            or not (math.isfinite(smoothing_k) and smoothing_k > 0)
        ):
            raise InvalidConfigError(f"smoothing_k must be finite and > 0, got {smoothing_k!r}")
        self.smoothing_k = k = float(smoothing_k)
        size = vocab.size
        self._rows, lengths, self._ids, self._counts = _flat_counts(counts, self.order - 1, size)
        # Row i holds _ids[bounds[i]:bounds[i + 1]]; the last row, for
        # contexts never seen, is empty.
        self._bounds = list(accumulate(lengths, initial=0))
        self._bounds.append(self._bounds[-1])
        self._unseen = len(self._rows)
        weights = self._counts.astype(np.float64)
        running = np.concatenate(([0.0], weights.cumsum()))
        if running[-1] >= 2.0**53:
            raise InvalidConfigError("n-gram counts must sum to less than 2**53")
        # Below 2**53 every running sum is exact in float64, so every total
        # is, as in the dense formula.
        ends = running[self._bounds]
        denominators = k * size + (ends[1:] - ends[:-1])
        self._logits = np.log((weights + k) / denominators[:-1].repeat(lengths))
        self._fill = np.log(k / denominators)

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        ids, counts, bounds = self._ids.tolist(), self._counts.tolist(), self._bounds
        return {
            ctx: dict(zip(ids[bounds[i] : bounds[i + 1]], counts[bounds[i] : bounds[i + 1]]))
            for ctx, i in self._rows.items()
        }

    def context_of(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Last ``order - 1`` tokens of ``prefix``, left-padded at the start."""
        need = self.order - 1
        ids = list(prefix[-need:]) if need else []
        if len(ids) < need:
            ids = [self.vocab.pad] * (need - len(ids)) + ids
        return tuple(ids)

    def score(self, prefix):
        fill, ids, values = self._sparse_row(prefix)
        out = np.full(self.vocab.size, fill, dtype=np.float64)
        out[ids] = values
        return out

    def _sparse_row(self, prefix):
        """The context's table slice: its fill logit, counted ids and their logits."""
        i = self._rows.get(self.context_of(self._check_prefix(prefix)), self._unseen)
        start, stop = self._bounds[i], self._bounds[i + 1]
        return self._fill[i], self._ids[start:stop], self._logits[start:stop]

    def _score_rows(self, prefixes):
        """:meth:`score` of each prefix: one dict lookup per row, one fill of
        the block, then one scatter of every row's counted logits."""
        rows = [
            self._rows.get(self.context_of(self._check_prefix(prefix)), self._unseen)
            for prefix in prefixes
        ]
        bounds = self._bounds
        starts = np.array([bounds[i] for i in rows])
        lengths = np.array([bounds[i + 1] for i in rows]) - starts
        out = self._fill[rows][:, None].repeat(self.vocab.size, axis=1)
        # Entry j of row r's counted ids is flat entry starts[r] + j.
        ends = lengths.cumsum()
        flat = np.arange(ends[-1]) + (starts - ends + lengths).repeat(lengths)
        out[np.arange(len(rows)).repeat(lengths), self._ids[flat]] = self._logits[flat]
        return out

    def _greedy_rows(self, heads):
        """The greedy id of each head, read off the table without building
        rows.

        A row's counted ids hold its counted logits and every other id holds
        its fill, so the row's largest logit is the larger of its largest
        counted logit and (when some id is uncounted) its fill. Each head
        reads only its row's counted entries; a context that counts nothing
        has the fill everywhere and answers id 0.
        """
        need = self.order - 1
        pad = (self.vocab.pad,) * need
        get, unseen, bounds = self._rows.get, self._unseen, self._bounds
        logits, ids, fill, size = self._logits, self._ids, self._fill, self.vocab.size
        out = []
        for prefix, n in heads:
            i = get(tuple(prefix[n - need : n]) if n >= need else pad[n:] + tuple(prefix[:n]), unseen)
            start, stop = bounds[i], bounds[i + 1]
            if start == stop:
                out.append(0)
                continue
            values, row = logits[start:stop], ids[start:stop]
            top = values.max()
            first = int(row[values == top].min())
            # Rare: the fill reaches the counted maximum (a zero count, or
            # smoothing that swamps the counts), so an uncounted id may hold it.
            if fill[i] >= top and stop - start < size:
                seen = np.zeros(stop - start + 1, dtype=bool)
                seen[row[row <= stop - start]] = True
                uncounted = int(seen.argmin())  # the lowest id the row does not count
                first = uncounted if fill[i] > top else min(uncounted, first)
            out.append(first)
        return out


def _check_order(order) -> int:
    if not _is_int(order) or order < 1:
        raise InvalidConfigError(f"order must be an int >= 1, got {order!r}")
    return int(order)


def _is_int_type(kind: type) -> bool:
    """Python and NumPy ints, which ``operator.index`` accepts, less bools."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _is_int(value) -> bool:
    return _is_int_type(type(value))


def _flat_counts(counts, width: int, size: int):
    """Check n-gram ``counts`` and flatten them for :class:`NGramModel`.

    Returns a dict from each context (a tuple of ints) to its row index,
    the number of counted ids per row, and the counted ids of every row
    back to back (ascending within a row) with their counts, as int64
    arrays. The types are checked as one set over a flat list, since
    converting to int64 would accept ``True``, ``1.5`` or ``"3"``; the
    ranges and repeats are checked on one int64 conversion of every id
    and count. Only a failure walks the rows, to name the context and
    token at fault.
    """
    try:
        items = list(counts.items() if isinstance(counts, Mapping) else counts)
        keys = [key for key, _ in items]
        rows = [row if isinstance(row, (list, tuple)) else row.items() for _, row in items]
        pairs = list(chain.from_iterable(rows))
        lengths = list(map(len, rows))
        shapes_ok = set(map(len, keys)) <= {width} and set(map(len, pairs)) <= {2}
        context_ids = list(chain.from_iterable(keys))
        flat = list(chain.from_iterable(pairs))
    except (AttributeError, TypeError, ValueError):
        raise InvalidConfigError(
            "counts must map each context to a row of (token, count) pairs"
        ) from None
    ok = shapes_ok and all(map(_is_int_type, set(map(type, chain(flat, context_ids)))))
    if ok:
        contexts = _int64(context_ids)
        ids, values = _int64(flat).reshape(-1, 2).T.copy()
        slots = np.arange(0, len(rows) * size, size, dtype=np.int64).repeat(lengths)
        slots += ids  # row * size + id
        order = slots.argsort()
        slots = slots[order]
        # Seen as uint64 a negative id is at least 2**63, so one max checks
        # both ends; ``initial=0`` lets an empty array pass.
        ok = (
            contexts.view(np.uint64).max(initial=0) < size
            and ids.view(np.uint64).max(initial=0) < size
            and values.min(initial=0) >= 0
            and (slots[1:] != slots[:-1]).all()  # no row counts a token twice
        )
    if not ok:
        raise InvalidConfigError(_first_bad_entry(keys, rows, width, size))
    ids, values = ids[order], values[order]
    # Plain ints, in groups of ``width``.
    keys = list(zip(*[iter(map(int, context_ids))] * width)) if width else [()] * len(keys)
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys):
        ctx = next(key for key, n in Counter(keys).items() if n > 1)
        raise InvalidConfigError(f"context {ctx} is listed twice")
    return index, lengths, ids, values


def _int64(values: list) -> np.ndarray:
    """Python or NumPy ints as an int64 array.

    An int past the int64 range is clamped to the nearest end, which keeps
    every verdict the checks draw from it: its sign, whether it lies in the
    vocabulary, and whether the counts total at least 2**53.
    """
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        low, high = -(2**63), 2**63 - 1
        return np.array([min(max(int(v), low), high) for v in values], dtype=np.int64)


def _first_bad_entry(keys, rows, width: int, size: int) -> str:
    """Message naming the first context, token or count that is malformed."""
    for key, row in zip(map(tuple, keys), rows):
        if len(key) != width:
            return f"context {key} has length {len(key)}, expected {width}"
        for t in key:
            if not _is_int(t):
                return f"context {key}: ids must be ints"
            if not 0 <= t < size:
                return f"context {key}: id {t} outside vocabulary of size {size}"
        seen = set()
        for pair in row:
            if len(pair) != 2:
                return f"context {key}: expected (token, count) pairs, got {pair!r}"
            token, count = pair
            if not _is_int(token):
                return f"context {key}: token {token!r} is not an int id"
            if not 0 <= token < size:
                return f"context {key}: token id {token} outside vocabulary of size {size}"
            if not _is_int(count):
                return f"context {key}, token {token}: count {count!r} is not an int"
            if count < 0:
                return f"context {key}, token {token}: count {count} is negative"
            if token in seen:
                return f"context {key}: token {token} is counted twice"
            seen.add(token)
    raise AssertionError("no malformed n-gram entry")


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
    order = _check_order(order)
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    need = order - 1
    for doc_index, doc in enumerate(corpus):
        try:
            ids = list(doc)
        except TypeError:
            raise CorpusIngestionError(f"document {doc_index}: expected a sequence of token ids") from None
        for pos, t in enumerate(ids):
            if not _is_int(t):
                raise CorpusIngestionError(
                    f"document {doc_index}, position {pos}: token {t!r} is not an int id "
                    f"(encode surfaces with encode_text first)"
                )
            if not 0 <= t < vocab.size:
                raise CorpusIngestionError(
                    f"document {doc_index}, position {pos}: token id {t} "
                    f"outside vocabulary of size {vocab.size}"
                )
        ids = list(map(int, ids))
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
) -> str:
    """Surface form of ``token_ids``, with specials dropped."""
    specials = {vocab.eos} | ({vocab.bos} if vocab.bos is not None else set())
    kept = [int(t) for t in token_ids if int(t) not in specials]
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
            [list(ctx), sorted(row.items())] for ctx, row in sorted(scorer.counts.items())
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
    """Load a scorer saved by :func:`save_scorer`.

    A file that is not JSON, not a JSON object, lacks a key its kind
    needs, or holds a malformed vocabulary raises
    :class:`InvalidConfigError` naming the path. The cyclic
    garbage collector is paused for the load: a JSON payload holds no
    reference cycles, yet the collector would rescan its lists (hundreds of
    thousands at V=32768) at every collection they survive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_scorer(path)
    finally:
        if enabled:
            gc.enable()


def _load_scorer(path) -> Scorer:
    try:
        with open(path, "rb") as fh:
            payload = json.loads(fh.read().decode("utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise InvalidConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidConfigError(
            f"expected a JSON object in {path}, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind not in ("ngram", "constant", "bigram_matrix", "table"):
        raise InvalidConfigError(f"unknown scorer kind {kind!r} in {path}")

    def field(key):
        if key not in payload:
            raise InvalidConfigError(f"missing key {key!r} in {path}")
        return payload[key]

    try:
        vocab = Vocabulary.from_dict(field("vocab"))
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{exc} in {path}") from None
    name = payload.get("name", "")
    tokenizer = payload.get("tokenizer", "whitespace")
    if kind == "ngram":
        return NGramModel(
            vocab,
            field("order"),
            field("counts"),
            field("smoothing_k"),
            name=name,
            tokenizer=tokenizer,
        )
    if kind == "constant":
        return ConstantScorer(vocab, field("logits"), name=name, tokenizer=tokenizer)
    if kind == "bigram_matrix":
        return BigramMatrixScorer(vocab, field("matrix"), name=name, tokenizer=tokenizer)
    table = {tuple(key): row for key, row in field("entries")}
    return TableScorer(
        vocab, table, default=payload.get("default"), name=name, tokenizer=tokenizer
    )
