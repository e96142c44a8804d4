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
from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from itertools import chain
from pathlib import Path
from typing import NamedTuple

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

    def _score_window(self, window: np.ndarray) -> np.ndarray:
        """The rows :meth:`score` gives for a lockstep block's prefixes, as
        one 2-D array: the decoder's only read of a block.

        ``window`` is an int64 array, one row per prefix, holding the
        prefix's ids (taken as in range) right-aligned, with -1 in each
        slot before its first id; it must not be modified. This default
        rebuilds each prefix, an O(prefix) copy per row and step, and
        stacks ``score``'s rows; a scorer whose rows read only the last
        few ids overrides it.
        """
        size, starts = self.vocab.size, (window < 0).sum(axis=1).tolist()
        rows = zip(window.tolist(), starts)
        return np.stack([self.score(TokenPrefix._trusted(size, ids[start:])) for ids, start in rows])

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

    def _score_window(self, window):
        return np.tile(self._logits, (len(window), 1))


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

    def _score_window(self, window):
        return self._matrix[window[:, -1]]


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
    the context's counted logits. A context's key is its ids read as
    base-V digits, and the table's rows are in key order, so one sorted key
    column answers every lookup.
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
        size, need = vocab.size, self.order - 1
        self._powers = _key_powers(size, need)
        keys, lengths, self._ids, self._counts = _flat_counts(counts, self._powers, size)
        # Row i holds _ids[bounds[i]:bounds[i + 1]], the _lengths[i] ids
        # from _starts[i] on; the last row, for contexts never seen, is empty.
        # The bounds are int64 words, read one at a time as Python ints and
        # in bulk through the array ``edges`` over the same memory: about a
        # quarter of what a list of ints takes.
        edges = np.zeros(len(lengths) + 2, dtype=np.int64)
        lengths.cumsum(out=edges[1:-1])
        edges[-1] = edges[-2]
        self._bounds, edges = _int_column(edges)
        self._starts, self._lengths = edges[:-1], edges[1:] - edges[:-1]
        self._unseen = len(keys)
        # _keys holds row i's key at i, then V**need, above every key, for
        # the unseen row; _key_list reads the same keys as Python ints. A
        # lone row bisects one bucket of them: the keys from b * step to
        # (b + 1) * step sit at _key_list[_buckets[b]:_buckets[b + 1]].
        # There are about as many buckets as contexts, and at least one per
        # first id, so a bucket holds about one key. _pad_keys[m] is the key
        # of the pad ids before m real ones; _size is vocab.size without the
        # property call.
        self._size = size
        self._key_list, self._keys = _int_column(np.append(keys, np.array(size**need, keys.dtype)))
        self._step = step = max(size**need // max(len(keys), size), 1)
        buckets = np.zeros((size**need - 1) // step + 2, dtype=np.int64)
        np.cumsum(np.bincount((keys // step).astype(np.int64), minlength=len(buckets) - 1), out=buckets[1:])
        self._buckets = array("q", buckets.tobytes())
        self._pad_keys = [sum(vocab.pad * size**j for j in range(need - m)) for m in range(need + 1)]
        weights = self._counts.astype(np.float64)
        running = np.concatenate(([0.0], weights.cumsum()))
        if running[-1] >= 2.0**53:
            raise InvalidConfigError("n-gram counts must sum to less than 2**53")
        # Below 2**53 every running sum is exact in float64, so every total
        # is, as in the dense formula.
        ends = running[edges]
        denominators = k * size + (ends[1:] - ends[:-1])
        self._logits = np.log((weights + k) / denominators[:-1].repeat(self._lengths[:-1]))
        self._fill = np.log(k / denominators)

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        contexts = (self._keys[:-1, None] // self._powers % self.vocab.size).tolist()
        ids, counts, bounds = self._ids.tolist(), self._counts.tolist(), self._bounds
        return {
            tuple(ctx): dict(zip(ids[bounds[i] : bounds[i + 1]], counts[bounds[i] : bounds[i + 1]]))
            for i, ctx in enumerate(contexts)
        }

    def context_of(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Last ``order - 1`` tokens of ``prefix``, left-padded at the start."""
        need = self.order - 1
        context = tuple(prefix[-need:]) if need else ()
        if len(context) < need:
            context = (self.vocab.pad,) * (need - len(context)) + context
        return context

    def score(self, prefix):
        fill, ids, values = self._sparse_row(prefix)
        out = np.empty(self.vocab.size)
        out.fill(fill)
        out[ids] = values
        return out

    def _row_of(self, prefix) -> int:
        """The table row of ``prefix``'s context: its key, bisected within
        its bucket; the unseen row when the table lacks it."""
        need, prefix = self.order - 1, self._check_prefix(prefix)
        tail = prefix[-need:] if need else ()
        size, keys = self._size, self._key_list
        key = self._pad_keys[len(tail)]
        for t in tail:
            key = key * size + t
        bucket = key // self._step
        lo, hi = self._buckets[bucket], self._buckets[bucket + 1]
        if hi - lo > 1:
            lo = bisect_left(keys, key, lo, hi)
        return lo if lo < hi and keys[lo] == key else self._unseen

    def _rows_of(self, contexts: np.ndarray) -> np.ndarray:
        """The table rows of the contexts, one per row of an int64 array of
        ``order - 1`` columns: one ``searchsorted`` of their keys into the
        key column; the unseen row for each context the table lacks."""
        keys = contexts @ self._powers
        at = self._keys.searchsorted(keys)
        return np.where(self._keys[at] == keys, at, self._unseen)

    def _sparse_row(self, prefix):
        """The context's table slice: its fill logit, counted ids and their logits."""
        i = self._row_of(prefix)
        start, stop = self._bounds[i], self._bounds[i + 1]
        return self._fill[i], self._ids[start:stop], self._logits[start:stop]

    def _score_window(self, window):
        """Each row's :meth:`score`, read off the last ``order - 1`` columns
        (-1, or a column the window lacks, as the pad id) and looked up
        together (:meth:`_rows_of`). Then one fill and one scatter of the
        block."""
        need, width, size = self.order - 1, window.shape[1], self.vocab.size
        if width < need:
            window, width = np.pad(window, ((0, 0), (need - width, 0)), constant_values=-1), need
        tail = window[:, width - need :]
        rows = self._rows_of(np.where(tail < 0, self.vocab.pad, tail))
        starts, lengths = self._starts[rows], self._lengths[rows]
        out = self._fill[rows][:, None].repeat(size, axis=1)
        # Entry j of row r's counted ids is flat entry starts[r] + j, and
        # lands at r * size + its id in the block.
        flat = _entries(starts, lengths)
        slots = np.arange(0, len(rows) * size, size).repeat(lengths) + self._ids[flat]
        out.reshape(-1)[slots] = self._logits[flat]
        return out

    def _greedy_rows(self, heads):
        """The greedy id of each head, read off the table without building
        rows.

        A row's counted ids hold its counted logits and every other id holds
        its fill, so the row's largest logit is the larger of its largest
        counted logit and (when some id is uncounted) its fill. Each head
        reads only its row's counted entries; a context that counts nothing
        has the fill everywhere and answers id 0. The heads' rows are looked
        up together (:meth:`_rows_of`).
        """
        need, bounds = self.order - 1, self._bounds
        logits, ids, fill, size = self._logits, self._ids, self._fill, self.vocab.size
        pad = [self.vocab.pad] * need
        contexts = chain.from_iterable(
            prefix[n - need : n] if n >= need else pad[n:] + prefix[:n] for prefix, n in heads
        )
        contexts = np.fromiter(contexts, np.int64, len(heads) * need).reshape(len(heads), need)
        out = []
        for i in self._rows_of(contexts).tolist():
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


def _key_powers(size: int, width: int) -> np.ndarray:
    """``V**(width - 1), ..., V, 1``: a context of ``width`` ids times these
    is its key, its ids read as base-V digits. int64 when every key and
    ``V**width`` fit in int64, else Python ints in an object array, which
    ``@``, ``searchsorted`` and comparison handle alike."""
    dtype = np.int64 if size**width < 2**63 else object
    return np.array([size**j for j in range(width - 1, -1, -1)], dtype=dtype)


def _int_column(values: np.ndarray) -> tuple[Sequence[int], np.ndarray]:
    """``values`` read a Python int at a time, and as an array over the same
    memory: int64 values as an ``array("q")`` and a view of it, Python ints
    as the object array twice."""
    if values.dtype == object:
        return values, values
    words = array("q", values.tobytes())
    return words, np.frombuffer(words, dtype=np.int64)


def _entries(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The flat indices ``starts[r]``, ..., ``starts[r] + lengths[r] - 1``
    of every row r in turn (at least one row)."""
    ends = lengths.cumsum()
    return np.arange(ends[-1]) + (starts - ends + lengths).repeat(lengths)


def _check_order(order) -> int:
    if not _is_int(order) or order < 1:
        raise InvalidConfigError(f"order must be an int >= 1, got {order!r}")
    return int(order)


def _is_int_type(kind: type) -> bool:
    """Python and NumPy ints, which ``operator.index`` accepts, less bools."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _is_int(value) -> bool:
    return _is_int_type(type(value))


class _CountArrays(NamedTuple):
    """N-gram counts as int64 arrays, in the layout :func:`save_scorer`
    writes: the contexts as one (rows, width) array, the number of counted
    ids per row, and every row's ids and their counts back to back. Passed
    as ``counts``, :class:`NGramModel` skips the Python-object checks; the
    canonical file reader builds one."""

    contexts: np.ndarray
    lengths: np.ndarray
    ids: np.ndarray
    values: np.ndarray


def _flat_counts(counts, powers: np.ndarray, size: int):
    """Check n-gram ``counts`` and flatten them for :class:`NGramModel`.

    Returns the contexts' keys (their ids times ``powers``, see
    :func:`_key_powers`) ascending, then, as int64 arrays, the number of
    counted ids per context in that order and the counted ids of every
    context back to back (ascending within a context) with their counts.

    :class:`_CountArrays` go straight to :func:`_count_table`. Any other
    ``counts`` are converted to them first: the types are checked as one
    set over a flat list, since converting to int64 would accept ``True``,
    ``1.5`` or ``"3"``. Only a failure walks the rows, to name the context
    and token at fault.
    """
    if isinstance(counts, _CountArrays):
        table = _count_table(counts, powers, size)
        if table is None:
            raise InvalidConfigError("n-gram counts hold an id out of range, a negative count or a repeat")
        return table
    width = len(powers)
    try:
        items = list(counts.items() if isinstance(counts, Mapping) else counts)
        keys = [key for key, _ in items]
        rows = [row if isinstance(row, (list, tuple)) else row.items() for _, row in items]
        pairs = list(chain.from_iterable(rows))
        lengths = np.fromiter(map(len, rows), np.int64, len(rows))
        shapes_ok = set(map(len, keys)) <= {width} and set(map(len, pairs)) <= {2}
        context_ids = list(chain.from_iterable(keys))
        flat = list(chain.from_iterable(pairs))
    except (AttributeError, TypeError, ValueError):
        raise InvalidConfigError(
            "counts must map each context to a row of (token, count) pairs"
        ) from None
    table = None
    if shapes_ok and all(map(_is_int_type, set(map(type, chain(flat, context_ids))))):
        contexts = _int64(context_ids).reshape(len(keys), width)
        arrays = _CountArrays(contexts, lengths, *_int64(flat).reshape(-1, 2).T)
        table = _count_table(arrays, powers, size)
    if table is None:
        raise InvalidConfigError(_first_bad_entry(keys, rows, width, size))
    return table


def _count_table(counts: _CountArrays, powers: np.ndarray, size: int):
    """:func:`_flat_counts`' result from checked int64 arrays, or None when
    an id lies outside the vocabulary, a count is negative or a row counts
    a token twice. A context listed twice raises, naming it."""
    contexts, lengths, ids, values = counts
    # Seen as uint64 a negative id is at least 2**63, so one max checks
    # both ends; ``initial=0`` lets an empty array pass.
    if not contexts.view(np.uint64).max(initial=0) < size:
        return None
    keys = contexts @ powers
    # Rows written by save_scorer are already in key order: no sort.
    by_key = None
    if not (keys[1:] > keys[:-1]).all():
        by_key = keys.argsort(kind="stable")
        starts = lengths.cumsum() - lengths
        keys, lengths = keys[by_key], lengths[by_key]
        flat = _entries(starts[by_key], lengths)
        ids, values = ids[flat], values[flat]
    slots = np.arange(0, len(lengths) * size, size, dtype=np.int64).repeat(lengths)
    slots += ids  # row * size + id
    ascending = bool((slots[1:] > slots[:-1]).all())
    if not ascending:
        order = slots.argsort()
        slots, ids, values = slots[order], ids[order], values[order]
    if not (
        ids.view(np.uint64).max(initial=0) < size
        and values.min(initial=0) >= 0
        and (ascending or (slots[1:] != slots[:-1]).all())  # no row counts a token twice
    ):
        return None
    if by_key is not None:
        # Equal keys sit side by side. Name the repeated context met first
        # in the input: a stable sort puts its first listing first.
        repeats = by_key[:-1][keys[1:] == keys[:-1]]
        if len(repeats):
            raise InvalidConfigError(f"context {tuple(contexts[repeats.min()].tolist())} is listed twice")
    return keys, lengths, np.ascontiguousarray(ids), np.ascontiguousarray(values)


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
    index = vocab._index
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
    index = vocab._index
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

    A file of at least ``_CANONICAL_MIN_BYTES`` bytes that begins the way
    :func:`save_scorer` writes an n-gram model takes the canonical route
    (:func:`_canonical_payload`): its counts array is read straight into
    int64 arrays and only the rest of the object goes through
    ``json.loads``. Any other file, or one the canonical reader refuses or
    whose model fails a check, takes the json route (:func:`_json_payload`):
    ``json.loads`` of the whole file, whose lists :class:`NGramModel` then
    checks and converts. Both routes build the same table, and a file
    that fails gives the json route's error.

    A file that is not JSON, not a JSON object, lacks a key its kind
    needs, or holds a malformed vocabulary raises
    :class:`InvalidConfigError` naming the path. The cyclic garbage
    collector is paused for the load, for the json route: its payload
    holds no reference cycles, yet the collector would rescan its lists
    (hundreds of thousands at V=32768) at every collection they survive.
    The canonical route allocates no object per context and gains nothing
    from the pause: with the collector running, a load of a 58k-context
    order-3 or a 32k-context V=32768 file ran no collection and took the
    same time.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        payload = _canonical_payload(data) if len(data) >= _CANONICAL_MIN_BYTES else None
        if payload is not None:
            try:
                return _scorer_from(payload, path)
            except InvalidConfigError:
                pass  # the json route names the fault
        return _scorer_from(_json_payload(data, path), path)
    finally:
        if enabled:
            gc.enable()


def _json_payload(data: bytes, path) -> dict:
    """The json route: the whole file through ``json.loads``."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise InvalidConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidConfigError(
            f"expected a JSON object in {path}, got {type(payload).__name__}"
        )
    return payload


# The canonical route reads files from _CANONICAL_MIN_BYTES bytes on: on
# smaller ones its fixed cost (some forty NumPy calls) outweighs what it
# saves. Load time of the canonical route over the json route's (collector
# paused, model built), measured on a shared 2-vCPU x86_64 VM pinned to one
# core, files save_scorer wrote, best of 25 alternating loads: 632 B 1.67,
# 820 B 1.53, 1567 B 1.26, 2221 B 1.12, 3055 B 0.97, 3564 B 0.99, 4900 B
# 0.82, 6198 B 0.73, 12.9 kB 0.54, 89.6 kB 0.32, and about 0.25 for the
# 3.4 MB V=32768 files. The two cost the same near 3-3.5 kB.
_CANONICAL_MIN_BYTES = 4096

# How save_scorer begins an n-gram file: sorted keys put "counts" first.
_CANONICAL_HEAD = b'{"counts":'


def _canonical_payload(data: bytes) -> dict | None:
    """``json.loads(data)`` for an n-gram file laid out as :func:`save_scorer`
    writes it, with ``counts`` as :class:`_CountArrays`; None for any other
    file.

    The counts array runs from the head to the first ``"``, the start of
    the next key; the rest of the object goes through ``json.loads``. The
    array is read only when it holds ``[``, ``]``, ``,`` and numbers of 1
    to 18 digits without a leading zero, in exactly the bracket and comma
    skeleton its row lengths give, and the rest holds no second
    ``"counts"`` and an int ``order`` of at least 1. Then every number is
    one ``json.loads`` reads to the same int, so the arrays equal the
    json route's lists.
    """
    if not data.startswith(_CANONICAL_HEAD):
        return None
    lo = len(_CANONICAL_HEAD)
    end = data.find(b'"', lo)
    if end < 0 or data[end - 1] != ord(","):
        return None
    try:
        payload = json.loads("{" + data[end:].decode("utf-8"))
    except ValueError:
        return None
    order = payload.get("order")
    if payload.get("kind") != "ngram" or "counts" in payload or type(order) is not int or order < 1:
        return None
    counts = _read_counts(data, lo, end - 1, order - 1)
    if counts is None:
        return None
    payload["counts"] = counts
    return payload


def _read_counts(data: bytes, lo: int, hi: int, width: int) -> _CountArrays | None:
    """The counts array ``data[lo:hi]`` as :class:`_CountArrays`, or None
    unless it is canonical (see :func:`_canonical_payload`)."""
    if data[lo] != ord("[") or data[hi - 1] != ord("]"):
        return None
    if hi - lo == 2:  # no rows
        return _CountArrays(np.empty((0, width), np.int64), *np.empty((3, 0), np.int64))
    buf = np.frombuffer(data, dtype=np.uint8)
    text = buf[lo:hi]
    digit = np.subtract(text, ord("0"), dtype=np.uint8) < 10
    # Each number runs from a rise of ``digit`` to the next fall.
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    edges += lo + 1
    starts, ends = edges.reshape(-1, 2).T
    lengths = ends - starts
    n = len(lengths)
    if width > n:  # a row holds ``width`` numbers
        return None
    if n and (lengths.max() > 18 or ((buf[starts] == ord("0")) & (lengths > 1)).any()):
        return None
    # A row ends where the text between two numbers runs to 6 bytes or
    # more ("]]],[[" or "],[]],[["); the other gaps are ",", "],[" and
    # "],[[". With no context ids there is at most one row.
    if width:
        cuts = np.flatnonzero(starts[1:] - ends[:-1] >= 6) + 1
        sizes = np.diff(cuts, prepend=0, append=n)
    else:
        sizes = np.array([n], dtype=np.int64)
    # Temporaries are dropped once used (here the edges, twice the ends'
    # size), since a large load's peak sets the process's.
    ends = ends.copy()
    del starts, edges
    twice = sizes - width
    if twice.min() < 0 or (twice & 1).any():
        return None
    rows = twice >> 1
    # The skeleton, each number as one "0", must be the one the row lengths
    # give.
    head = b"[[" + b",".join([b"0"] * width) + b"],["
    pieces = {k: head + b",".join([b"[0,0]"] * k) + b"]]" for k in set(rows.tolist())}
    expected = b"[" + b",".join(map(pieces.__getitem__, rows.tolist())) + b"]"
    keep = np.empty_like(digit)  # every byte but a digit after a digit
    keep[0] = True
    np.logical_and(digit[1:], digit[:-1], out=keep[1:])
    np.logical_not(keep[1:], out=keep[1:])
    del digit
    if text[keep].tobytes().translate(_ZEROS) != expected:
        return None
    del keep, expected
    values = _decimals(buf, ends, lengths)
    first = np.cumsum(sizes) - sizes
    at = (first[:, None] + np.arange(width)).ravel()
    pairs = np.delete(values, at).reshape(-1, 2)
    contexts = values[at].reshape(len(rows), width)
    del values
    return _CountArrays(contexts, rows, pairs[:, 0].copy(), pairs[:, 1].copy())


_ZEROS = bytes.maketrans(b"0123456789", b"0" * 10)


def _decimals(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The decimal numbers of 1 to 18 digits that end before ``ends`` (each
    at least 8 bytes into ``buf``), as int64: eight digits at a time, the
    rest recursively."""
    more = np.flatnonzero(lengths > 8)
    values = _octets(buf, ends, np.minimum(lengths, 8)).view(np.int64)
    if len(more):
        values[more] += _decimals(buf, ends[more] - 8, lengths[more] - 8) * 10**8
    return values


def _octets(buf: np.ndarray, ends: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The numbers of ``digits`` (1 to 8, an int64 array this overwrites)
    digits that end before ``ends`` in ``buf``, as uint64.

    Each is read as the little-endian word of the 8 bytes before its end
    (an unaligned view over ``buf``), so its digits fill the top bytes.
    XOR with ``"0"`` turns them into 0-9 byte by byte, the shifts clear
    the bytes below them, and three multiply-adds join digit pairs, quads
    and the octet.
    """
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    x = words[ends - 8]
    x ^= 0x3030303030303030
    shift = digits
    np.subtract(8, shift, out=shift)
    shift <<= 3
    shift = shift.view(np.uint64)  # 0 to 56, the same bits
    x >>= shift
    x <<= shift
    low = shift
    for bits, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        np.right_shift(x, np.uint64(bits), out=low)
        x *= 10 ** (bits // 8)
        x += low
        x &= mask
    return x


def _scorer_from(payload: dict, path) -> Scorer:
    """The scorer a file's parsed JSON object describes."""
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
