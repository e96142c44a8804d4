"""Numerical primitives for delta-guided decoding.

Everything downstream (scorers, decoder, harness) is built on four pure
operations over float64 vectors: logit combination, temperature softmax,
nucleus filtering, and categorical sampling. The public ones take dense
rows and either return a fresh array or raise; none mutate their inputs.
Each public function checks its arguments and then runs a private step
that checks nothing; ``decode`` calls the private steps on rows it
validated once, writing the combine and softmax into one buffer it
reuses. The combine and the softmax's exp are elementwise, so a guided
``decode`` over sparse rows runs them on one lane per distinct value
rather than on every id; the sum and the nucleus always read a dense
row.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

__all__ = [
    "DecodeConfig",
    "EmptyInputError",
    "InvalidConfigError",
    "InvalidDistributionError",
    "InvalidLogitsError",
    "TokenPrefix",
    "Vocabulary",
    "VocabularyMismatchError",
    "argmax_token",
    "as_logits",
    "as_distribution",
    "check_fields",
    "combine_logits",
    "nucleus_filter",
    "sample_token",
    "softmax_with_temperature",
]

DECODE_MODES = ("greedy", "sample")


class InvalidLogitsError(ValueError):
    """A logit vector is non-finite, empty, or not one-dimensional."""


class VocabularyMismatchError(ValueError):
    """Vectors or scorers that must share a vocabulary disagree on size,
    or a token id lies outside a vocabulary."""


class InvalidConfigError(ValueError):
    """A decoding parameter is outside its legal range."""


class InvalidDistributionError(ValueError):
    """A probability vector is degenerate (negative, non-finite, or zero mass)."""


class EmptyInputError(ValueError):
    """An aggregate operation was asked to run over nothing."""


@dataclass(frozen=True)
class Vocabulary:
    """Token id space shared by every scorer in an ensemble.

    ``surface[i]`` is the string form of token id ``i``.  ``eos`` terminates
    generation; ``bos`` (optional) is only used to left-pad short contexts.
    """

    surface: tuple[str, ...]
    eos: int
    bos: int | None = None

    def __post_init__(self):
        if len(self.surface) == 0:
            raise InvalidConfigError("vocabulary must contain at least one token")
        if len(set(self.surface)) != len(self.surface):
            raise InvalidConfigError("vocabulary surfaces must be unique")
        if not 0 <= self.eos < len(self.surface):
            raise InvalidConfigError(f"eos id {self.eos} out of range for size {len(self.surface)}")
        if self.bos is not None and not 0 <= self.bos < len(self.surface):
            raise InvalidConfigError(f"bos id {self.bos} out of range for size {len(self.surface)}")

    @property
    def size(self) -> int:
        return len(self.surface)

    @property
    def pad(self) -> int:
        """Id used to left-pad short contexts: bos when defined, else eos."""
        return self.eos if self.bos is None else self.bos

    def id_of(self, token: str) -> int:
        try:
            return self.surface.index(token)
        except ValueError:
            raise KeyError(f"token {token!r} not in vocabulary") from None

    def to_dict(self) -> dict:
        return {"surface": list(self.surface), "eos": self.eos, "bos": self.bos}

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        """Inverse of :meth:`to_dict`; a malformed entry raises
        :class:`InvalidConfigError` naming it."""
        if not isinstance(data, dict):
            raise InvalidConfigError(f"vocab must be a JSON object, got {type(data).__name__}")
        for key in ("surface", "eos"):
            if key not in data:
                raise InvalidConfigError(f"vocab is missing key {key!r}")
        surface = data["surface"]
        if not isinstance(surface, list) or not all(type(s) is str for s in surface):
            raise InvalidConfigError("vocab 'surface' must be a list of str")
        eos, bos = data["eos"], data.get("bos")
        for key, value in (("eos", eos), ("bos", bos)):
            # type() and not isinstance(): True is an int, yet no token id.
            if type(value) is not int and (key == "eos" or value is not None):
                got = type(value).__name__
                raise InvalidConfigError(f"vocab {key!r} must be an int, got {got}")
        return cls(surface=tuple(surface), eos=eos, bos=bos)


class TokenPrefix(Sequence):
    """Append-only token ids, each checked once against a vocabulary size.

    Building one checks every id it is given and ``append`` checks only the
    id it adds, so a decode that grows its prefix a token at a time checks
    each id once. Scorers whose vocabulary has this ``size`` take the ids
    as already checked. An id that is not an integer (``operator.index``
    accepts Python and NumPy integers, never floats or strings) or lies
    outside ``[0, size)`` raises :class:`VocabularyMismatchError` naming
    its position.
    """

    __slots__ = ("_size", "_ids")

    def __init__(self, size: int, ids: Iterable[int] = ()):
        self._size = size
        self._ids: list[int] = []
        for token in ids:
            self.append(token)

    @property
    def size(self) -> int:
        return self._size

    def head(self, n: int) -> "TokenPrefix":
        """A new prefix of the first ``n`` ids, taken as already checked."""
        out = TokenPrefix(self._size)
        out._ids = self._ids[:n]
        return out

    def append(self, token: int) -> None:
        try:
            t = operator.index(token)
        except TypeError:
            raise VocabularyMismatchError(
                f"position {len(self._ids)}: token id {token!r} is not an integer"
            ) from None
        if not 0 <= t < self._size:
            raise VocabularyMismatchError(
                f"position {len(self._ids)}: token id {t} outside vocabulary of size {self._size}"
            )
        self._ids.append(t)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        return self._ids[index]

    def __iter__(self):
        return iter(self._ids)

    def __repr__(self) -> str:
        return f"TokenPrefix({self._size}, {self._ids!r})"


@dataclass(frozen=True)
class DecodeConfig:
    """Per-run decoding parameters.

    ``delta_scale`` multiplies the expert-minus-base logit difference before
    it is added to the base logits; 0 reduces decoding to the base alone.
    Every field is checked here, once: ``decode`` repeats none of it.
    """

    delta_scale: float = 1.0
    temperature: float = 1.0
    top_p: float = 0.95
    max_tokens: int = 16384
    mode: str = "sample"
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.delta_scale) or self.delta_scale < 0:
            raise InvalidConfigError(f"delta_scale must be >= 0, got {self.delta_scale}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise InvalidConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if type(self.max_tokens) is not int or self.max_tokens < 1:
            raise InvalidConfigError(f"max_tokens must be an integer >= 1, got {self.max_tokens!r}")
        if self.mode not in DECODE_MODES:
            raise InvalidConfigError(f"mode must be one of {DECODE_MODES}, got {self.mode!r}")
        if type(self.seed) is not int:
            raise InvalidConfigError(f"seed must be an integer, got {type(self.seed).__name__}")

    def replace(self, **changes) -> "DecodeConfig":
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return DecodeConfig(**current)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeConfig":
        check_fields(cls, data, InvalidConfigError, "decode config")
        return cls(**data)


def check_fields(cls, data, error: type[Exception], what: str) -> None:
    """Check the dict form of dataclass ``cls`` before it is constructed.

    Raises ``error`` naming the offending key when ``data`` is not a dict,
    carries a key that is not a field of ``cls``, or lacks a field that
    has no default.
    """
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"unknown {what} fields: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{what} is missing field {f.name!r}")


def as_logits(scores, vocab_size: int | None = None) -> np.ndarray:
    """Validate and return ``scores`` as a 1-D finite float64 array."""
    arr = _as_row(scores, vocab_size)
    if not np.isfinite(arr).all():
        raise InvalidLogitsError("logits contain non-finite values")
    return arr


def _as_row(scores, vocab_size: int | None = None) -> np.ndarray:
    """``scores`` as a non-empty 1-D float64 array of ``vocab_size`` entries,
    with its values unchecked."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidLogitsError(f"logits must be a non-empty 1-D vector, got shape {arr.shape}")
    if vocab_size is not None and arr.size != vocab_size:
        raise VocabularyMismatchError(f"expected {vocab_size} logits, got {arr.size}")
    return arr


def as_distribution(probs) -> np.ndarray:
    """Validate ``probs`` as a non-negative finite vector of mass 1."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDistributionError(
            f"distribution must be a non-empty 1-D vector, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise InvalidDistributionError("distribution entries must be finite and non-negative")
    total = arr.sum()
    # Loose bound: callers normalize, this only catches raw logits and the like.
    if abs(total - 1.0) > 1e-6:
        raise InvalidDistributionError(f"distribution mass is {total}, expected 1")
    return arr


def combine_logits(base, expert, expert_base, scale: float) -> np.ndarray:
    """Return ``base + scale * (expert - expert_base)`` elementwise.

    ``scale == 0`` returns a copy of ``base`` so the guided path is
    bit-identical to scoring the base model alone.
    """
    b = as_logits(base)
    e = as_logits(expert)
    eb = as_logits(expert_base)
    if not (b.size == e.size == eb.size):
        raise VocabularyMismatchError(
            f"logit lengths disagree: base={b.size}, expert={e.size}, expert_base={eb.size}"
        )
    if scale < 0:
        raise InvalidConfigError(f"delta scale must be >= 0, got {scale}")
    if scale == 0.0:
        return b.copy()
    return _combine(b, e, eb, scale, np.empty(b.size))


def softmax_with_temperature(logits, temperature: float) -> np.ndarray:
    """Softmax of ``logits / temperature`` with max-subtraction for stability.

    Raises :class:`InvalidDistributionError` when the temperature is so
    small that the scaled logits overflow and the softmax is undefined.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise InvalidConfigError(f"temperature must be finite and > 0, got {temperature}")
    return _softmax(as_logits(logits), temperature)


def nucleus_filter(probs, top_p: float) -> np.ndarray:
    """Keep the smallest set of highest-probability tokens with mass >= top_p.

    Tokens are ranked by descending probability (ties keep the lowest id
    first); the token whose cumulative mass crosses the threshold is kept.
    The surviving entries are renormalized, everything else is zeroed.
    ``top_p == 1`` returns the distribution unchanged.
    """
    if not 0 < top_p <= 1:
        raise InvalidConfigError(f"top_p must be in (0, 1], got {top_p}")
    arr = as_distribution(probs)
    return _nucleus(arr, 1.0, top_p)[0]


def argmax_token(scores) -> int:
    """Index of the largest entry; ties resolve to the lowest id."""
    arr = as_logits(scores)
    return int(np.argmax(arr))


def sample_token(probs, rng: np.random.Generator) -> int:
    """Draw one token from ``probs``, consuming exactly one uniform draw."""
    arr = as_distribution(probs)
    return _sample(arr, np.arange(arr.size), rng)


# The private steps. None writes into its inputs (``decode`` reads the base
# row again for the kl instrument): a step that takes ``out`` writes only
# there, and every other one writes only into arrays it allocated itself.


def _combine(
    b: np.ndarray, e: np.ndarray, eb: np.ndarray, scale: float, out: np.ndarray
) -> np.ndarray:
    """``b + scale * (e - eb)`` for a finite ``scale > 0``, written into ``out``.

    A NaN or +-inf in any row makes the result non-finite (inf - inf is
    NaN, and NaN propagates), so the one check here covers all three rows.
    """
    np.subtract(e, eb, out=out)
    if scale != 1.0:  # x * 1.0 == x exactly, so skipping it keeps the bits
        out *= scale
    out += b
    if not np.isfinite(out).all():
        raise InvalidLogitsError("combined logits overflowed to non-finite values")
    return out


def _weights(logits: np.ndarray, temperature: float, out: np.ndarray) -> tuple[np.ndarray, float]:
    """``exp(logits / temperature - max)`` written into ``out``, and its sum.

    The sum is at least 1: the max entry adds exp(0). ``out`` may be
    ``logits`` itself.
    """
    _shifted_exp(logits, temperature, out)
    return out, _total(out, temperature)


def _shifted_exp(logits: np.ndarray, temperature: float, out: np.ndarray) -> np.ndarray:
    """The unnormalised weights of :func:`_weights`, written into ``out``.

    Every step is elementwise apart from the max, so a lane's bits depend
    only on its own value and the max: ``decoder`` runs this on one lane
    per distinct value of a row rather than on the whole row.
    """
    if temperature == 1.0:  # x / 1.0 == x
        np.subtract(logits, logits.max(), out=out)
    else:
        np.divide(logits, temperature, out=out)
        out -= out.max()
    np.exp(out, out=out)
    return out


def _total(weights: np.ndarray, temperature: float) -> float:
    """The sum of a full row of :func:`_shifted_exp` weights, checked finite."""
    total = float(weights.sum())
    # Finite logits over a tiny temperature can overflow to +-inf, and
    # inf - inf is NaN; the normaliser is the one place that shows it.
    if not math.isfinite(total):
        raise InvalidDistributionError(
            f"softmax at temperature {temperature} overflowed to non-finite values"
        )
    return total


def _softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    probs, total = _weights(logits, temperature, np.empty(logits.size))
    probs /= total
    return probs


def _nucleus(weights: np.ndarray, total: float, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The nucleus of ``weights / total`` and the ascending ids outside which it is zero.

    ``weights`` are unnormalised; ``total`` is their sum, at least 1 (or
    exactly 1 for a distribution). Only ids with mass >= ``(1 - top_p) / V``
    are in the head. The others hold less than ``1 - top_p`` together, so
    the head is a prefix of the full ranking and usually reaches ``top_p``
    on its own: then only it is divided and sorted, and only the kept ids
    are returned. Candidates for the head are read off the weights with a
    margin, then filtered by the same quotient a full divide gives. When
    every id is a candidate, or rounding keeps the head short of
    ``top_p``, every id is divided, ranked and returned.
    """
    size = weights.size
    if top_p == 1.0:
        return weights / total, np.arange(size)
    threshold = (1.0 - top_p) / size
    head = np.flatnonzero(weights >= threshold * total * (1.0 - 1e-9))
    if head.size < size:
        probs = weights[head] / total
        rank = np.argsort(-probs, kind="stable")
        ranked = probs[rank]
        # The margin can admit candidates whose quotient falls short of
        # the threshold; they rank last, after the n that make the head.
        n = rank.size
        if n and ranked[-1] < threshold:
            n = int(np.count_nonzero(ranked >= threshold))
        cut = int(np.searchsorted(np.cumsum(ranked[:n]), top_p, side="left"))
        if cut < n:
            keep = np.sort(rank[: cut + 1])
            kept, values = head[keep], probs[keep]
            # The normaliser stays a sum over all V entries: a pairwise
            # sum's bits depend on the array's length, not only on its
            # non-zero values. Only the kept entries need dividing.
            out = np.zeros(size)
            out[kept] = values
            out[kept] = values / out.sum()
            return out, kept
    probs = weights / total
    order = np.argsort(-probs, kind="stable")
    # Rounding can leave the total just under top_p; then cut == V and the
    # slice keeps every id.
    cut = int(np.searchsorted(np.cumsum(probs[order]), top_p, side="left"))
    kept = order[: cut + 1]
    out = np.zeros(size)
    out[kept] = probs[kept]
    out /= out.sum()
    return out, np.arange(size)


def _greedy(dist: np.ndarray, kept: np.ndarray) -> int:
    """The most probable of the ``kept`` ids (ascending), lowest id on ties."""
    return int(kept[np.argmax(dist[kept])])


def _sample(dist: np.ndarray, kept: np.ndarray, rng: np.random.Generator) -> int:
    """Draw from ``dist`` over ``kept``, ascending ids outside which it is zero.

    A sequential cumsum over the kept ids has the same bits as one over the
    whole vector, whose other entries add exact zeros.
    """
    values = dist[kept]
    idx = int(np.searchsorted(np.cumsum(values), rng.random(), side="right"))
    if idx >= kept.size:
        # u landed past the last cumulative value (mass summed slightly
        # below 1); fall back to the highest-id token with support.
        return int(kept[np.flatnonzero(values)[-1]])
    return int(kept[idx])


# The batched steps: the private steps above over an (S, V) block with one
# row per trajectory, for ``decoder._decode_lockstep``. Each row gets the
# bits the 1-D step gives it: max, exp and division are elementwise, and a
# sum or cumsum along axis 1 of a C-contiguous block reduces each row as
# the 1-D call reduces the row alone.


def _weights_rows(
    logits: np.ndarray, temperature: float, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`_weights`: the rows' ``exp`` written into ``out``, and their sums."""
    if temperature == 1.0:
        np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    else:
        np.divide(logits, temperature, out=out)
        out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    totals = out.sum(axis=1)
    if not np.isfinite(totals).all():
        raise InvalidDistributionError(
            f"softmax at temperature {temperature} overflowed to non-finite values"
        )
    return out, totals


def _nucleus_rows(weights: np.ndarray, totals: np.ndarray, top_p: float) -> np.ndarray:
    """Row-wise :func:`_nucleus`, by its full-ranking path for every row.

    The head path gives the same bits as the full ranking, so one path
    serves the block. Every row stays length V, as ``_nucleus``'s
    normaliser does.
    """
    probs = weights / totals[:, None]
    if top_p == 1.0:
        return probs
    rows, size = probs.shape
    # Flat positions of each row's ids in rank order.
    ranks = np.argsort(-probs, axis=1, kind="stable")
    ranks += np.arange(0, rows * size, size)[:, None]
    ranked = probs.take(ranks)
    # On a non-decreasing row this count is searchsorted(side="left").
    cut = (ranked.cumsum(axis=1) < top_p).sum(axis=1)
    ranked[np.arange(size) > cut[:, None]] = 0.0
    out = np.empty_like(probs)
    out.put(ranks, ranked)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _sample_rows(dist: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Row-wise :func:`_sample` over whole rows, one draw from each row's generator."""
    draws = np.array([rng.random() for rng in rngs])
    # The count of cumulative values <= u is searchsorted(side="right").
    tokens = (dist.cumsum(axis=1) <= draws[:, None]).sum(axis=1)
    for row in np.flatnonzero(tokens == dist.shape[1]):
        tokens[row] = np.flatnonzero(dist[row])[-1]
    return tokens
