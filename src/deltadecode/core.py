"""Numerical primitives for delta-guided decoding.

Everything downstream (scorers, decoder, harness) is built on four pure
operations over dense float64 vectors: logit combination, temperature
softmax, nucleus filtering, and categorical sampling. All of them either
return a fresh array or raise; none mutate their inputs.
"""

from __future__ import annotations

import math
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
        return cls(surface=tuple(data["surface"]), eos=data["eos"], bos=data.get("bos"))


class TokenPrefix(Sequence):
    """Append-only token ids, each checked once against a vocabulary size.

    Building one checks every id it is given and ``append`` checks only the
    id it adds, so a decode that grows its prefix a token at a time checks
    each id once. Scorers whose vocabulary has this ``size`` take the ids
    as already checked. An id outside ``[0, size)`` raises
    :class:`VocabularyMismatchError` naming its position.
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

    def append(self, token: int) -> None:
        t = int(token)
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
        if self.temperature <= 0:
            raise InvalidConfigError(f"temperature must be > 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise InvalidConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise InvalidConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.mode not in DECODE_MODES:
            raise InvalidConfigError(f"mode must be one of {DECODE_MODES}, got {self.mode!r}")
        if not isinstance(self.seed, int):
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
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidLogitsError(f"logits must be a non-empty 1-D vector, got shape {arr.shape}")
    if vocab_size is not None and arr.size != vocab_size:
        raise VocabularyMismatchError(f"expected {vocab_size} logits, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidLogitsError("logits contain non-finite values")
    return arr


def as_distribution(
    probs, vocab_size: int | None = None, require_normalized: bool = False
) -> np.ndarray:
    """Validate ``probs`` as a non-negative finite vector with positive mass."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDistributionError(
            f"distribution must be a non-empty 1-D vector, got shape {arr.shape}"
        )
    if vocab_size is not None and arr.size != vocab_size:
        raise VocabularyMismatchError(f"expected {vocab_size} probabilities, got {arr.size}")
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise InvalidDistributionError("distribution entries must be finite and non-negative")
    total = arr.sum()
    if total <= 0:
        raise InvalidDistributionError("distribution has no probability mass")
    # Loose bound: callers normalize, this only catches raw logits and the like.
    if require_normalized and abs(total - 1.0) > 1e-6:
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
    out = b + scale * (e - eb)
    if not np.isfinite(out).all():
        raise InvalidLogitsError("combined logits overflowed to non-finite values")
    return out


def softmax_with_temperature(logits, temperature: float) -> np.ndarray:
    """Softmax of ``logits / temperature`` with max-subtraction for stability."""
    if temperature <= 0:
        raise InvalidConfigError(f"temperature must be > 0, got {temperature}")
    arr = as_logits(logits)
    scaled = arr / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return probs


def nucleus_filter(probs, top_p: float) -> np.ndarray:
    """Keep the smallest set of highest-probability tokens with mass >= top_p.

    Tokens are ranked by descending probability (ties keep the lowest id
    first); the token whose cumulative mass crosses the threshold is kept.
    The surviving entries are renormalized, everything else is zeroed.
    ``top_p == 1`` returns the distribution unchanged.
    """
    if not 0 < top_p <= 1:
        raise InvalidConfigError(f"top_p must be in (0, 1], got {top_p}")
    arr = as_distribution(probs, require_normalized=True)
    if top_p == 1.0:
        return arr.copy()
    order = np.argsort(-arr, kind="stable")
    cumulative = np.cumsum(arr[order])
    cut = int(np.searchsorted(cumulative, top_p, side="left"))
    # Rounding can leave the total just under top_p; keep everything then.
    cut = min(cut, arr.size - 1)
    kept = order[: cut + 1]
    out = np.zeros_like(arr)
    out[kept] = arr[kept]
    out /= out.sum()
    return out


def argmax_token(scores) -> int:
    """Index of the largest entry; ties resolve to the lowest id."""
    arr = as_logits(scores)
    return int(np.argmax(arr))


def sample_token(probs, rng: np.random.Generator) -> int:
    """Draw one token from ``probs``, consuming exactly one uniform draw."""
    arr = as_distribution(probs, require_normalized=True)
    cumulative = np.cumsum(arr)
    u = rng.random()
    idx = int(np.searchsorted(cumulative, u, side="right"))
    if idx >= arr.size:
        # u landed past the last cumulative value (mass summed slightly
        # below 1); fall back to the highest-id token with support.
        idx = int(np.flatnonzero(arr > 0)[-1])
    return idx
