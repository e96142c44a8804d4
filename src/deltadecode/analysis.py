"""Trajectory analysis: replay consistency, delta geometry, token usage.

These functions consume decoded trajectories plus scorers and produce the
quantities used to compare decoding arms: the fraction of steps a probe
model reproduces under teacher forcing, the cosine alignment between two
delta series, surface-level token-category frequencies, and length stats.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import EmptyInputError, TokenPrefix, Vocabulary, VocabularyMismatchError, as_logits
from .decoder import InsufficientTrajectoryError, Trajectory, replay_against
from .scorers import Scorer

__all__ = [
    "PcrReport",
    "SeriesMismatchError",
    "TokenSetSpec",
    "UndefinedCosineError",
    "avg_cosine_sim",
    "delta_series",
    "length_stats",
    "pcr",
    "token_frequency",
]


class UndefinedCosineError(ValueError):
    """A delta vector has zero norm, so its cosine is undefined."""


class SeriesMismatchError(ValueError):
    """Two delta series that must align disagree in shape."""


@dataclass(frozen=True)
class PcrReport:
    """Per-trajectory replay agreement and its mean."""

    per_trajectory: tuple[float, ...]
    mean: float
    n: int


def pcr(trajectories: Sequence[Trajectory], probe: Scorer) -> PcrReport:
    """Fraction of next tokens the probe reproduces under teacher forcing.

    For each trajectory with generated tokens t_1..t_n, the probe greedily
    re-predicts t_2..t_n from the true prefixes; the trajectory's value is
    matches / (n - 1). Any trajectory with fewer than two generated tokens
    is an error naming its index.
    """
    if len(trajectories) == 0:
        raise EmptyInputError("pcr needs at least one trajectory")
    values = []
    for index, trajectory in enumerate(trajectories):
        try:
            pairs = replay_against(trajectory, probe)
        except InsufficientTrajectoryError as exc:
            raise InsufficientTrajectoryError(f"trajectory {index}: {exc}") from exc
        matches = sum(1 for predicted, actual in pairs if predicted == actual)
        values.append(matches / len(pairs))
    return PcrReport(
        per_trajectory=tuple(values),
        mean=float(np.mean(values)),
        n=len(values),
    )


def delta_series(trajectory: Trajectory, expert: Scorer, expert_base: Scorer) -> np.ndarray:
    """Teacher-forced expert-minus-base deltas along a reference trajectory.

    Row j is ``expert(prefix) - expert_base(prefix)`` where prefix is the
    prompt plus the first j generated tokens, so two scorer pairs evaluated
    against the same trajectory yield aligned (steps x vocab) series. A
    token id outside the scorers' vocabulary raises
    :class:`VocabularyMismatchError` naming its position.
    """
    if expert.vocab.size != expert_base.vocab.size:
        raise VocabularyMismatchError(
            f"scorer vocab sizes disagree: expert={expert.vocab.size}, "
            f"expert_base={expert_base.vocab.size}"
        )
    generated = trajectory.tokens
    if len(generated) == 0:
        raise EmptyInputError("trajectory has no generated tokens")
    size = expert.vocab.size
    context = TokenPrefix(size, trajectory.prompt_tokens)
    rows = []
    for token in generated:
        rows.append(
            as_logits(expert.score(context), size) - as_logits(expert_base.score(context), size)
        )
        context.append(token)
    return np.stack(rows)


def avg_cosine_sim(series_a: np.ndarray, series_b: np.ndarray) -> float:
    """Mean per-step cosine similarity between two aligned delta series.

    A zero-norm row on either side makes the cosine undefined and raises
    :class:`UndefinedCosineError` naming the step. Each step's cosine is
    clamped to [-1, 1] to shed floating-point overshoot.
    """
    a = np.asarray(series_a, dtype=np.float64)
    b = np.asarray(series_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise SeriesMismatchError(f"series must be 2-D, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise SeriesMismatchError(f"series shapes disagree: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise EmptyInputError("series must contain at least one step")
    cosines = []
    for step in range(a.shape[0]):
        norm_a = float(np.linalg.norm(a[step]))
        norm_b = float(np.linalg.norm(b[step]))
        if norm_a == 0.0 or norm_b == 0.0:
            raise UndefinedCosineError(f"step {step}: zero-norm delta vector")
        value = float(a[step] @ b[step]) / (norm_a * norm_b)
        cosines.append(min(1.0, max(-1.0, value)))
    return float(np.mean(cosines))


@dataclass(frozen=True)
class TokenSetSpec:
    """Named categories of token surfaces, matched case-insensitively."""

    categories: tuple[tuple[str, tuple[str, ...]], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[str]]) -> "TokenSetSpec":
        categories = []
        for name, tokens in mapping.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"category name must be a non-empty string, got {name!r}")
            surfaces = tuple(str(t).casefold() for t in tokens)
            if not surfaces:
                raise ValueError(f"category {name!r} has no tokens")
            categories.append((name, surfaces))
        return cls(categories=tuple(categories))

    @classmethod
    def from_file(cls, path) -> "TokenSetSpec":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"token set file must hold a JSON object, got {type(data).__name__}")
        return cls.from_mapping(data)

    @classmethod
    def default(cls) -> "TokenSetSpec":
        """Illustrative built-in categories; override with your own file."""
        ref = resources.files("deltadecode.data").joinpath("token_sets.json")
        return cls.from_mapping(json.loads(ref.read_text(encoding="utf-8")))

    def as_dict(self) -> dict[str, list[str]]:
        return {name: list(tokens) for name, tokens in self.categories}


def token_frequency(
    trajectories: Sequence[Trajectory],
    token_sets: TokenSetSpec,
    vocab: Vocabulary,
) -> dict[str, float]:
    """Per-category share of generated tokens whose surface is in the set.

    The denominator is the total count of generated tokens across all
    trajectories; matching folds case on both sides.
    """
    if len(trajectories) == 0:
        raise EmptyInputError("token_frequency needs at least one trajectory")
    folded_surface = [s.casefold() for s in vocab.surface]
    total = 0
    counts = {name: 0 for name, _ in token_sets.categories}
    id_sets = {
        name: {i for i, s in enumerate(folded_surface) if s in {t.casefold() for t in tokens}}
        for name, tokens in token_sets.categories
    }
    for trajectory in trajectories:
        for token in trajectory.tokens:
            if not 0 <= token < vocab.size:
                raise VocabularyMismatchError(
                    f"token id {token} outside vocabulary of size {vocab.size}"
                )
            total += 1
            for name, ids in id_sets.items():
                if token in ids:
                    counts[name] += 1
    if total == 0:
        raise EmptyInputError("trajectories contain no generated tokens")
    return {name: counts[name] / total for name in counts}


def length_stats(groups: Mapping[str, Sequence[Trajectory]]) -> dict[str, dict[str, float]]:
    """Generated-length statistics per group.

    ``stddev`` is the population standard deviation (ddof=0), so a
    single-trajectory group reports 0.
    """
    if len(groups) == 0:
        raise EmptyInputError("length_stats needs at least one group")
    out: dict[str, dict[str, float]] = {}
    for name, trajectories in groups.items():
        if len(trajectories) == 0:
            raise EmptyInputError(f"group {name!r} has no trajectories")
        lengths = np.array([len(t.generated) for t in trajectories], dtype=np.float64)
        out[name] = {
            "n": int(lengths.size),
            "mean": float(lengths.mean()),
            "stddev": float(lengths.std(ddof=0)),
            "min": int(lengths.min()),
            "max": int(lengths.max()),
        }
    return out
