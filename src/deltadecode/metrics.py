"""Accuracy metrics over pooled predictions.

An :class:`EvalRecord` holds one problem's prediction pool; correctness is
always recomputed from the stored strings, never trusted from disk. On top
of the records sit the exact and resampled pass@k estimators, subset
majority voting, and the recovery rate that locates a decoding arm between
its base and its reference ceiling.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from .core import EmptyInputError, InvalidConfigError

__all__ = [
    "DegenerateGapError",
    "EvalRecord",
    "InvalidKError",
    "MetricResult",
    "extract_answer",
    "load_records",
    "majority_at_k",
    "match_answer",
    "pass_at_k_exact",
    "pass_at_k_resampled",
    "pass_probability",
    "recovery_rate",
    "save_records",
]

ANSWER_STYLES = ("boxed", "last_number")

_BOXED_OPEN = re.compile(r"\\boxed\s*\{")
_NUMBER = re.compile(r"[-+]?\d[\d,]*(?:\.\d+)?")
_MATCH_TOLERANCE = Fraction(1, 10**9)


class InvalidKError(ValueError):
    """k is outside 1..n for at least one record's pool."""


class DegenerateGapError(ValueError):
    """Recovery rate is undefined when the reference equals the base."""


def extract_answer(text: str, style: str = "boxed") -> str | None:
    """Pull the final answer out of generated text; None when absent.

    ``boxed`` returns the contents of the last balanced ``\\boxed{...}``
    group; ``last_number`` returns the last decimal numeral (optional sign
    and fraction part) with thousands commas stripped.
    """
    if style == "boxed":
        answer = None
        for open_match in _BOXED_OPEN.finditer(text):
            depth = 1
            start = open_match.end()
            for i in range(start, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        answer = text[start:i]
                        break
        return answer
    if style == "last_number":
        matches = _NUMBER.findall(text)
        if not matches:
            return None
        return matches[-1].replace(",", "")
    raise InvalidConfigError(f"style must be one of {ANSWER_STYLES}, got {style!r}")


def _canonical(text: str) -> str:
    stripped = text.strip().casefold().strip("$").strip()
    return " ".join(stripped.split())


def _as_rational(text: str) -> Fraction | None:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def match_answer(prediction: str | None, truth: str) -> bool:
    """Whether a predicted answer agrees with the ground truth.

    Both sides are trimmed, case-folded, stripped of surrounding ``$`` and
    collapsed on internal whitespace; strings that both parse as rationals
    compare numerically with tolerance 1e-9.
    """
    return _matches(prediction, _truth_key(truth))


def _truth_key(truth: str) -> tuple[str, Fraction | None]:
    """A ground truth's canonical form and its rational value, if it has one."""
    canonical = _canonical(truth)
    return canonical, _as_rational(canonical)


def _matches(prediction: str | None, truth_key: tuple[str, Fraction | None]) -> bool:
    """:func:`match_answer` against a truth's :func:`_truth_key`."""
    if prediction is None:
        return False
    a = _canonical(prediction)
    b, rb = truth_key
    if a == b:
        return True
    if rb is None:
        return False
    ra = _as_rational(a)
    return ra is not None and abs(ra - rb) <= _MATCH_TOLERANCE


@dataclass(frozen=True)
class EvalRecord:
    """One problem's prediction pool; correctness is derived, not stored."""

    problem_id: str
    ground_truth: str
    predictions: tuple[str, ...]
    correct: tuple[bool, ...] = field(init=False)

    def __post_init__(self):
        preds = tuple("" if p is None else str(p) for p in self.predictions)
        if len(preds) == 0:
            raise EmptyInputError(f"record {self.problem_id!r} has an empty prediction pool")
        object.__setattr__(self, "predictions", preds)
        truth = _truth_key(self.ground_truth)
        # A pool repeats a few answers many times; match each one once.
        verdicts = {p: _matches(p, truth) for p in set(preds)}
        object.__setattr__(self, "correct", tuple(map(verdicts.__getitem__, preds)))

    @property
    def n(self) -> int:
        return len(self.predictions)

    @property
    def n_correct(self) -> int:
        return sum(self.correct)

    def to_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "ground_truth": self.ground_truth,
            "predictions": list(self.predictions),
        }


def load_records(path) -> list[EvalRecord]:
    """Read a JSONL file of {problem_id, ground_truth, predictions} lines."""
    records = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:  # not JSON, or an int past the digit limit
            raise ValueError(f"{path}: line {lineno}: malformed record: {exc}") from exc
        try:
            records.append(
                EvalRecord(
                    problem_id=str(data["problem_id"]),
                    ground_truth=str(data["ground_truth"]),
                    predictions=tuple(data["predictions"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: line {lineno}: malformed record: {exc}") from exc
    return records


def save_records(records: Sequence[EvalRecord], path) -> None:
    Path(path).write_text(_records_text(records), encoding="utf-8")


def _records_text(records: Sequence[EvalRecord]) -> str:
    """The JSONL text :func:`save_records` writes: one compact, key-sorted line per record."""
    lines = [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) for r in records]
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class MetricResult:
    """A metric value plus how it was estimated."""

    value: float
    k: int | None
    estimator: str
    repeats: int | None = None
    stderr: float | None = None


def _check_k(records: Sequence[EvalRecord], k: int) -> None:
    if len(records) == 0:
        raise EmptyInputError("metrics need at least one record")
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    for record in records:
        if k > record.n:
            raise InvalidKError(
                f"k={k} exceeds pool size {record.n} for problem {record.problem_id!r}"
            )


def pass_probability(n: int, c: int, k: int) -> float:
    """Chance a uniform size-k subset of n pooled samples contains a correct one.

    Computed as ``(C(n,k) - C(n-c,k)) / C(n,k)`` with integer combinatorics,
    so it matches exhaustive subset enumeration exactly.
    """
    if not 0 <= c <= n:
        raise InvalidKError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not 1 <= k <= n:
        raise InvalidKError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = comb(n, k)
    return (total - comb(n - c, k)) / total


def pass_at_k_exact(records: Sequence[EvalRecord], k: int) -> MetricResult:
    """Closed-form pass@k averaged over records."""
    _check_k(records, k)
    values = [pass_probability(r.n, r.n_correct, k) for r in records]
    return MetricResult(value=float(np.mean(values)), k=k, estimator="exact")


def _resampled(records: Sequence[EvalRecord], k: int, repeats: int, seed: int, hit) -> MetricResult:
    """Mean of ``hit(record, chosen)`` over uniform size-k subsets.

    ``chosen`` holds one row of k pool indices per repeat: the k smallest of
    n uniform keys, drawn from a per-problem substream keyed by (seed,
    problem index), so results do not depend on evaluation order. ``hit``
    returns one bool per row. The value is the grand mean over (repeat,
    problem) indicators; stderr is the standard error of the per-repeat
    means.
    """
    _check_k(records, k)
    if repeats < 1:
        raise InvalidKError(f"repeats must be >= 1, got {repeats}")
    hits = np.zeros((repeats, len(records)), dtype=bool)
    for j, record in enumerate(records):
        keys = np.random.default_rng([seed, j]).random((repeats, record.n))
        hits[:, j] = hit(record, np.argpartition(keys, k - 1, axis=1)[:, :k])
    value = int(hits.sum()) / (repeats * len(records))
    stderr = None
    if repeats > 1:
        stderr = float(hits.mean(axis=1).std(ddof=1) / np.sqrt(repeats))
    return MetricResult(value=value, k=k, estimator="resampled", repeats=repeats, stderr=stderr)


def pass_at_k_resampled(
    records: Sequence[EvalRecord], k: int, repeats: int = 10, seed: int = 0
) -> MetricResult:
    """Monte Carlo pass@k: whether a uniform size-k subset per problem, per
    repeat, holds a correct prediction."""

    def hit(record, chosen):
        return np.asarray(record.correct, dtype=bool)[chosen].any(axis=1)

    return _resampled(records, k, repeats, seed, hit)


def _modal_answer(predictions: Sequence[str], subset: Sequence[int]) -> str:
    """Most frequent answer in the subset, grouping by canonical form.

    Ties break toward the answer whose first occurrence comes earliest in
    the subset's original pool order.
    """
    counts: dict[str, int] = {}
    first_repr: dict[str, str] = {}
    for index in subset:
        key = _canonical(predictions[index])
        counts[key] = counts.get(key, 0) + 1
        first_repr.setdefault(key, predictions[index])
    best_count = max(counts.values())
    for key in counts:  # dict preserves first-occurrence order
        if counts[key] == best_count:
            return first_repr[key]
    raise AssertionError("unreachable")


def majority_at_k(
    records: Sequence[EvalRecord], k: int, repeats: int = 10, seed: int = 0
) -> MetricResult:
    """Accuracy of subset majority vote, resampled like pass@k.

    Each repeat draws a uniform size-k subset per problem, takes the modal
    extracted answer (ties to the earliest first occurrence in pool order),
    and scores it against the ground truth.
    """

    def hit(record, chosen):
        winners = (_modal_answer(record.predictions, sorted(row.tolist())) for row in chosen)
        return [match_answer(winner, record.ground_truth) for winner in winners]

    return _resampled(records, k, repeats, seed, hit)


def recovery_rate(acc_method: float, acc_base: float, acc_rl: float) -> float:
    """Fraction of the base-to-reference accuracy gap the method recovers.

    All three accuracies must share a scale ([0, 1] or [0, 100]); the ratio
    itself is scale-invariant. Values outside [0, 1] are meaningful: above
    1 the method beat its reference, below 0 it fell behind its base.
    """
    for name, value in (("acc_method", acc_method), ("acc_base", acc_base), ("acc_rl", acc_rl)):
        if not np.isfinite(value) or not 0 <= value <= 100:
            raise InvalidConfigError(f"{name} must be a finite accuracy in [0, 100], got {value}")
    if acc_rl == acc_base:
        raise DegenerateGapError(
            f"reference accuracy equals base accuracy ({acc_base}); gap is degenerate"
        )
    return (acc_method - acc_base) / (acc_rl - acc_base)
