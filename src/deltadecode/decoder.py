"""Delta-guided decoding loop and teacher-forced replay.

Each step scores the prefix with the base scorer (and, when attached, the
expert pair), combines logits in raw logit space, applies temperature
softmax then nucleus filtering, and picks the next token greedily or by
sampling. Generation stops at the vocabulary's eos token or the step cap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    DecodeConfig,
    EmptyInputError,
    InvalidConfigError,
    TokenPrefix,
    VocabularyMismatchError,
    argmax_token,
    as_logits,
    combine_logits,
    nucleus_filter,
    sample_token,
    softmax_with_temperature,
)
from .scorers import Scorer

__all__ = [
    "DecodeError",
    "InsufficientTrajectoryError",
    "KL_FLOOR",
    "StepRecord",
    "Trajectory",
    "decode",
    "kl_divergence",
    "replay_against",
]

# Zero probabilities on the filtered side are floored before the log so the
# divergence stays finite when nucleus filtering empties part of the support.
KL_FLOOR = 1e-12

INSTRUMENT_FLAGS = ("kl", "delta")


class DecodeError(RuntimeError):
    """A scorer failed or returned unusable logits during decoding."""


class InsufficientTrajectoryError(ValueError):
    """Replay needs at least two generated tokens to form one comparison."""


@dataclass(frozen=True)
class StepRecord:
    """One generated token with the diagnostics recorded at its step."""

    token: int
    chosen_logprob: float
    kl_base_vs_combined: float | None = None
    delta_l2: float | None = None
    delta_dot_base: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Immutable record of one decode: prompt, steps, and the settings used."""

    prompt_tokens: tuple[int, ...]
    generated: tuple[StepRecord, ...]
    stop_reason: str
    config_snapshot: DecodeConfig
    scorer_labels: tuple[tuple[str, str], ...] = ()

    @property
    def tokens(self) -> tuple[int, ...]:
        return tuple(step.token for step in self.generated)

    @property
    def labels(self) -> dict[str, str]:
        return dict(self.scorer_labels)

    @classmethod
    def from_tokens(
        cls,
        prompt_tokens,
        tokens,
        stop_reason: str,
        config_snapshot: DecodeConfig,
        scorer_labels=(),
        logprobs=None,
        kl=None,
    ) -> "Trajectory":
        """Build a trajectory from bare token ids (logprobs default to 0, kl to None).

        Raises ValueError unless given logprobs and kl have one entry per token.
        """
        tokens = tuple(int(t) for t in tokens)
        logprobs = [0.0] * len(tokens) if logprobs is None else logprobs
        kl = [None] * len(tokens) if kl is None else kl
        if not len(tokens) == len(logprobs) == len(kl):
            raise ValueError(
                f"{len(tokens)} tokens, {len(logprobs)} logprobs and {len(kl)} kl entries"
            )
        steps = tuple(
            StepRecord(t, float(lp), None if k is None else float(k))
            for t, lp, k in zip(tokens, logprobs, kl)
        )
        return cls(
            prompt_tokens=tuple(int(t) for t in prompt_tokens),
            generated=steps,
            stop_reason=stop_reason,
            config_snapshot=config_snapshot,
            scorer_labels=tuple(scorer_labels),
        )

    def to_dict(self) -> dict:
        """Persisted form for campaign lines and CLI output; ``kl`` only if recorded."""
        data = {
            "prompt_tokens": list(self.prompt_tokens),
            "tokens": list(self.tokens),
            "logprobs": [step.chosen_logprob for step in self.generated],
            "stop_reason": self.stop_reason,
        }
        kl = [step.kl_base_vs_combined for step in self.generated]
        if any(k is not None for k in kl):
            data["kl"] = kl
        return data

    @classmethod
    def from_dict(cls, data: dict, config_snapshot: DecodeConfig, scorer_labels=()) -> "Trajectory":
        """Inverse of :meth:`to_dict`, through :meth:`from_tokens`; other keys are ignored."""
        return cls.from_tokens(
            data["prompt_tokens"],
            data["tokens"],
            data["stop_reason"],
            config_snapshot,
            scorer_labels,
            logprobs=data["logprobs"],
            kl=data.get("kl"),
        )


def kl_divergence(p: np.ndarray, q: np.ndarray, floor: float = KL_FLOOR) -> float:
    """KL(p || q) in nats, flooring q at ``floor`` inside the log.

    The floor keeps zeroed (filtered) entries finite; the result is clamped
    at 0 to absorb the tiny negative residue the floor can introduce.
    """
    mask = p > 0
    ps = p[mask]
    qs = np.maximum(q[mask], floor)
    return max(float(np.sum(ps * (np.log(ps) - np.log(qs)))), 0.0)


def _checked_score(scorer: Scorer, role: str, prefix, step: int, size: int) -> np.ndarray:
    label = role if scorer.name in ("", role) else f"{role} ({scorer.name})"
    try:
        raw = scorer.score(prefix)
    except Exception as exc:
        raise DecodeError(f"scorer {label!r} failed at step {step}: {exc}") from exc
    try:
        return as_logits(raw, size)
    except Exception as exc:
        raise DecodeError(f"scorer {label!r} returned bad logits at step {step}: {exc}") from exc


def decode(
    base: Scorer,
    expert: Scorer | None = None,
    expert_base: Scorer | None = None,
    *,
    prompt: Sequence[int],
    config: DecodeConfig,
    instrument: Sequence[str] = (),
    labels: dict[str, str] | None = None,
) -> Trajectory:
    """Generate a trajectory from ``prompt`` under ``config``.

    With an expert pair attached, each step scores all three models and
    decodes from ``base + delta_scale * (expert - expert_base)``; without
    one it decodes the base alone. Instrument flags: ``"kl"`` records the
    per-step divergence between the unfiltered base distribution and the
    final (post-nucleus) distribution; ``"delta"`` records the L2 norm of
    the expert-minus-base delta and its dot product with the base logits.
    """
    if (expert is None) != (expert_base is None):
        raise InvalidConfigError("expert and expert_base must be supplied together")
    flags = set(instrument)
    unknown = flags - set(INSTRUMENT_FLAGS)
    if unknown:
        raise InvalidConfigError(f"unknown instrument flags: {sorted(unknown)}")
    size = base.vocab.size
    if expert is not None:
        if expert.vocab.size != size or expert_base.vocab.size != size:
            raise VocabularyMismatchError(
                f"scorer vocab sizes disagree: base={size}, "
                f"expert={expert.vocab.size}, expert_base={expert_base.vocab.size}"
            )
    try:
        context = TokenPrefix(size, prompt)
    except VocabularyMismatchError as exc:
        raise DecodeError(f"prompt {exc}") from None
    if not context:
        raise EmptyInputError("prompt must contain at least one token")

    want_kl = "kl" in flags
    want_delta = "delta" in flags and expert is not None
    rng = np.random.default_rng(config.seed) if config.mode == "sample" else None
    eos = base.vocab.eos

    steps: list[StepRecord] = []
    stop_reason = "max_tokens"
    for step in range(config.max_tokens):
        base_logits = _checked_score(base, "base", context, step, size)
        if expert is not None:
            expert_logits = _checked_score(expert, "expert", context, step, size)
            expert_base_logits = _checked_score(expert_base, "expert_base", context, step, size)
            logits = combine_logits(
                base_logits, expert_logits, expert_base_logits, config.delta_scale
            )
        else:
            logits = base_logits
        probs = softmax_with_temperature(logits, config.temperature)
        dist = nucleus_filter(probs, config.top_p)
        if config.mode == "greedy":
            token = argmax_token(dist)
        else:
            token = sample_token(dist, rng)

        kl = None
        if want_kl:
            base_probs = softmax_with_temperature(base_logits, config.temperature)
            kl = kl_divergence(base_probs, dist)
        delta_l2 = None
        delta_dot = None
        if want_delta:
            delta = expert_logits - expert_base_logits
            delta_l2 = float(np.linalg.norm(delta))
            delta_dot = float(delta @ base_logits)

        steps.append(
            StepRecord(
                token=token,
                chosen_logprob=float(np.log(dist[token])),
                kl_base_vs_combined=kl,
                delta_l2=delta_l2,
                delta_dot_base=delta_dot,
            )
        )
        context.append(token)
        if token == eos:
            stop_reason = "eos"
            break

    label_map = dict(labels) if labels else {}
    label_map.setdefault("base", base.name)
    if expert is not None:
        label_map.setdefault("expert", expert.name)
        label_map.setdefault("expert_base", expert_base.name)
    return Trajectory(
        prompt_tokens=tuple(context[: len(context) - len(steps)]),
        generated=tuple(steps),
        stop_reason=stop_reason,
        config_snapshot=config,
        scorer_labels=tuple(sorted(label_map.items())),
    )


def replay_against(trajectory: Trajectory, probe: Scorer) -> list[tuple[int, int]]:
    """Teacher-forced greedy replay of a trajectory through ``probe``.

    For generated tokens t_1..t_n, returns the n-1 pairs
    ``(argmax probe(prompt + t_1..t_i), t_{i+1})`` for i = 1..n-1. A token
    id outside the probe's vocabulary raises
    :class:`VocabularyMismatchError` naming its position in prompt plus
    generated tokens.
    """
    generated = trajectory.tokens
    n = len(generated)
    if n < 2:
        raise InsufficientTrajectoryError(
            f"replay needs at least 2 generated tokens, trajectory has {n}"
        )
    size = probe.vocab.size
    context = TokenPrefix(size, trajectory.prompt_tokens + generated[:1])
    pairs: list[tuple[int, int]] = []
    for token in generated[1:]:
        predicted = argmax_token(as_logits(probe.score(context), size))
        context.append(token)
        pairs.append((predicted, token))
    return pairs
