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
    InvalidLogitsError,
    TokenPrefix,
    VocabularyMismatchError,
    _as_row,
    _combine,
    _greedy,
    _nucleus,
    _nucleus_rows,
    _sample,
    _sample_rows,
    _shifted_exp,
    _softmax,
    _total,
    _weights,
    _weights_rows,
    as_logits,
)

# perfbench/tracer.py wraps the checked public steps as attributes of this
# module, so they stay bound here although decode runs the private ones.
from .core import (  # noqa: F401
    argmax_token,
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

INSTRUMENT_FLAGS = ("kl",)

ROLES = ("base", "expert", "expert_base")


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


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats, flooring q at ``KL_FLOOR`` inside the log.

    The floor keeps zeroed (filtered) entries finite; the result is clamped
    at 0 to absorb the tiny negative residue the floor can introduce.
    """
    mask = p > 0
    ps = p[mask]
    qs = np.maximum(q[mask], KL_FLOOR)
    return max(float(np.sum(ps * (np.log(ps) - np.log(qs)))), 0.0)


def _label(scorer: Scorer, role: str) -> str:
    return role if scorer.name in ("", role) else f"{role} ({scorer.name})"


def _checked_score(
    scorer: Scorer, role: str, prefix, step: int, size: int, finite: bool
) -> np.ndarray:
    """The scorer's row for ``prefix``, checked for shape and size, and for
    finite values when ``finite`` is true."""
    try:
        raw = scorer.score(prefix)
    except Exception as exc:
        raise _failed(scorer, role, step, exc) from exc
    try:
        return as_logits(raw, size) if finite else _as_row(raw, size)
    except Exception as exc:
        raise _bad_logits(scorer, role, step, exc) from exc


def _failed(scorer: Scorer, role: str, step: int, exc: Exception) -> DecodeError:
    return DecodeError(f"scorer {_label(scorer, role)!r} failed at step {step}: {exc}")


def _bad_logits(scorer: Scorer, role: str, step: int, exc: Exception) -> DecodeError:
    return DecodeError(f"scorer {_label(scorer, role)!r} returned bad logits at step {step}: {exc}")


def _checked_rows(
    scorer: Scorer, role: str, prefixes, step: int, size: int, finite: bool
) -> np.ndarray:
    """:func:`_checked_score` over a block: the scorer's rows for
    ``prefixes`` as one (len(prefixes), size) array."""
    try:
        raw = scorer._score_rows(prefixes)
    except Exception as exc:
        raise _failed(scorer, role, step, exc) from exc
    block = np.asarray(raw, dtype=np.float64)
    if block.shape != (len(prefixes), size):
        exc = VocabularyMismatchError(
            f"expected {len(prefixes)} rows of {size} logits, got shape {block.shape}"
        )
        raise _bad_logits(scorer, role, step, exc)
    if finite:
        _check_finite(scorer, role, step, block)
    return block


def _check_finite(scorer: Scorer, role: str, step: int, rows: np.ndarray) -> None:
    """Raise :func:`_bad_logits` naming ``role`` if ``rows`` hold a NaN or +-inf."""
    if not np.isfinite(rows).all():
        exc = InvalidLogitsError("logits contain non-finite values")
        raise _bad_logits(scorer, role, step, exc) from exc


def _checked_combine(scorers, rows, step: int, scale: float, out: np.ndarray) -> np.ndarray:
    """The combined row (or block of rows) of base, expert and expert_base,
    written into ``out``.

    Only the combined rows are checked for finite values: with ``scale >
    0``, any NaN or +-inf in the three inputs makes them non-finite. When
    they are, the first non-finite input is named, else the combine itself
    overflowed.
    """
    try:
        return _combine(*rows, scale, out)
    except InvalidLogitsError:
        for scorer, role, row in zip(scorers, ROLES, rows):
            _check_finite(scorer, role, step, row)
        raise


def _sparse_rows(scorers, prefix, step: int) -> list | None:
    """Each role's ``_sparse_row(prefix)``, or None once one has no sparse form."""
    rows = []
    for scorer, role in zip(scorers, ROLES):
        try:
            row = scorer._sparse_row(prefix)
        except Exception as exc:
            raise _failed(scorer, role, step, exc) from exc
        if row is None:
            return None
        rows.append(row)
    return rows


# A guided step whose three rows all have sparse forms takes the sparse
# step when the vocabulary has at least _SPARSE_MIN_VOCAB ids and at least
# _SPARSE_VOCAB_PER_ID ids per id the rows count (repeats included).
# Sparse time over dense time per step (scoring, combine and weights; the
# nucleus is the same for both), measured on a shared 2-vCPU x86_64 VM
# pinned to one core with three add-1e-6 unigram tables, k ids per role
# (70% of them shared), scale 1 and temperature 1: the two cost the same
# near 350 counted ids at V=4096, 760 at 8192, 1280 at 16384, 2800 at
# 32768 and above 6100 at 65536, so about one counted id per 11-13 ids.
# Below the crossover, at k=8, the sparse step took 0.72x the time at
# V=4096 and 0.37x at 32768; at V=1024 and 2048 the two were within 15%
# of each other at any count. Scale 2 and temperature 1.3 moved the
# crossovers up by 0-40%. At 16 ids per counted id, the gated steps
# measured 1.15x or better.
_SPARSE_MIN_VOCAB = 4096
_SPARSE_VOCAB_PER_ID = 16


def _sparse_pays(size: int, counted: int) -> bool:
    """Whether a sparse step over rows counting ``counted`` ids in all is
    measured faster than the dense one at vocabulary ``size``."""
    return size >= _SPARSE_MIN_VOCAB and counted * _SPARSE_VOCAB_PER_ID <= size


def _sparse_weights(scorers, rows, step: int, scale: float, temperature: float, out: np.ndarray):
    """:func:`_checked_combine` then :func:`_weights` of three sparse rows,
    written into ``out`` as one fill and one scatter.

    Every step before the sum is elementwise but the max, so each id
    gets the bits the dense step gives it from one lane per id some role
    counts (the union U) plus one fill lane for the ids none counts. The
    fill lane takes part only when some id is uncounted, as in the dense
    row; then each lane row holds a role's fill exactly when its dense
    row does, so the finite check names the role the dense one names.
    """
    # Each row's ids are ascending, and a stable sort merges such runs.
    counted = np.sort(np.concatenate([ids for _, ids, _ in rows]), kind="stable")
    union = counted[np.diff(counted, prepend=-1) != 0]  # ids are >= 0
    n = union.size
    width = n + (n < out.size)
    lanes = np.empty((3, width))
    for lane, (fill, ids, values) in zip(lanes, rows):
        lane.fill(fill)
        lane[union.searchsorted(ids)] = values
    weights = _checked_combine(scorers, lanes, step, scale, np.empty(width))
    _shifted_exp(weights, temperature, weights)
    if width > n:
        out.fill(weights[n])
    out[union] = weights[:n]
    return out, _total(out, temperature)


def decode(
    base: Scorer,
    expert: Scorer | None = None,
    expert_base: Scorer | None = None,
    *,
    prompt: Sequence[int],
    config: DecodeConfig,
    instrument: Sequence[str] = (),
) -> Trajectory:
    """Generate a trajectory from ``prompt`` under ``config``.

    With an expert pair attached, each step scores all three models and
    decodes from ``base + delta_scale * (expert - expert_base)``; without
    one it decodes the base alone. The one instrument flag, ``"kl"``,
    records the per-step divergence between the unfiltered base
    distribution and the final (post-nucleus) distribution.
    """
    context, want_kl = _prepared(base, expert, expert_base, prompt, instrument)
    size = base.vocab.size
    rng = np.random.default_rng(config.seed) if config.mode == "sample" else None
    eos = base.vocab.eos
    # With delta_scale > 0 only the combined row is checked for finite
    # values; otherwise each row is, and the base row is decoded as it is.
    guided = expert is not None and config.delta_scale > 0
    finite = not guided
    scorers = (base, expert, expert_base)
    # The kl instrument needs the dense base row.
    sparse_ok = guided and not want_kl and _sparse_pays(size, 0)
    # The combine, the temperature divide and exp run in place in this one
    # buffer; no scorer row is written.
    work = np.empty(size)

    steps: list[StepRecord] = []
    stop_reason = "max_tokens"
    # The config was validated when it was built, and each row is validated
    # once per step here; the step core below checks neither again.
    for step in range(config.max_tokens):
        sparse = _sparse_rows(scorers, context, step) if sparse_ok else None
        if sparse is not None and _sparse_pays(size, sum(ids.size for _, ids, _ in sparse)):
            weights, total = _sparse_weights(
                scorers, sparse, step, config.delta_scale, config.temperature, work
            )
        else:
            logits = base_logits = _checked_score(base, "base", context, step, size, finite)
            if expert is not None:
                rows = (
                    base_logits,
                    _checked_score(expert, "expert", context, step, size, finite),
                    _checked_score(expert_base, "expert_base", context, step, size, finite),
                )
                if guided:
                    logits = _checked_combine(scorers, rows, step, config.delta_scale, work)
            weights, total = _weights(logits, config.temperature, work)
        dist, kept = _nucleus(weights, total, config.top_p)
        if rng is None:
            token = _greedy(dist, kept)
        else:
            token = _sample(dist, kept, rng)

        kl = None
        if want_kl:
            base_probs = _softmax(base_logits, config.temperature)
            kl = kl_divergence(base_probs, dist)

        steps.append(
            StepRecord(
                token=token,
                chosen_logprob=float(np.log(dist[token])),
                kl_base_vs_combined=kl,
            )
        )
        context.append(token)
        if token == eos:
            stop_reason = "eos"
            break

    return Trajectory(
        prompt_tokens=tuple(context[: len(context) - len(steps)]),
        generated=tuple(steps),
        stop_reason=stop_reason,
        config_snapshot=config,
        scorer_labels=_scorer_labels(base, expert, expert_base),
    )


def _prepared(base, expert, expert_base, prompt, instrument) -> tuple[TokenPrefix, bool]:
    """Check a decode's scorers, instrument flags and prompt; returns the
    prompt as a prefix of the base vocabulary and whether kl is recorded."""
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
    return context, "kl" in flags


def _scorer_labels(base, expert, expert_base) -> tuple[tuple[str, str], ...]:
    label_map = {"base": base.name}
    if expert is not None:
        label_map.update(expert=expert.name, expert_base=expert_base.name)
    return tuple(sorted(label_map.items()))


def _decode_lockstep(
    base: Scorer,
    expert: Scorer | None = None,
    expert_base: Scorer | None = None,
    *,
    prompt: Sequence[int],
    config: DecodeConfig,
    seeds: Sequence[int],
    instrument: Sequence[str] = (),
):
    """:func:`decode` of one prompt once per seed, with the rows stepped together.

    Yields ``(row, trajectory)`` as each row stops, where ``trajectory``
    is bit for bit ``decode(..., config=config.replace(seed=seeds[row]))``.
    Each step scores the active rows as one block through each scorer's
    ``_score_rows`` and runs the batched step core over it; each row keeps
    its own generator and prefix, and leaves the block at eos. The checks
    are ``decode``'s, over blocks: a failure raises the same
    :class:`DecodeError`, naming the role and step, after every row that
    stopped earlier has been yielded.
    """
    context, want_kl = _prepared(base, expert, expert_base, prompt, instrument)
    size = base.vocab.size
    eos = base.vocab.eos
    guided = expert is not None and config.delta_scale > 0
    finite = not guided
    scorers = (base, expert, expert_base)
    labels = _scorer_labels(base, expert, expert_base)
    prompt_tokens = tuple(context)
    configs = [config.replace(seed=seed) for seed in seeds]
    rngs = [np.random.default_rng(seed) for seed in seeds] if config.mode == "sample" else None
    contexts = [context.head(len(context)) for _ in seeds]
    steps: list[list[StepRecord]] = [[] for _ in seeds]
    # Active rows are the leading rows of the buffer, so each slice of it
    # stays C-contiguous.
    work = np.empty((len(seeds), size))

    def finished(row: int, stop_reason: str) -> tuple[int, Trajectory]:
        return row, Trajectory(
            prompt_tokens=prompt_tokens,
            generated=tuple(steps[row]),
            stop_reason=stop_reason,
            config_snapshot=configs[row],
            scorer_labels=labels,
        )

    active = list(range(len(seeds)))
    for step in range(config.max_tokens):
        if not active:
            return
        prefixes = [contexts[row] for row in active]
        out = work[: len(active)]
        logits = base_logits = _checked_rows(base, "base", prefixes, step, size, finite)
        if expert is not None:
            rows = (
                base_logits,
                _checked_rows(expert, "expert", prefixes, step, size, finite),
                _checked_rows(expert_base, "expert_base", prefixes, step, size, finite),
            )
            if guided:
                logits = _checked_combine(scorers, rows, step, config.delta_scale, out)
        weights, totals = _weights_rows(logits, config.temperature, out)
        dist = _nucleus_rows(weights, totals, config.top_p)
        if rngs is None:
            tokens = dist.argmax(axis=1)
        else:
            tokens = _sample_rows(dist, [rngs[row] for row in active])
        logprobs = np.log(dist[np.arange(len(active)), tokens])
        kls = _kl_rows(base_logits, dist, config.temperature) if want_kl else [None] * len(active)

        still = []
        for row, token, logprob, kl in zip(active, tokens.tolist(), logprobs.tolist(), kls):
            steps[row].append(StepRecord(token=token, chosen_logprob=logprob, kl_base_vs_combined=kl))
            contexts[row].append(token)
            if token == eos:
                yield finished(row, "eos")
            else:
                still.append(row)
        active = still
    for row in active:
        yield finished(row, "max_tokens")


def _kl_rows(base_logits: np.ndarray, dist: np.ndarray, temperature: float) -> list[float]:
    """Per row, :func:`kl_divergence` of the base softmax and ``dist``.

    A row whose base softmax is positive everywhere sums its V terms in
    the block. A row with an exact zero takes ``kl_divergence`` itself:
    a pairwise sum over the masked entries groups them differently from
    a sum over all V with zeros in their place.
    """
    weights, totals = _weights_rows(base_logits, temperature, np.empty(base_logits.shape))
    probs = weights / totals[:, None]
    full = (probs > 0).all(axis=1)
    p, q = (probs, dist) if full.all() else (probs[full], dist[full])
    sums = iter((p * (np.log(p) - np.log(np.maximum(q, KL_FLOOR)))).sum(axis=1).tolist())
    return [
        max(next(sums), 0.0) if whole else kl_divergence(probs[row], dist[row])
        for row, whole in enumerate(full.tolist())
    ]


def replay_against(trajectory: Trajectory, probe: Scorer) -> list[tuple[int, int]]:
    """Teacher-forced greedy replay of a trajectory through ``probe``.

    For generated tokens t_1..t_n, returns the n-1 pairs
    ``(argmax probe(prompt + t_1..t_i), t_{i+1})`` for i = 1..n-1. A token
    id outside the probe's vocabulary raises
    :class:`VocabularyMismatchError` naming its position in prompt plus
    generated tokens.
    """
    _check_replayable(trajectory)
    return _replay([trajectory], probe)[0]


def _check_replayable(trajectory: Trajectory) -> None:
    n = len(trajectory.generated)
    if n < 2:
        raise InsufficientTrajectoryError(
            f"replay needs at least 2 generated tokens, trajectory has {n}"
        )


# Heads per Scorer._greedy_rows call, so a replay's batches do not grow
# with the number of trajectories.
_REPLAY_BATCH = 1024


def _replay(
    trajectories: Sequence[Trajectory], probe: Scorer, *, numbered: bool = False
) -> list[list[tuple[int, int]]]:
    """:func:`replay_against` of each trajectory, as one batched replay.

    Every teacher-forced prefix is known up front, so the probe is asked
    for the greedy ids of all of them through ``_greedy_rows``, in batches
    of ``_REPLAY_BATCH`` heads that may span trajectories. Each
    trajectory's ids are checked once; an id outside the probe's
    vocabulary raises :class:`VocabularyMismatchError` naming its
    position, prefixed with ``trajectory {index}: `` when ``numbered``.
    """
    size = probe.vocab.size
    predicted: list[int] = []
    actuals: list[tuple[int, ...]] = []
    heads: list[tuple[TokenPrefix, int]] = []
    for index, trajectory in enumerate(trajectories):
        prompt, generated = trajectory.prompt_tokens, trajectory.tokens
        try:
            context = TokenPrefix(size, prompt + generated)
        except VocabularyMismatchError as exc:
            if numbered:
                raise VocabularyMismatchError(f"trajectory {index}: {exc}") from None
            raise
        actuals.append(generated[1:])
        heads.extend((context, n) for n in range(len(prompt) + 1, len(context)))
        while len(heads) >= _REPLAY_BATCH:
            predicted += probe._greedy_rows(heads[:_REPLAY_BATCH])
            del heads[:_REPLAY_BATCH]
    predicted += probe._greedy_rows(heads)
    out, taken = [], 0
    for actual in actuals:
        out.append(list(zip(predicted[taken : taken + len(actual)], actual)))
        taken += len(actual)
    return out
