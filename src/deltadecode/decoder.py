"""Delta-guided decoding loop and teacher-forced replay.

Each step scores the prefix with the base scorer (and, when attached, the
expert pair), combines logits in raw logit space, applies temperature
softmax then nucleus filtering, and picks the next token greedily or by
sampling. Generation stops at the vocabulary's eos token or the step cap.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    _seed_words,
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
    """Immutable record of one decode: prompt, the generated ids with one
    logprob and one kl value (None when not recorded) per id, and the
    settings used."""

    prompt_tokens: tuple[int, ...]
    tokens: tuple[int, ...]
    logprobs: tuple[float, ...]
    kl: tuple[float | None, ...]
    stop_reason: str
    config_snapshot: DecodeConfig
    scorer_labels: tuple[tuple[str, str], ...] = ()

    @property
    def generated(self) -> tuple[StepRecord, ...]:
        """One :class:`StepRecord` per generated id, built on each read."""
        return tuple(map(StepRecord, self.tokens, self.logprobs, self.kl))

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

        Raises TypeError unless the ids are integers (``operator.index``)
        and logprobs and kl real numbers (or None for kl), none a bool, and
        ValueError unless ``stop_reason`` is "eos" or "max_tokens" and given
        logprobs and kl have one finite entry per token. The types are
        checked as one set per kind, not per value.
        """
        if stop_reason not in ("eos", "max_tokens"):
            raise ValueError(f"stop_reason must be 'eos' or 'max_tokens', got {stop_reason!r}")
        prompt_tokens, tokens = tuple(prompt_tokens), tuple(tokens)
        logprobs = (0.0,) * len(tokens) if logprobs is None else tuple(logprobs)
        kl = (None,) * len(tokens) if kl is None else tuple(kl)
        ids = set(map(type, prompt_tokens + tokens)) - {int}
        if ids:
            if bool in ids or not all(hasattr(kind, "__index__") for kind in ids):
                raise TypeError(f"token ids must be ints, got {sorted(k.__name__ for k in ids)}")
            prompt_tokens = tuple(map(operator.index, prompt_tokens))
            tokens = tuple(map(operator.index, tokens))
        reals = set(map(type, chain(logprobs, kl))) - {float, type(None)}
        if reals:
            if bool in reals or not all(issubclass(kind, numbers.Real) for kind in reals):
                names = sorted(kind.__name__ for kind in reals)
                raise TypeError(f"logprobs and kl must be real numbers, got {names}")
            kl = tuple(None if k is None else float(k) for k in kl)
        # A None logprob fails float() here.
        logprobs = tuple(map(float, logprobs))
        if not len(tokens) == len(logprobs) == len(kl):
            raise ValueError(
                f"{len(tokens)} tokens, {len(logprobs)} logprobs and {len(kl)} kl entries"
            )
        # filter(None, kl) skips the None entries (and zeros, which are finite).
        if not all(map(math.isfinite, chain(logprobs, filter(None, kl)))):
            raise ValueError("logprobs and kl must be finite")
        return cls(
            prompt_tokens, tokens, logprobs, kl, stop_reason, config_snapshot, tuple(scorer_labels)
        )

    def to_dict(self) -> dict:
        """Persisted form for campaign lines and CLI output; ``kl`` only if recorded."""
        data = {
            "prompt_tokens": list(self.prompt_tokens),
            "tokens": list(self.tokens),
            "logprobs": list(self.logprobs),
            "stop_reason": self.stop_reason,
        }
        if any(k is not None for k in self.kl):
            data["kl"] = list(self.kl)
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
    scorer: Scorer, role: str, window: np.ndarray, step: int, size: int, finite: bool
) -> np.ndarray:
    """:func:`_checked_score` over a block: the scorer's rows for the
    block's id ``window``, as one (len(window), size) array."""
    try:
        raw = scorer._score_window(window)
    except Exception as exc:
        raise _failed(scorer, role, step, exc) from exc
    block = np.asarray(raw, dtype=np.float64)
    if block.shape != (len(window), size):
        exc = VocabularyMismatchError(
            f"expected {len(window)} rows of {size} logits, got shape {block.shape}"
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
# Sparse time over dense time per step (scoring, combine, weights, the
# nucleus and the zero row's reset), measured on a shared 2-vCPU x86_64 VM
# pinned to one core with three add-1e-6 unigram tables, k ids per role
# (70% of them shared), scale 1, temperature 1 and top_p 0.95, minimum of
# 21 alternating rounds of 200 steps per side. At 16, 12, 9 and 7 ids per
# counted id: V=4096 0.70-0.85, 0.88-0.93, 0.94, 1.00; V=8192 0.72-0.78,
# 0.83-0.88, 0.88, 0.97; V=32768 0.60-0.64, 0.73-0.74, 0.92, 1.17. So
# the two cost the same near one counted id per 7-8 ids, where they did
# near one per 11-13 while the nucleus scanned V on both paths; at 12 ids
# per counted id the gated steps measured 1.07x or better. Below the
# crossover, at k=8, the sparse step took 0.77x the time at V=4096 and
# 0.34x at 32768; at V=1024 and 2048 the two were within 15% of each
# other at any count (measured before the nucleus read the lanes).
_SPARSE_MIN_VOCAB = 4096
_SPARSE_VOCAB_PER_ID = 12


def _sparse_pays(size: int, counted: int) -> bool:
    """Whether a sparse step over rows counting ``counted`` ids in all is
    measured faster than the dense one at vocabulary ``size``."""
    return size >= _SPARSE_MIN_VOCAB and counted * _SPARSE_VOCAB_PER_ID <= size


def _sparse_weights(scorers, rows, step: int, scale: float, temperature: float, out: np.ndarray):
    """:func:`_checked_combine` then :func:`_weights` of three sparse rows,
    written into ``out`` as one fill and one scatter, and the lanes
    :func:`_nucleus` reads its candidates from.

    Every step before the sum is elementwise but the max, so each id
    gets the bits the dense step gives it from one lane per id some role
    counts (the union U) plus one fill lane for the ids none counts. The
    fill lane takes part only when some id is uncounted, as in the dense
    row; then each lane row holds a role's fill exactly when its dense
    row does, so the finite check names the role the dense one names. The
    lanes are None when U is every id.
    """
    # Each row's ids are ascending, and a stable sort merges such runs.
    counted = np.sort(np.concatenate([ids for _, ids, _ in rows]), kind="stable")
    first = np.ones(counted.size, dtype=bool)
    np.not_equal(counted[1:], counted[:-1], out=first[1:])
    union = counted[first]
    n = union.size
    width = n + (n < out.size)
    block = np.empty((3, width))
    for lane, (fill, ids, values) in zip(block, rows):
        lane.fill(fill)
        lane[union.searchsorted(ids)] = values
    weights = _checked_combine(scorers, block, step, scale, np.empty(width))
    _shifted_exp(weights, temperature, weights)
    if width > n:
        out.fill(weights[n])
    out[union] = weights[:n]
    lanes = (union, weights[:n], weights[n]) if width > n else None
    return out, _total(out, temperature), lanes


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
    distribution and the final (post-nucleus) distribution. This is the
    one-row case of :func:`_decode_lockstep`.
    """
    ((_, trajectory),) = _decode_lockstep(
        base,
        expert,
        expert_base,
        prompts=(prompt,),
        config=config,
        seeds=(config.seed,),
        instrument=instrument,
    )
    return trajectory


def _checked_scorers(base, expert, expert_base, instrument) -> bool:
    """Check a decode's scorers and instrument flags; returns whether kl is recorded."""
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
    return "kl" in flags


def _prompt_prefix(size: int, prompt: Sequence[int]) -> TokenPrefix:
    """``prompt`` as a non-empty prefix of a ``size``-id vocabulary.

    A :class:`TokenPrefix` of that size is returned as it is, taken as
    already checked; any other sequence is checked id by id into a new one.
    """
    if not (isinstance(prompt, TokenPrefix) and prompt.size == size):
        try:
            prompt = TokenPrefix(size, prompt)
        except VocabularyMismatchError as exc:
            raise DecodeError(f"prompt {exc}") from None
    if not prompt:
        raise EmptyInputError("prompt must contain at least one token")
    return prompt


def _scorer_labels(base, expert, expert_base) -> tuple[tuple[str, str], ...]:
    """(role, scorer name) pairs, sorted by role."""
    labels = (("base", base.name),)
    if expert is not None:
        labels += (("expert", expert.name), ("expert_base", expert_base.name))
    return labels


def _decode_lockstep(
    base: Scorer,
    expert: Scorer | None = None,
    expert_base: Scorer | None = None,
    *,
    prompts: Sequence[Sequence[int]],
    config: DecodeConfig,
    seeds: Sequence[int],
    instrument: Sequence[str] = (),
):
    """The decode loop: each (prompt, seed) row, with the rows stepped together.

    Row ``i`` decodes ``prompts[i]`` with ``seeds[i]``; a prompt that is
    a :class:`TokenPrefix` of the vocabulary's size is taken as checked,
    and rows that share one prompt object share its check and the tuple
    of its ids their trajectories hold. Yields ``(row, trajectory)`` as
    each row stops. While two or more rows run, each step scores them as
    one block and runs the batched step core over it. The block keeps its
    running rows' ids in one int64 array, each prompt ending at the
    column of the longest one, and every role reads its rows off that
    array through ``Scorer._score_window``; no row keeps a prefix. Once
    one row is left, its prefix is rebuilt once from the array and it
    takes the 1-D step: the sparse step when :func:`_sparse_pays`, else
    the dense rows, and the nucleus's head written into one reused zero
    row. Both steps give a row the same bits, so each trajectory is bit
    for bit the one :func:`decode`, the one-row case, gives that row's
    prompt and seed.
    Each row keeps its own generator and leaves the block at eos. A
    failure raises a :class:`DecodeError` naming the role and step, after
    every row that stopped earlier has been yielded.
    """
    if len(prompts) != len(seeds):
        raise ValueError(f"{len(prompts)} prompts for {len(seeds)} seeds")
    want_kl = _checked_scorers(base, expert, expert_base, instrument)
    size = base.vocab.size
    eos = base.vocab.eos
    # With delta_scale > 0 only the combined rows are checked for finite
    # values; otherwise each row is, and the base rows are decoded as they are.
    guided = expert is not None and config.delta_scale > 0
    finite = not guided
    scorers = (base, expert, expert_base)
    # The kl instrument needs the dense base row.
    sparse_ok = guided and not want_kl and _sparse_pays(size, 0)
    labels = _scorer_labels(base, expert, expert_base)
    # Rows that share one prompt object share its check and its id tuple.
    shared = {}
    for prompt in prompts:
        if id(prompt) not in shared:
            prefix = _prompt_prefix(size, prompt)
            shared[id(prompt)] = prefix, tuple(prefix)
    prompts, prompt_ids = zip(*[shared[id(prompt)] for prompt in prompts])
    # ``decode`` passes its config's own seed, which needs no new snapshot.
    configs = [config if seed is config.seed else config._with_seed(seed) for seed in seeds]
    rngs = _generators(seeds) if config.mode == "sample" else None
    # Each row's generated ids, logprobs and kl values (None unless recorded).
    ids: list[list[int]] = [[] for _ in seeds]
    logps: list[list[float]] = [[] for _ in seeds]
    kl_values: list[list[float | None]] = [[] for _ in seeds]
    # The combine, the temperature divide and exp run in place in this
    # buffer; no scorer row is written. Active rows are its leading rows,
    # so each slice of it stays C-contiguous. The 1-D step writes the
    # nucleus's head into the zero row, and zeroes it again at the kept ids.
    work = np.empty((len(seeds), size))
    zero = np.zeros(size)
    # The lone row's prefix, built once one row is left.
    context = prompts[0].head(len(prompts[0])) if len(seeds) == 1 else None
    if context is None:
        # Row r of ``block_ids`` holds the running row active[r]'s ids; its
        # prompt ends at column ``lead``, its step-s token sits in column
        # lead + s, and a slot before its first id holds -1.
        lengths = np.fromiter(map(len, prompts), np.int64, len(prompts))
        lead = int(lengths.max())
        block_ids = np.full((len(seeds), lead + config.max_tokens), -1, dtype=np.int64)
        block_ids[:, :lead][np.arange(lead) >= lead - lengths[:, None]] = np.fromiter(
            chain.from_iterable(prompts), np.int64
        )

    def finished(row: int, stop_reason: str) -> tuple[int, Trajectory]:
        return row, Trajectory(
            prompt_ids[row],
            tuple(ids[row]),
            tuple(logps[row]),
            tuple(kl_values[row]),
            stop_reason,
            configs[row],
            labels,
        )

    active = list(range(len(seeds)))
    # The config was validated when it was built, and each row is validated
    # once per step here; the step cores below check neither again.
    for step in range(config.max_tokens):
        if len(active) == 1:
            row = active[0]
            if context is None:
                row_ids = block_ids[0, lead - len(prompts[row]) : lead + step]
                context = TokenPrefix._trusted(size, row_ids.tolist())
            out = work[0]
            sparse = _sparse_rows(scorers, context, step) if sparse_ok else None
            lanes = None
            if sparse is not None and _sparse_pays(size, sum(ids.size for _, ids, _ in sparse)):
                weights, total, lanes = _sparse_weights(
                    scorers, sparse, step, config.delta_scale, config.temperature, out
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
                        logits = _checked_combine(scorers, rows, step, config.delta_scale, out)
                weights, total = _weights(logits, config.temperature, out)
            dist, kept = _nucleus(weights, total, config.top_p, zero, lanes)
            if rngs is None:
                token = _greedy(dist, kept)
            else:
                token = _sample(dist, kept, rngs[row])
            kl = None
            if want_kl:
                kl = kl_divergence(_softmax(base_logits, config.temperature), dist)
            ids[row].append(token)
            logps[row].append(float(np.log(dist[token])))
            kl_values[row].append(kl)
            if dist is zero:
                zero[kept] = 0.0
            context.append(token)
            if token == eos:
                yield finished(row, "eos")
                return
            continue
        if not active:
            return
        out = work[: len(active)]
        end = lead + step
        args = (block_ids[:, :end], step, size, finite)
        logits = base_logits = _checked_rows(base, "base", *args)
        if expert is not None:
            rows = (
                base_logits,
                _checked_rows(expert, "expert", *args),
                _checked_rows(expert_base, "expert_base", *args),
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
        block_ids[:, end] = tokens

        still = []
        for row, token, logprob, kl in zip(active, tokens.tolist(), logprobs.tolist(), kls):
            ids[row].append(token)
            logps[row].append(logprob)
            kl_values[row].append(kl)
            if token == eos:
                yield finished(row, "eos")
            else:
                still.append(row)
        if len(still) < len(active):
            block_ids = block_ids[tokens != eos]
        active = still
    for row in active:
        yield finished(row, "max_tokens")


# A block of at least this many rows takes its generators' states from
# one pass of the SeedSequence hash (``core._seed_words``) rather than one
# ``np.random.default_rng`` call per row. Time to build n generators, one
# pass over n calls, on a shared 2-vCPU x86_64 VM pinned to one core
# (best of 5 rounds of 200, two runs): n=1 4.8x, 2 2.8x, 4 1.2-1.5x,
# 6 0.83-1.07x, 8 0.55-0.83x, 16 0.40-0.49x, 64 0.22x, 200 0.16x. The
# pass costs about 45 us plus 0.2 us per row, a generator built on its
# words 1.5 us, a default_rng call 9 us. ``decode``'s one row keeps
# default_rng.
_HASHED_MIN_ROWS = 8
_SEED_LIMIT = 1 << 64


class _SeedState(ISeedSequence):
    """One row of state words from :func:`_generators`, handed to a bit
    generator as its seed sequence. ``PCG64`` asks it for four uint64 words
    and reads them through the array's data pointer, so the row is a
    C-contiguous native uint64 array of four."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed.

    From ``_HASHED_MIN_ROWS`` rows up, when every seed lies in [0, 2**64),
    every PCG64 state comes from one pass of the SeedSequence hash over the
    seeds' two words each (a one-word seed is the same entropy padded with
    zero); otherwise each row calls ``default_rng``, which raises on a
    negative seed.
    """
    if len(seeds) < _HASHED_MIN_ROWS or not all(0 <= seed < _SEED_LIMIT for seed in seeds):
        return [np.random.default_rng(seed) for seed in seeds]
    entropy = np.array(seeds, "<u8").view("<u4").reshape(len(seeds), 2)
    states = _seed_words(entropy, 4, np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedState(words))) for words in states]


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
    n = len(trajectory.tokens)
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
