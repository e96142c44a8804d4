"""Experiment harness: manifests, campaigns, sweeps, memory planning.

A campaign decodes every (arm, problem, sample) cell of a manifest into
one JSONL file per (arm, problem), extracts answers, and aggregates
accuracy. Sample seeds are derived from (arm seed, problem id, sample
index), so reruns and resumes regenerate byte-identical artifacts and a
half-finished output directory can simply be run again.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from itertools import product
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import DecodeConfig, InvalidConfigError, _seed_words, check_fields
from .decoder import INSTRUMENT_FLAGS, Trajectory, _decode_lockstep, _prompt_prefix

# Every cell decodes through _decode_lockstep, but perfbench/tracer.py
# wraps ``harness.decode``, so the name stays bound here.
from .decoder import decode  # noqa: F401
from .metrics import EvalRecord, _records_text, extract_answer, pass_at_k_exact
from .remote import RemoteScorer, connect_endpoint
from .scorers import Scorer, encode_text, load_scorer, load_vocab

__all__ = [
    "ArmSpec",
    "DatasetError",
    "ManifestError",
    "MemoryPlan",
    "RunManifest",
    "derive_seed",
    "estimate_memory",
    "ingest_dataset",
    "load_campaign_trajectories",
    "load_template",
    "render_prompt",
    "run_campaign",
    "sweep",
]

_SEED_MASK = (1 << 64) - 1

# An arm's missing cells, across its problems, are decoded in lockstep, as
# (rows x V) blocks stepped together, when at least two are missing, the
# vocabulary has at most this many ids and no scorer is remote; otherwise
# each is a block of one row, which is what ``decode`` runs. Lockstep time
# over per-cell time, measured on a shared 2-vCPU x86_64 VM pinned to one
# core with a trigram base and bigram pair trained on random text (guided,
# kl on, 16 tokens per row; add-0.5 rows are near flat, add-1e-6 rows
# peaked): at V=16, 0.57x for
# one row taking the block step (a block's last row takes ``decode``'s
# 1-D step), 0.94x for two, 1.44x for three and 3.7x for twenty; at twenty
# rows, 2.5-3.0x at V=256, 1.2-1.8x at V=1024, 0.97-1.34x at V=2048 and
# 0.90x at V=4096; at four rows, 1.0-1.4x at V=1024 and 0.87-1.09x at
# V=2048. The block sorts every id of every row, while ``decode`` sorts
# only the nucleus candidates. 512 is half the lowest measured crossover.
_LOCKSTEP_MAX_VOCAB = 512

# A lockstep block holds at most this many rows x (V + max_tokens)
# entries, as a row's step arrays grow with V and its step records with its
# length (31 rows at V=512 and 16 tokens, 682 at V=16 and 8), but never
# fewer rows than a problem has samples. So a block is no larger than this
# bound or one problem's block, and an arm takes no more blocks than it has
# problems with missing cells; its cells split into blocks of as even a
# size as the bound allows. Time per cell against block rows, on the VM of
# the table above (guided, kl on, 16 tokens per row, 256 cells over four
# prompts, median of 16 alternating rounds): at V=256 and V=512, 32, 64 and
# 128 rows are within 10% of each other; 16 rows took up to 1.3x and, at
# V=512, 256 rows 1.1-1.2x the time of 64.
_LOCKSTEP_BLOCK_ENTRIES = 1 << 14


class ManifestError(ValueError):
    """A run manifest is structurally invalid."""


class DatasetError(ValueError):
    """A dataset file has a malformed line."""


@dataclass(frozen=True)
class ArmSpec:
    """One decoding arm: scorers, config, and optional overrides."""

    label: str
    base: str
    expert: str | None = None
    expert_base: str | None = None
    config: DecodeConfig = field(default_factory=DecodeConfig)
    samples_per_problem: int | None = None
    template: str | None = None
    vocab: str | None = None
    tokenizer: str | None = None
    instrument: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.label, str) or not re.fullmatch(r"[A-Za-z0-9_.-]+", self.label):
            raise ManifestError(f"arm label must be a filesystem-safe slug, got {self.label!r}")
        for name in ("base", "expert", "expert_base", "template", "vocab", "tokenizer"):
            value = getattr(self, name)
            if not isinstance(value, str) and (value is not None or name == "base"):
                raise ManifestError(
                    f"arm {self.label!r}: {name} must be a string, got {type(value).__name__}"
                )
        if (self.expert is None) != (self.expert_base is None):
            raise ManifestError(f"arm {self.label!r} must set expert and expert_base together")
        if self.samples_per_problem is not None:
            _check_count(self.samples_per_problem, f"arm {self.label!r}: samples_per_problem")
        if not isinstance(self.instrument, (list, tuple)):
            raise ManifestError(
                f"arm {self.label!r}: instrument must be a list of flags, "
                f"got {type(self.instrument).__name__}"
            )
        for flag in self.instrument:
            if flag not in INSTRUMENT_FLAGS:
                raise ManifestError(
                    f"arm {self.label!r}: unknown instrument flag {flag!r}, "
                    f"expected one of {list(INSTRUMENT_FLAGS)}"
                )
        object.__setattr__(self, "instrument", tuple(self.instrument))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ArmSpec":
        check_fields(cls, data, ManifestError, "arm")
        return cls(**{**data, "config": DecodeConfig.from_dict(data.get("config", {}))})


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a campaign."""

    run_id: str
    dataset: str
    arms: tuple[ArmSpec, ...]
    samples_per_problem: int = 32
    answer_style: str = "boxed"
    created_at: str = ""
    code_version: str = ""

    def __post_init__(self):
        for name in ("run_id", "dataset", "created_at", "code_version"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ManifestError(
                    f"manifest field {name!r} must be a string, got {type(value).__name__}"
                )
        if not self.run_id:
            raise ManifestError("run_id must be non-empty")
        _check_count(self.samples_per_problem, "samples_per_problem")
        if self.answer_style not in ("boxed", "last_number"):
            raise ManifestError(f"unknown answer_style {self.answer_style!r}")
        if not isinstance(self.arms, (list, tuple)):
            raise ManifestError(
                f"manifest field 'arms' must be a list, got {type(self.arms).__name__}"
            )
        arms = tuple(self.arms)
        if not arms:
            raise ManifestError("manifest needs at least one arm")
        for index, arm in enumerate(arms):
            if not isinstance(arm, ArmSpec):
                raise ManifestError(f"manifest arm {index} must be an ArmSpec, got {type(arm).__name__}")
        labels = [arm.label for arm in arms]
        if len(set(labels)) != len(labels):
            raise ManifestError(f"arm labels must be unique, got {labels}")
        object.__setattr__(self, "arms", arms)

    def arm(self, label: str) -> ArmSpec:
        """The arm labeled ``label``; raises :class:`ManifestError` naming it."""
        for arm in self.arms:
            if arm.label == label:
                return arm
        raise ManifestError(f"no arm labeled {label!r} in manifest {self.run_id!r}")

    def samples_for(self, arm: ArmSpec) -> int:
        return arm.samples_per_problem or self.samples_per_problem

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        check_fields(cls, data, ManifestError, "manifest")
        arms = data["arms"]
        if isinstance(arms, (list, tuple)):
            # Anything else reaches __post_init__, which names the field.
            arms = [ArmSpec.from_dict(arm) for arm in arms]
        return cls(**{**data, "arms": arms})

    def save(self, path) -> None:
        _write_json(Path(path), self.to_dict())

    def resolved(self, base=None) -> "RunManifest":
        """Copy with every relative path made absolute against ``base``.

        The campaign runner stores this resolved form in the output
        directory, so a manifest reloaded from there points at the same
        files no matter where the resuming process runs from.
        """
        base = Path(base) if base is not None else Path.cwd()
        arms = tuple(
            replace(
                arm,
                base=_resolve_path(arm.base, base),
                expert=_resolve_path(arm.expert, base),
                expert_base=_resolve_path(arm.expert_base, base),
                vocab=_resolve_path(arm.vocab, base),
            )
            for arm in self.arms
        )
        return replace(self, dataset=_resolve_path(self.dataset, base), arms=arms)

    @classmethod
    def load(cls, path) -> "RunManifest":
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except ValueError as exc:  # not JSON, or an int past the digit limit
            raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(data).resolved(path.parent)


def _check_count(value, what: str) -> None:
    # type() and not isinstance(): True is an int, yet no count.
    if type(value) is not int or value < 1:
        raise ManifestError(f"{what} must be an integer >= 1, got {value!r}")


def _resolve_path(spec: str | None, base: Path) -> str | None:
    if spec is None or spec.startswith(("tcp:", "stdio:")) or Path(spec).is_absolute():
        return spec
    return str(base / spec)


def ingest_dataset(path) -> list[dict]:
    """Read problems from a JSONL file of prompt/answer pairs.

    Each line needs a prompt field (``prompt``/``question``/``input``/
    ``problem``) and an answer field (``answer``/``ground_truth``); ids
    come from an ``id``/``problem_id`` field or default to the 0-based
    line index. Malformed lines raise :class:`DatasetError` with the line
    number.
    """
    problems = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    index = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:  # not JSON, or an int past the digit limit
            raise DatasetError(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise DatasetError(f"{path}: line {lineno}: expected a JSON object")
        prompt = next((row[key] for key in ("prompt", "question", "input", "problem") if key in row), None)
        answer = next((row[key] for key in ("answer", "ground_truth") if key in row), None)
        if prompt is None or answer is None:
            raise DatasetError(
                f"{path}: line {lineno}: needs a prompt field and an answer field"
            )
        problem_id = str(row.get("problem_id", row.get("id", index)))
        problems.append(
            {"problem_id": problem_id, "input": str(prompt), "ground_truth": str(answer)}
        )
        index += 1
    if not problems:
        raise DatasetError(f"{path}: dataset contains no problems")
    ids = [p["problem_id"] for p in problems]
    if len(set(ids)) != len(ids):
        raise DatasetError(f"{path}: problem ids are not unique")
    return problems


def load_template(name_or_path: str) -> str:
    """Load a prompt template by built-in name or file path."""
    builtin = resources.files("deltadecode.data").joinpath(f"templates/{name_or_path}.txt")
    if re.fullmatch(r"[a-z_]+", name_or_path) and builtin.is_file():
        text = builtin.read_text(encoding="utf-8")
    else:
        path = Path(name_or_path)
        if not path.is_file():
            raise ManifestError(f"template {name_or_path!r} is neither built-in nor a file")
        text = path.read_text(encoding="utf-8")
    if "{input}" not in text:
        raise ManifestError(f"template {name_or_path!r} has no {{input}} placeholder")
    return text


def render_prompt(template_text: str | None, input_text: str) -> str:
    """Substitute the problem into a template; None passes it through."""
    if template_text is None:
        return input_text
    return template_text.replace("{input}", input_text)


@dataclass(frozen=True)
class MemoryPlan:
    """Inputs for the deployment memory estimate."""

    n_params: float
    tp: int = 1
    n_instances: int = 1
    bytes_per_param: float = 2.0
    optimizer_bytes_per_param: float = 8.0
    optimizer_instances: int = 1
    activation_gb: tuple[float, float] = (12.0, 25.0)
    buffer_gb: tuple[float, float] = (5.0, 8.0)

    def __post_init__(self):
        if self.n_params <= 0:
            raise InvalidConfigError(f"n_params must be positive, got {self.n_params}")
        if self.tp < 1 or self.n_instances < 1 or self.optimizer_instances < 1:
            raise InvalidConfigError("tp, n_instances and optimizer_instances must be >= 1")
        if self.bytes_per_param <= 0 or self.optimizer_bytes_per_param <= 0:
            raise InvalidConfigError("byte sizes must be positive")
        for name in ("activation_gb", "buffer_gb"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise InvalidConfigError(f"{name} must be a (low, high) band with 0 <= low <= high")


def estimate_memory(plan: MemoryPlan) -> dict:
    """Estimate per-GPU weight memory, CPU optimizer memory, and totals.

    Weights shard across ``tp`` GPUs and replicate per instance:
    ``n_params / tp * bytes_per_param * n_instances / 1e9`` GB per GPU.
    Optimizer state lives on CPU at ``optimizer_bytes_per_param`` bytes per
    parameter. Activation and buffer bands pass through to the GPU total.
    """
    model_gb = plan.n_params / plan.tp * plan.bytes_per_param * plan.n_instances / 1e9
    optimizer_gb = (
        plan.n_params * plan.optimizer_bytes_per_param * plan.optimizer_instances / 1e9
    )
    act_lo, act_hi = plan.activation_gb
    buf_lo, buf_hi = plan.buffer_gb
    return {
        "model_gb_per_gpu": model_gb,
        "optimizer_gb_cpu": optimizer_gb,
        "activation_gb": [act_lo, act_hi],
        "buffer_gb": [buf_lo, buf_hi],
        "total_gpu_gb": [model_gb + act_lo + buf_lo, model_gb + act_hi + buf_hi],
    }


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def derive_seed(arm_seed: int, problem_id: str, sample_index: int) -> int:
    """Deterministic per-sample seed from (arm seed, problem id, sample).

    It is the first uint64 state word of ``np.random.SeedSequence([arm_seed
    mod 2**64, the id's stable hash, sample_index])``, each entry read as
    its little-endian uint32 words. This is the reference: a campaign
    derives its cells' seeds in one pass of the same hash over all of an
    arm's missing cells, and the tests pin the two together.
    """
    entropy = _problem_words(arm_seed, problem_id) + _uint32_words(sample_index)
    return int(np.random.SeedSequence(np.array(entropy, np.uint32)).generate_state(1, np.uint64)[0])


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words ``SeedSequence`` reads the int
    ``value >= 0`` as: one word for 0."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _problem_words(arm_seed: int, problem_id: str) -> list[int]:
    """The entropy words every seed of one (arm seed, problem id) starts with."""
    return _uint32_words(arm_seed & _SEED_MASK) + _uint32_words(_stable_hash(problem_id))


def _cell_seeds(entropy: list[list[int]]) -> list[int]:
    """:func:`derive_seed` of each cell from its entropy words, hashed in
    one pass per word count. Rows of up to four words are one pass, padded
    with zeros; five and six words each take their own."""
    groups: dict[int, list[int]] = {}
    for position, words in enumerate(entropy):
        groups.setdefault(max(len(words), 4), []).append(position)
    seeds = [0] * len(entropy)
    for width, positions in groups.items():
        table = np.array(
            [entropy[i] + [0] * (width - len(entropy[i])) for i in positions], np.uint32
        )
        for position, seed in zip(positions, _seed_words(table, 1, np.uint64)[:, 0].tolist()):
            seeds[position] = seed
    return seeds


def _sanitize(problem_id: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", problem_id)
    # Collisions after sanitizing get disambiguated with a hash suffix.
    return safe or "p"


def _problem_filename(problem_id: str, taken: dict[str, str]) -> str:
    name = _sanitize(problem_id)
    if taken.get(name, problem_id) != problem_id:
        name = f"{name}-{_stable_hash(problem_id) & 0xFFFFFFFF:08x}"
    taken[name] = problem_id
    return name


class _ArmRuntime:
    """Loaded scorers plus prompt plumbing for one arm."""

    def __init__(self, arm: ArmSpec, manifest: RunManifest, cache: dict):
        self.arm = arm
        self.base = _load_arm_scorer(arm.base, arm, cache)
        self.expert = _load_arm_scorer(arm.expert, arm, cache) if arm.expert else None
        self.expert_base = (
            _load_arm_scorer(arm.expert_base, arm, cache) if arm.expert_base else None
        )
        sizes = {self.base.vocab.size}
        if self.expert is not None:
            sizes |= {self.expert.vocab.size, self.expert_base.vocab.size}
        if len(sizes) != 1:
            raise ManifestError(f"arm {arm.label!r}: scorer vocab sizes disagree: {sorted(sizes)}")
        self.template_text = load_template(arm.template) if arm.template else None
        self.tokenizer = arm.tokenizer or self.base.tokenizer
        self.samples = manifest.samples_for(arm)
        vocab = self.base.vocab
        self._surface = vocab.surface
        self._specials = frozenset({vocab.eos, vocab.bos} - {None})
        self._separator = "" if self.tokenizer == "byte" else " "

    def encode_prompt(self, input_text: str) -> list[int]:
        rendered = render_prompt(self.template_text, input_text)
        return encode_text(rendered, self.base.vocab, self.tokenizer)

    def render(self, token_ids) -> str:
        """``scorers.render_tokens`` of ``token_ids``, which must be ints in
        the vocabulary: the decoder's, or a line's checked by its min and max."""
        surface, specials = self._surface, self._specials
        return self._separator.join([surface[t] for t in token_ids if t not in specials])


def _load_arm_scorer(spec: str, arm: ArmSpec, cache: dict) -> Scorer:
    remote = spec.startswith(("tcp:", "stdio:"))
    # A remote scorer is built from the endpoint and the arm's vocab file
    # and tokenizer, so an arm naming the endpoint with another vocab gets
    # its own connection and its own vocabulary-size check.
    key = (spec, arm.vocab, arm.tokenizer) if remote else spec
    if key in cache:
        return cache[key]
    if remote:
        if arm.vocab is None:
            raise ManifestError(
                f"arm {arm.label!r}: remote scorer {spec!r} needs a local vocab file"
            )
        vocab = load_vocab(arm.vocab)
        client = connect_endpoint(spec)
        try:
            scorer = RemoteScorer(client, vocab, name=spec, tokenizer=arm.tokenizer or "whitespace")
        except BaseException:
            client.close()  # a vocabulary mismatch: nothing else holds the client
            raise
    else:
        scorer = load_scorer(spec)
    cache[key] = scorer
    return scorer


def _trajectory_line(sample_index: int, trajectory: Trajectory, answer: str | None) -> str:
    """``json.dumps`` of ``trajectory.to_dict()`` with ``sample_index`` and
    ``extracted_answer`` added, sorted keys and compact separators, written
    field by field: the same bytes, as the tests pin. A trajectory's ids
    are exact ints (``Trajectory.from_tokens`` and the decoder make them
    so), whose ``str`` is the ``int.__repr__`` JSON writes."""
    kl = trajectory.kl
    kl_field = "" if kl.count(None) == len(kl) else f',"kl":{_json_floats(kl)}'
    answer_field = "null" if answer is None else encode_basestring_ascii(answer)
    return (
        f'{{"extracted_answer":{answer_field}{kl_field},'
        f'"logprobs":{_json_floats(trajectory.logprobs)},'
        f'"prompt_tokens":[{",".join(map(str, trajectory.prompt_tokens))}],'
        f'"sample_index":{sample_index},'
        f'"stop_reason":{encode_basestring_ascii(trajectory.stop_reason)},'
        f'"tokens":[{",".join(map(str, trajectory.tokens))}]}}'
    )


def _json_floats(values: tuple) -> str:
    """The JSON array of ``values``: JSON writes a finite float as
    ``float.__repr__``; a None, a NaN or an infinity (whose repr holds an
    "n") takes the encoder itself."""
    try:
        text = ",".join(map(float.__repr__, values))
    except TypeError:
        text = "n"
    if "n" in text:
        return json.dumps(values, separators=(",", ":"))
    return f"[{text}]"


def _campaign_lines(text: str, samples: int, config: DecodeConfig, labels=()):
    """Each line of a campaign problem file's ``text`` as ``(line,
    trajectory, sample index, extracted answer, fault)``.

    The fault is None, or says why the line is not one a campaign of
    ``samples`` samples under ``config`` writes: it does not parse as a
    trajectory with an int sample index and a str-or-null answer (the
    trajectory and the rest are then None), its sample index lies outside
    ``[0, samples)`` or repeats one an earlier line without a fault holds,
    or it has no generated ids or more than ``config.max_tokens``.
    """
    seen = set()
    for line in text.splitlines():
        try:
            row = json.loads(line)
            trajectory = Trajectory.from_dict(row, config, labels)
            index, answer = row["sample_index"], row["extracted_answer"]
            if type(index) is not int or not (answer is None or type(answer) is str):
                raise TypeError(
                    f"want an int sample_index and a str or null answer, got {index!r}, {answer!r}"
                )
        except (KeyError, TypeError, ValueError) as exc:
            yield line, None, None, None, f"malformed trajectory: {exc}"
            continue
        fault = None
        if not 0 <= index < samples or index in seen:
            where = "repeated" if index in seen else f"outside [0, {samples})"
            fault = f"sample_index {index} is {where}"
        elif not 1 <= len(trajectory.tokens) <= config.max_tokens:
            fault = f"{len(trajectory.tokens)} generated ids, outside [1, {config.max_tokens}]"
        else:
            seen.add(index)
        yield line, trajectory, index, answer, fault


def _read_existing_lines(
    path: Path, runtime: _ArmRuntime, prompt: tuple[int, ...], answer_style: str
) -> tuple[str | None, dict[int, str], dict[int, object]]:
    """Salvage completed samples from a possibly torn JSONL file: its text
    (None when there is no file) and, per sample index, the line and its
    extracted answer.

    A line is kept only if :func:`_campaign_lines` finds no fault in it
    and this arm could have written it: its ``prompt_tokens`` are
    ``prompt``, every generated id lies in the vocabulary (checked by
    the min and max), eos is at most the last id and is the last exactly
    when ``stop_reason`` is "eos", a "max_tokens" line has
    ``max_tokens`` ids, and ``extracted_answer`` is the answer of the
    rendered ids. Any other line's sample is decoded again.
    """
    lines: dict[int, str] = {}
    answers: dict[int, object] = {}
    if not path.is_file():
        return None, lines, answers
    text = path.read_text(encoding="utf-8")
    config, vocab = runtime.arm.config, runtime.base.vocab
    for line, trajectory, index, answer, fault in _campaign_lines(text, runtime.samples, config):
        if fault is not None or trajectory.prompt_tokens != prompt:
            continue
        tokens = trajectory.tokens
        stopped = tokens[-1] == vocab.eos
        if (
            0 <= min(tokens)
            and max(tokens) < vocab.size
            and vocab.eos not in tokens[:-1]
            and stopped == (trajectory.stop_reason == "eos")
            and (stopped or len(tokens) == config.max_tokens)
            and answer == extract_answer(runtime.render(tokens), answer_style)
        ):
            lines[index] = line
            answers[index] = answer
    return text, lines, answers


@dataclass
class _ProblemFile:
    """One problem's JSONL file in an arm: each finished sample's extracted
    answer, how many samples are still missing and, until the file is
    complete and written, each finished sample's line."""

    path: Path
    lines: dict[int, str]
    answers: dict[int, object]
    missing: int

    def write(self, text: str | None = None) -> None:
        """Write the finished lines in sample order, unless ``text`` (the
        file as read) holds them already; a complete file drops its lines."""
        content = "".join(self.lines[i] + "\n" for i in sorted(self.lines))
        if content != text:
            _write_atomic(self.path, content)
        if not self.missing:
            self.lines = {}


def _write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` + ".tmp", then rename it over
    ``path``, so a reader sees the old file or the new one, whole. A failed
    write removes the temporary file."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    data = memoryview(text.encode("utf-8"))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: Path, data) -> None:
    """``data`` as sorted, indented JSON, written through :func:`_write_atomic`."""
    _write_atomic(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def run_campaign(manifest: RunManifest, out_dir) -> dict:
    """Decode every (arm, problem, sample) cell and aggregate accuracy.

    Already-present samples in ``out_dir`` are kept verbatim and only the
    missing ones are decoded, so interrupting and rerunning converges on
    the same bytes as one uninterrupted run. A scorer failure marks just
    its arm as degraded; completed work stays on disk.
    """
    manifest = manifest.resolved()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problems = ingest_dataset(manifest.dataset)
    manifest.save(out / "manifest.json")

    summary_arms: dict[str, dict] = {}
    timings: dict[str, float] = {}
    # Per arm, how many cells were decoded (and of those, in lockstep), how
    # many were reused from lines already on disk, how many tokens the
    # decoded cells generated, its remote clients' traffic while it decoded,
    # and why the arm degraded (None if it did not).
    cells = {
        key: {}
        for key in (
            "cells_decoded", "cells_lockstep", "cells_reused", "tokens", *_REMOTE_COUNTERS, "degraded"
        )
    }
    cache: dict[str, Scorer] = {}
    try:
        for arm in manifest.arms:
            started = time.monotonic()
            arm_dir = out / "arms" / arm.label
            (arm_dir / "problems").mkdir(parents=True, exist_ok=True)
            arm_summary = {
                "problems": len(problems),
                "samples_per_problem": manifest.samples_for(arm),
                "trajectories": 0,
                "accuracy": None,
                "stddev_over_samples": None,
                "degraded": False,
            }
            summary_arms[arm.label] = arm_summary
            counts = {key: 0 for key in cells}
            counts["degraded"] = None
            try:
                runtime = _ArmRuntime(arm, manifest, cache)
                records = _run_arm(runtime, manifest, problems, arm_dir, counts)
                _write_atomic(arm_dir / "records.jsonl", _records_text(records))
                arm_summary["trajectories"] = sum(r.n for r in records)
                arm_summary["accuracy"] = pass_at_k_exact(records, 1).value
                arm_summary["stddev_over_samples"] = _stddev_over_samples(records)
            except Exception as exc:
                arm_summary["degraded"] = True
                arm_summary["error"] = counts["degraded"] = f"{type(exc).__name__}: {exc}"
            timings[arm.label] = time.monotonic() - started
            for key, count in counts.items():
                cells[key][arm.label] = count
    finally:
        # Every remote scorer this run connected, degraded arms' too, so no
        # socket or child process outlives the campaign.
        for scorer in cache.values():
            if isinstance(scorer, RemoteScorer):
                scorer.client.close()

    summary = {"run_id": manifest.run_id, "arms": summary_arms}
    _write_json(out / "summary.json", summary)
    _write_json(out / "run_log.json", {"wall_clock_seconds": timings, **cells})
    return summary


# run_log.json's remote counters, each a ScorerClient property.
_REMOTE_COUNTERS = {
    "remote_requests": "requests",
    "remote_bytes_sent": "bytes_sent",
    "remote_bytes_received": "bytes_received",
    "late_frames": "late_frames",
}


def _remote_traffic(clients) -> dict[str, int]:
    """Each remote counter summed over ``clients``."""
    return {key: sum(getattr(c, name) for c in clients) for key, name in _REMOTE_COUNTERS.items()}


def _run_arm(
    runtime: _ArmRuntime,
    manifest: RunManifest,
    problems: list[dict],
    arm_dir: Path,
    counts: dict,
) -> list[EvalRecord]:
    """Decode an arm's missing cells, counting them into ``counts``, and
    return one record per problem.

    Every problem's prompt is encoded and its lines read first. Then the
    missing cells of every problem are decoded together, and each
    problem's file is written as soon as its last missing cell finishes;
    if decoding fails, every finished line is written before the error
    propagates. A problem whose prompt cannot be encoded fails the arm
    once the problems before it are decoded and written.
    """
    arm = runtime.arm
    samples = runtime.samples
    size = runtime.base.vocab.size
    files: list[_ProblemFile] = []
    # Per missing cell: its file and sample index, its prompt and its seed's
    # entropy words.
    cells: list[tuple[_ProblemFile, int]] = []
    prompts, entropy = [], []
    taken: dict[str, str] = {}
    failure = None
    for problem in problems:
        filename = _problem_filename(problem["problem_id"], taken)
        path = arm_dir / "problems" / f"{filename}.jsonl"
        try:
            prompt = _prompt_prefix(size, runtime.encode_prompt(problem["input"]))
        except Exception as exc:
            failure = exc
            break
        text, lines, answers = _read_existing_lines(
            path, runtime, tuple(prompt), manifest.answer_style
        )
        missing = [i for i in range(samples) if i not in lines]
        counts["cells_reused"] += len(lines)
        file = _ProblemFile(path, lines, answers, len(missing))
        files.append(file)
        if not missing:
            file.write(text)
        words = _problem_words(arm.config.seed, problem["problem_id"])
        for index in missing:
            cells.append((file, index))
            prompts.append(prompt)
            entropy.append(words + _uint32_words(index))
    # Lockstep rows would take turns on a remote scorer's one session, so
    # each request would re-send its row's whole generated suffix: an arm
    # with a remote role, like one of more than _LOCKSTEP_MAX_VOCAB ids,
    # decodes blocks of one row.
    rows = 1
    scorers = (runtime.base, runtime.expert, runtime.expert_base)
    if size <= _LOCKSTEP_MAX_VOCAB and not any(isinstance(s, RemoteScorer) for s in scorers):
        rows = max(_LOCKSTEP_BLOCK_ENTRIES // (size + arm.config.max_tokens), samples)
    lockstep = rows > 1 and len(cells) > 1
    # An arm may share a client with an earlier arm: it counts its own traffic.
    clients = {s.client for s in scorers if isinstance(s, RemoteScorer)}
    before = _remote_traffic(clients)
    try:
        for position, trajectory in _decoded_cells(runtime, prompts, _cell_seeds(entropy), rows):
            file, index = cells[position]
            answer = extract_answer(runtime.render(trajectory.tokens), manifest.answer_style)
            file.lines[index] = _trajectory_line(index, trajectory, answer)
            file.answers[index] = answer
            file.missing -= 1
            if not file.missing:
                file.write()
            counts["cells_decoded"] += 1
            counts["cells_lockstep"] += lockstep
            counts["tokens"] += len(trajectory.tokens)
    except Exception:
        # Keep whatever finished so a later rerun only fills the gaps.
        for file in files:
            if file.missing and file.lines:
                file.write()
        raise
    finally:
        for key, total in _remote_traffic(clients).items():
            counts[key] += total - before[key]
    if failure is not None:
        raise failure
    return [
        EvalRecord(
            problem_id=problem["problem_id"],
            ground_truth=problem["ground_truth"],
            predictions=tuple(file.answers[i] or "" for i in range(samples)),
        )
        for problem, file in zip(problems, files)
    ]


def _decoded_cells(runtime: _ArmRuntime, prompts: list, seeds: list[int], rows: int):
    """``(position, trajectory)`` for each (prompt, seed) cell, as each
    finishes, from ``_decode_lockstep`` over consecutive blocks of the
    cells, each of at most ``rows`` rows and all of about one size."""
    if not seeds:
        return
    blocks = -(-len(seeds) // rows)
    width = -(-len(seeds) // blocks)
    for start in range(0, len(seeds), width):
        stop = start + width
        block = _decode_lockstep(
            runtime.base,
            runtime.expert,
            runtime.expert_base,
            prompts=prompts[start:stop],
            config=runtime.arm.config,
            seeds=seeds[start:stop],
            instrument=runtime.arm.instrument,
        )
        for row, trajectory in block:
            yield start + row, trajectory


def load_campaign_trajectories(out_dir, arm_label: str) -> list[Trajectory]:
    """Rebuild an arm's trajectories from its campaign files.

    Step diagnostics beyond token/logprob/kl are not persisted, and the
    config snapshot is the arm's manifest config (per-sample seeds are
    re-derivable but not stored on the rebuilt object). A line with a
    fault (see :func:`_campaign_lines`) raises :class:`ManifestError`
    naming the file, the line and the fault.
    """
    out = Path(out_dir)
    manifest = RunManifest.load(out / "manifest.json")
    arm = manifest.arm(arm_label)
    problems_dir = out / "arms" / arm_label / "problems"
    if not problems_dir.is_dir():
        raise ManifestError(f"arm {arm_label!r} has no trajectory files under {out}")
    samples = manifest.samples_for(arm)
    labels = (("base", arm.base),)
    trajectories = []
    for path in sorted(problems_dir.glob("*.jsonl")):
        lines = _campaign_lines(path.read_text(encoding="utf-8"), samples, arm.config, labels)
        for lineno, (_, trajectory, _, _, fault) in enumerate(lines, start=1):
            if fault is not None:
                raise ManifestError(f"{path}: line {lineno}: {fault}")
            trajectories.append(trajectory)
    return trajectories


def _stddev_over_samples(records: Sequence[EvalRecord]) -> float | None:
    """Population stddev of per-sample-index accuracies across problems."""
    if not records:
        return None
    widths = {record.n for record in records}
    if len(widths) != 1:
        return None
    matrix = np.array([record.correct for record in records], dtype=np.float64)
    per_sample = matrix.mean(axis=0)
    return float(per_sample.std(ddof=0))


def sweep(
    manifest: RunManifest,
    delta_scales: Sequence[float],
    temperatures: Sequence[float],
    out_dir,
    arm_label: str | None = None,
) -> list[dict]:
    """Run one single-arm campaign per (delta_scale, temperature) cell.

    The swept arm defaults to the first arm with an expert pair. Each cell
    reports mean accuracy and the stddev over sample indexes; a failing
    cell contributes an error row without stopping the others.
    """
    if arm_label is None:
        candidates = [arm for arm in manifest.arms if arm.expert is not None]
        if not candidates:
            raise ManifestError("sweep needs an arm with an expert pair")
        swept = candidates[0]
    else:
        swept = manifest.arm(arm_label)
    if not delta_scales or not temperatures:
        raise ManifestError("sweep needs at least one delta_scale and one temperature")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for scale, temperature in product(delta_scales, temperatures):
        cell_name = f"scale_{_slug(scale)}_temp_{_slug(temperature)}"
        row = {"delta_scale": scale, "temperature": temperature, "cell": cell_name}
        try:
            cell_arm = replace(
                swept, config=swept.config.replace(delta_scale=scale, temperature=temperature)
            )
            cell_manifest = replace(
                manifest, run_id=f"{manifest.run_id}-{cell_name}", arms=(cell_arm,)
            )
            summary = run_campaign(cell_manifest, out / cell_name)
            arm_summary = summary["arms"][swept.label]
            if arm_summary["degraded"]:
                row["error"] = arm_summary.get("error", "arm degraded")
            else:
                row["accuracy_mean"] = arm_summary["accuracy"]
                row["accuracy_stddev"] = arm_summary["stddev_over_samples"]
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    _write_json(out / "sweep.json", {"rows": rows})
    return rows


def _slug(value: float) -> str:
    return str(value).replace(".", "p").replace("-", "m")
