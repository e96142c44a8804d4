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
import re
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .core import DecodeConfig, InvalidConfigError, check_fields
from .decoder import INSTRUMENT_FLAGS, Trajectory, decode
from .metrics import EvalRecord, extract_answer, pass_at_k_exact, save_records
from .remote import RemoteScorer, connect_endpoint
from .scorers import Scorer, encode_text, load_scorer, load_vocab, render_tokens

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
        if not self.label or not re.fullmatch(r"[A-Za-z0-9_.-]+", self.label):
            raise ManifestError(f"arm label must be a filesystem-safe slug, got {self.label!r}")
        if (self.expert is None) != (self.expert_base is None):
            raise ManifestError(f"arm {self.label!r} must set expert and expert_base together")
        if self.samples_per_problem is not None and self.samples_per_problem < 1:
            raise ManifestError(f"arm {self.label!r}: samples_per_problem must be >= 1")
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
        if not self.run_id:
            raise ManifestError("run_id must be non-empty")
        if self.samples_per_problem < 1:
            raise ManifestError("samples_per_problem must be >= 1")
        if self.answer_style not in ("boxed", "last_number"):
            raise ManifestError(f"unknown answer_style {self.answer_style!r}")
        if not isinstance(self.arms, (list, tuple)):
            raise ManifestError(
                f"manifest field 'arms' must be a list, got {type(self.arms).__name__}"
            )
        arms = tuple(self.arms)
        if not arms:
            raise ManifestError("manifest needs at least one arm")
        labels = [arm.label for arm in arms]
        if len(set(labels)) != len(labels):
            raise ManifestError(f"arm labels must be unique, got {labels}")
        object.__setattr__(self, "arms", arms)

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
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

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
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(data).resolved(path.parent)


def _resolve_path(spec: str | None, base: Path) -> str | None:
    if spec is None or spec.startswith(("tcp:", "stdio:")) or Path(spec).is_absolute():
        return spec
    return str(base / spec)


def ingest_dataset(path, fmt: str = "qa-jsonl") -> list[dict]:
    """Read problems from a JSONL file of prompt/answer pairs.

    Each line needs a prompt field (``prompt``/``question``/``input``/
    ``problem``) and an answer field (``answer``/``ground_truth``); ids
    come from an ``id``/``problem_id`` field or default to the 0-based
    line index. Malformed lines raise :class:`DatasetError` with the line
    number.
    """
    if fmt != "qa-jsonl":
        raise DatasetError(f"unsupported dataset format {fmt!r}")
    problems = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    index = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
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
    """Deterministic per-sample seed from (arm seed, problem id, sample)."""
    entropy = [arm_seed & _SEED_MASK, _stable_hash(problem_id), sample_index]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


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

    def encode_prompt(self, input_text: str) -> list[int]:
        rendered = render_prompt(self.template_text, input_text)
        return encode_text(rendered, self.base.vocab, self.tokenizer)

    def render(self, token_ids) -> str:
        return render_tokens(token_ids, self.base.vocab, self.tokenizer)


def _load_arm_scorer(spec: str, arm: ArmSpec, cache: dict) -> Scorer:
    if spec in cache:
        return cache[spec]
    if spec.startswith(("tcp:", "stdio:")):
        if arm.vocab is None:
            raise ManifestError(
                f"arm {arm.label!r}: remote scorer {spec!r} needs a local vocab file"
            )
        vocab = load_vocab(arm.vocab)
        scorer = RemoteScorer(
            connect_endpoint(spec),
            vocab,
            name=spec,
            tokenizer=arm.tokenizer or "whitespace",
        )
    else:
        scorer = load_scorer(spec)
    cache[spec] = scorer
    return scorer


def _trajectory_line(sample_index: int, trajectory: Trajectory, answer: str | None) -> str:
    payload = {
        **trajectory.to_dict(),
        "sample_index": sample_index,
        "extracted_answer": answer,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _read_existing_lines(path: Path, samples: int, config: DecodeConfig) -> dict[int, str]:
    """Salvage completed samples from a possibly torn JSONL file."""
    existing: dict[int, str] = {}
    if not path.is_file():
        return existing
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            row = json.loads(line)
            Trajectory.from_dict(row, config)
            index = row["sample_index"]
        except (TypeError, KeyError, ValueError):
            continue  # torn or foreign line: regenerate that sample
        if isinstance(index, int) and 0 <= index < samples and "extracted_answer" in row:
            existing[index] = line
    return existing


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


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
    cache: dict[str, Scorer] = {}
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
        try:
            runtime = _ArmRuntime(arm, manifest, cache)
            records = _run_arm(runtime, manifest, problems, arm_dir)
            save_records(records, arm_dir / "records.jsonl")
            arm_summary["trajectories"] = sum(r.n for r in records)
            arm_summary["accuracy"] = pass_at_k_exact(records, 1).value
            arm_summary["stddev_over_samples"] = _stddev_over_samples(records)
        except Exception as exc:
            arm_summary["degraded"] = True
            arm_summary["error"] = f"{type(exc).__name__}: {exc}"
        timings[arm.label] = time.monotonic() - started

    summary = {"run_id": manifest.run_id, "arms": summary_arms}
    _write_atomic(
        out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    _write_atomic(
        out / "run_log.json",
        json.dumps({"wall_clock_seconds": timings}, sort_keys=True, indent=2) + "\n",
    )
    return summary


def _run_arm(
    runtime: _ArmRuntime,
    manifest: RunManifest,
    problems: list[dict],
    arm_dir: Path,
) -> list[EvalRecord]:
    arm = runtime.arm
    samples = runtime.samples
    records = []
    taken: dict[str, str] = {}
    for problem in problems:
        filename = _problem_filename(problem["problem_id"], taken)
        path = arm_dir / "problems" / f"{filename}.jsonl"
        existing = _read_existing_lines(path, samples, arm.config)
        prompt = runtime.encode_prompt(problem["input"])
        lines = []
        try:
            for sample_index in range(samples):
                line = existing.get(sample_index)
                if line is None:
                    seed = derive_seed(arm.config.seed, problem["problem_id"], sample_index)
                    trajectory = decode(
                        runtime.base,
                        runtime.expert,
                        runtime.expert_base,
                        prompt=prompt,
                        config=arm.config.replace(seed=seed),
                        instrument=arm.instrument,
                    )
                    text = runtime.render(trajectory.tokens)
                    answer = extract_answer(text, manifest.answer_style)
                    line = _trajectory_line(sample_index, trajectory, answer)
                lines.append(line)
        except Exception:
            # Keep whatever finished so a later rerun only fills the gaps.
            if lines:
                _write_atomic(path, "".join(line + "\n" for line in lines))
            raise
        content = "".join(line + "\n" for line in lines)
        if not path.is_file() or path.read_text(encoding="utf-8") != content:
            _write_atomic(path, content)
        predictions = tuple(
            json.loads(line).get("extracted_answer") or "" for line in lines
        )
        records.append(
            EvalRecord(
                problem_id=problem["problem_id"],
                ground_truth=problem["ground_truth"],
                predictions=predictions,
            )
        )
    return records


def load_campaign_trajectories(out_dir, arm_label: str) -> list[Trajectory]:
    """Rebuild an arm's trajectories from its campaign files.

    Step diagnostics beyond token/logprob/kl are not persisted, and the
    config snapshot is the arm's manifest config (per-sample seeds are
    re-derivable but not stored on the rebuilt object).
    """
    out = Path(out_dir)
    manifest = RunManifest.load(out / "manifest.json")
    matches = [arm for arm in manifest.arms if arm.label == arm_label]
    if not matches:
        raise ManifestError(f"no arm labeled {arm_label!r} in {out / 'manifest.json'}")
    arm = matches[0]
    problems_dir = out / "arms" / arm_label / "problems"
    if not problems_dir.is_dir():
        raise ManifestError(f"arm {arm_label!r} has no trajectory files under {out}")
    trajectories = []
    for path in sorted(problems_dir.glob("*.jsonl")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            try:
                trajectories.append(
                    Trajectory.from_dict(json.loads(line), arm.config, (("base", arm.base),))
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"{path}: line {lineno}: malformed trajectory: {exc}") from exc
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
        matches = [arm for arm in manifest.arms if arm.label == arm_label]
        if not matches:
            raise ManifestError(f"no arm labeled {arm_label!r} in manifest")
        swept = matches[0]
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
    _write_atomic(
        out / "sweep.json", json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"
    )
    return rows


def _slug(value: float) -> str:
    return str(value).replace(".", "p").replace("-", "m")
