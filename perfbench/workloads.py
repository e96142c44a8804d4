"""The benchmark's four workloads.

Every workload is closed-loop: one caller, each ``decode`` call waits for
the previous one, at most one extra process (the remote scorer) and one
connection. A run first sets the workload up a few times (``setup``),
then measures (``measure``), or, in a traced run, measures an untraced
stretch and one traced pass of the same work (``measure_traced``).
Outputs are checked as they are produced; ``output_digest`` hashes the
first pass so that runs of the same seed can be compared across commits.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from deltadecode import analysis, decoder, harness
from deltadecode.core import DecodeConfig
from deltadecode.harness import ArmSpec, RunManifest, derive_seed
from deltadecode.remote import RemoteScorer, ScorerClient
from deltadecode.scorers import encode_text, load_scorer, load_vocab

from clock import Clock
from tracer import ROLES, Tracer, counting_connections

ROOT = Path(__file__).resolve().parent.parent

# Share of a run's seconds given to the decode phase; replay gets the rest.
DECODE_SHARE = 0.75


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Operations:
    """Attempted and failed operations per phase, plus output checks."""

    def __init__(self):
        self.phases: dict[str, list[int]] = {}

    def record(self, phase: str, ok: bool = True, count: int = 1) -> None:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += count
        if not ok:
            counts[1] += count

    def fail(self, phase: str, exc: BaseException) -> None:
        self.record(phase, ok=False)
        print(f"FAILED {phase}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.record("checks", bool(ok))
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


def _same_steps(a, b) -> bool:
    """Bitwise equality of tokens, logprobs and recorded KL values."""
    return a.tokens == b.tokens and all(
        np.float64(x.chosen_logprob).tobytes() == np.float64(y.chosen_logprob).tobytes()
        and x.kl_base_vs_combined == y.kl_base_vs_combined
        for x, y in zip(a.generated, b.generated)
    )


def _hash_trajectories(trajectories):
    h = hashlib.sha256()
    for t in trajectories:
        h.update(np.asarray(t.tokens, dtype=np.int64).tobytes())
        h.update(np.asarray([s.chosen_logprob for s in t.generated], dtype=np.float64).tobytes())
    return h


def _trajectory_properties(trajectories, vocab_size: int) -> dict:
    lengths = [len(t.generated) for t in trajectories]
    # Each step scores the prompt plus the tokens generated before it.
    prefix = [len(t.prompt_tokens) + j for t in trajectories for j in range(len(t.generated))]
    return {
        "vocab_size": vocab_size,
        "tokens_per_trajectory": float(np.mean(lengths)),
        "prefix_len_mean": float(np.mean(prefix)),
        "eos_stop_rate": sum(t.stop_reason == "eos" for t in trajectories) / len(trajectories),
    }


def package_env() -> dict[str, str]:
    """Environment for a child process that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class StubProcess:
    """``deltadecode serve-stub`` in a subprocess, on a loopback port."""

    def __init__(self, model: Path, stderr_path: Path):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "deltadecode.cli", "serve-stub", "--model", str(model), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=package_env(),
            cwd=ROOT,
        )
        self.peak_rss_mb = 0.0
        try:
            # Share the caller's vCPU, whose speed the reference snippets time.
            os.sched_setaffinity(self.proc.pid, os.sched_getaffinity(0))
            with selectors.DefaultSelector() as selector:
                selector.register(self.proc.stdout, selectors.EVENT_READ)
                if not selector.select(timeout=60):
                    raise RuntimeError("serve-stub did not announce its port within 60 s")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"serve-stub exited: {self.stderr_text()}")
            info = json.loads(line)
            self.host, self.port = info["host"], info["port"]
        except BaseException:
            self.stop()
            raise

    def stderr_text(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace").strip()

    def stop(self) -> None:
        """Terminate and reap the server, keeping its peak RSS and stderr."""
        if self.proc.returncode is None:
            # os.kill and os.wait4 rather than Popen's methods, which would
            # reap an exited server before its resource usage is read.
            os.kill(self.proc.pid, signal.SIGTERM)
            deadline = time.monotonic() + 10
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    os.kill(self.proc.pid, signal.SIGKILL)
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024
        self.proc.stdout.close()
        self._stderr.close()
        if self.proc.returncode not in (0, -signal.SIGTERM):
            print(f"serve-stub exited with {self.proc.returncode}: {self.stderr_text()}", file=sys.stderr)


class DecodeWorkload:
    """Guided ``decode`` of seeded sequences, then ``pcr`` replay of the calls.

    Each sequence is a chain of ``decode`` calls, each continuing the
    prefix the previous one left. One unit is one call; the calls are
    cycled, and every repeat must reproduce the call's first trajectory
    bit for bit.
    """

    remote = False
    setup_reps = 5
    reference = "python"

    def __init__(self, inputs: Path, work: Path, ops: Operations, trace: bool):
        self.inputs, self.work, self.ops, self.trace = inputs, work, ops, trace
        spec = json.loads((inputs / "spec.json").read_text())
        self.prompts = spec["prompts"]
        self.seeds = spec["decode_seeds"]
        self.config = DecodeConfig(**spec["config"])
        self.first: dict[tuple[int, int], object] = {}
        self.pcr_values: dict[tuple[int, int], float] = {}
        self.server: StubProcess | None = None
        self.client = None
        self.sockets: list = []
        self.server_peak_rss_mb = 0.0
        self.server_starts = 0

    def setup(self) -> float:
        """Load the scorers (and start the server); returns its seconds."""
        self.close()
        with Clock(self.reference) as clock:
            self.expert = load_scorer(self.inputs / "expert.json")
            self.expert_base = load_scorer(self.inputs / "expert_base.json")
            if self.remote:
                self.server_starts += 1
                self.server = StubProcess(self.inputs / "base.json", self.work / f"serve-stub-{self.server_starts}.stderr")
                if self.trace:
                    with counting_connections(self.sockets):
                        self.client = ScorerClient.connect_tcp(self.server.host, self.server.port)
                else:
                    self.client = ScorerClient.connect_tcp(self.server.host, self.server.port)
                self.base = RemoteScorer(self.client, load_vocab(self.inputs / "vocab.txt"), name="remote-base")
            else:
                self.base = load_scorer(self.inputs / "base.json")
        return clock.seconds

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server_peak_rss_mb = self.server.peak_rss_mb
            self.server = None

    @property
    def calls(self) -> list[tuple[int, int]]:
        """(prompt, call) pairs in generation order: one pass of the workload."""
        return [(p, c) for p in range(len(self.prompts)) for c in range(len(self.seeds[p]))]

    def _prefix(self, p: int, c: int) -> list[int]:
        prefix = list(self.prompts[p])
        for k in range(c):
            prefix += self.first[(p, k)].tokens
        return prefix

    def _decode_call(self, base, p: int, c: int):
        return decoder.decode(
            base,
            self.expert,
            self.expert_base,
            prompt=self._prefix(p, c),
            config=self.config.replace(seed=self.seeds[p][c]),
        )

    def _decode(self, key):
        try:
            with Clock(self.reference) as clock:
                trajectory = self._decode_call(self.base, *key)
        except Exception as exc:
            self.ops.fail("decode", exc)
            if self.remote:
                self.ops.record("remote_requests", ok=False)
            return None
        self.ops.record("decode")
        if self.remote:
            self.ops.record("remote_requests", count=len(trajectory.generated))
        if key in self.first:
            self.ops.check(f"call {key} repeats its first trajectory", _same_steps(trajectory, self.first[key]))
        else:
            self.first[key] = trajectory
        return clock, len(trajectory.generated)

    def _replay(self, key):
        trajectory = self.first[key]
        try:
            with Clock(self.reference) as clock:
                report = analysis.pcr([trajectory], self.expert)
        except Exception as exc:
            self.ops.fail("replay", exc)
            return None
        self.ops.record("replay")
        if key in self.pcr_values:
            self.ops.check(f"replay of call {key} repeats", report.mean == self.pcr_values[key])
        else:
            self.pcr_values[key] = report.mean
        return clock, len(trajectory.generated) - 1

    def _run(self, decode_seconds: float | None, replay_seconds: float | None):
        """Decode, then replay, in whole passes over every call until each
        phase's seconds are spent; exactly one pass each when None."""
        phases = []
        for step, seconds in ((self._decode, decode_seconds), (self._replay, replay_seconds)):
            results = []
            start = time.perf_counter()
            while not results or (seconds and time.perf_counter() - start < seconds):
                for key in self.calls:
                    result = step(key)
                    if result is None:
                        return phases + [results]
                    results.append(result)
            phases.append(results)
        return phases

    @staticmethod
    def _rates(decodes, replays=()) -> dict:
        # Calls differ in prefix length, so rates are totals over whole passes.
        def rate(results, time_of):
            return sum(n for _, n in results) / sum(time_of(c) for c, _ in results) if results else 0.0

        return {
            "tokens_per_s": rate(decodes, lambda c: c.seconds),
            "traj_ms_p50": median([c.seconds * 1e3 for c, _ in decodes]),
            "cells_per_s": len(decodes) / sum(c.seconds for c, _ in decodes) if decodes else 0.0,
            "replay_tokens_per_s": rate(replays, lambda c: c.seconds),
            "raw_tokens_per_s": rate(decodes, lambda c: c.raw),
            "wall_s": sum(c.seconds for c, _ in decodes) + sum(c.seconds for c, _ in replays),
        }

    def measure(self, seconds: float) -> dict:
        return self._rates(*self._run(seconds * DECODE_SHARE, seconds * (1 - DECODE_SHARE)))

    def measure_traced(self, seconds: float, tracer: Tracer) -> dict:
        """One untraced and one traced pass over every call.

        A single pass of fixed work keeps the traced counts independent of
        speed; the untraced pass is the base of ``trace.overhead_frac``.
        """
        untraced = self._rates(*self._run(None, None))["wall_s"]
        sent = sum(s.sent for s in self.sockets)
        received = sum(s.received for s in self.sockets)
        scorers = [(role, getattr(self, role)) for role in ROLES]
        with tracer.instrument(scorers=scorers, client=self.client):
            traced = self._rates(*self._run(None, None))["wall_s"]
        layers = tracer.layer_metrics()
        tokens = tracer.counters["decode.tokens"]
        layers["remote.bytes_sent_per_token"] = (sum(s.sent for s in self.sockets) - sent) / tokens
        layers["remote.bytes_recv_per_token"] = (sum(s.received for s in self.sockets) - received) / tokens
        layers["trace.overhead_frac"] = traced / untraced - 1
        return layers

    def verify(self) -> None:
        """Remote tokens must equal an in-process decode of the same prefix."""
        if not self.remote:
            return
        local = load_scorer(self.inputs / "base.json")
        elapsed = tokens = 0
        for key in self.calls:
            with Clock(self.reference) as clock:
                trajectory = self._decode_call(local, *key)
            elapsed += clock.seconds
            tokens += len(trajectory.generated)
            self.ops.check(f"call {key}: remote equals in-process", _same_steps(trajectory, self.first[key]))
        self.in_process_tokens_per_s = tokens / elapsed

    def properties(self) -> dict:
        properties = _trajectory_properties([self.first[key] for key in self.calls], self.expert.vocab.size)
        properties["tokens_per_sequence"] = properties["tokens_per_trajectory"] * len(self.seeds[0])
        if self.remote:
            # The same calls decoded in-process, once, for the remote/local ratio.
            properties["in_process_tokens_per_s"] = self.in_process_tokens_per_s
        return properties

    def output_digest(self) -> str:
        h = _hash_trajectories(self.first[key] for key in self.calls)
        h.update(json.dumps([self.pcr_values[key] for key in self.calls]).encode())
        return h.hexdigest()


class WideDecodeWorkload(DecodeWorkload):
    setup_reps = 3  # loading three V=32768 scorers takes over a second
    reference = "numpy"


class RemoteDecodeWorkload(DecodeWorkload):
    remote = True


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run_log.json"
    }


class CampaignWorkload:
    """``run_campaign`` on the transfer fixture: fresh, resume, replay, direct.

    One unit is one cycle: a fresh campaign into an empty directory, a
    resume after the seeded half of the sample lines is removed, ``pcr``
    replay of the guided arm with the expert as probe, and a direct
    ``decode`` of every guided cell, timed per call.
    """

    setup_reps = 5
    SETUP_REPEATS = 20
    server_peak_rss_mb = 0.0
    reference = "python"

    def __init__(self, inputs: Path, work: Path, ops: Operations, trace: bool):
        self.inputs, self.work, self.ops = inputs, work, ops
        self.spec = json.loads((inputs / "spec.json").read_text())
        config = DecodeConfig(seed=self.spec["arm_seed"], mode="sample", **self.spec["config"])

        def arm(label, scale, instrument=()):
            return ArmSpec(
                label=label,
                base=str(inputs / "base.json"),
                expert=str(inputs / "expert.json"),
                expert_base=str(inputs / "expert_base.json"),
                config=config.replace(delta_scale=scale),
                instrument=instrument,
            )

        self.plain = arm("plain", 0.0)
        self.guided = arm("guided", 1.0, ("kl",))
        self.manifest = RunManifest(
            run_id="bench-transfer",
            dataset=str(inputs / "problems.jsonl"),
            arms=(self.plain, self.guided),
            samples_per_problem=self.spec["samples_per_problem"],
            answer_style="last_number",
        )
        self.out = work / "campaign"
        self.artifacts: dict[str, bytes] | None = None
        self.pcr_values = None
        self.trajectories: list = []

    @property
    def cells(self) -> int:
        return len(self.problems) * len(self.manifest.arms) * self.manifest.samples_per_problem

    def setup(self) -> float:
        """Load the scorers and the dataset; returns the seconds of one load.

        One load takes about a millisecond, too short to time on its own
        against this machine's jitter, so the mean of ``SETUP_REPEATS``
        back-to-back loads is returned.
        """
        with Clock(self.reference) as clock:
            for _ in range(self.SETUP_REPEATS):
                self.base = load_scorer(self.inputs / "base.json")
                self.expert = load_scorer(self.inputs / "expert.json")
                self.expert_base = load_scorer(self.inputs / "expert_base.json")
                self.problems = harness.ingest_dataset(self.manifest.dataset)
        self.probe = load_scorer(self.inputs / "expert.json")
        return clock.seconds / self.SETUP_REPEATS

    def close(self) -> None:
        pass

    def _lines(self, arm: str) -> dict[tuple[str, int], dict]:
        rows = {}
        for problem in self.problems:
            path = self.out / "arms" / arm / "problems" / f"{problem['problem_id']}.jsonl"
            for line in path.read_text().splitlines():
                row = json.loads(line)
                rows[(problem["problem_id"], row["sample_index"])] = row
        return rows

    def _campaign(self, phase: str) -> float | None:
        try:
            with Clock(self.reference) as clock:
                summary = harness.run_campaign(self.manifest, self.out)
        except Exception as exc:
            self.ops.fail(phase, exc)
            return None
        for label, arm in summary["arms"].items():
            self.ops.record("arms", not arm["degraded"])
            if arm["degraded"]:
                print(f"arm {label} degraded: {arm.get('error')}", file=sys.stderr)
        self.ops.record(phase)
        self.summary = summary
        return clock

    def _drop_half(self) -> int:
        dropped = 0
        for arm, problems in self.spec["resume_dropped"].items():
            for pid, indexes in problems.items():
                path = self.out / "arms" / arm / "problems" / f"{pid}.jsonl"
                lines = path.read_text().splitlines(keepends=True)
                kept = [line for line in lines if json.loads(line)["sample_index"] not in indexes]
                path.write_text("".join(kept))
                dropped += len(lines) - len(kept)
        return dropped

    def _first_cycle_checks(self) -> None:
        self.artifacts = _tree(self.out)
        arms = self.summary["arms"]
        self.ops.check(
            "guided accuracy above plain",
            arms["guided"]["accuracy"] > arms["plain"]["accuracy"],
            f"guided {arms['guided']['accuracy']} vs plain {arms['plain']['accuracy']}",
        )
        plain = self._lines("plain")
        inputs = {p["problem_id"]: p["input"] for p in self.problems}
        for pid, sample in self.spec["plain_checked"]:
            trajectory = decoder.decode(
                self.base,
                prompt=encode_text(inputs[pid], self.base.vocab),
                config=self.plain.config.replace(seed=derive_seed(self.plain.config.seed, pid, sample)),
            )
            row = plain[(pid, sample)]
            self.ops.check(
                f"plain {pid}/{sample} equals base-only decode",
                list(trajectory.tokens) == row["tokens"]
                and [s.chosen_logprob for s in trajectory.generated] == row["logprobs"],
            )

    def _cycle(self) -> dict | None:
        shutil.rmtree(self.out, ignore_errors=True)
        fresh = self._campaign("campaign_fresh")
        if fresh is None:
            return None
        guided_rows = self._lines("guided")
        tokens = sum(len(r["tokens"]) for arm in ("plain", "guided") for r in self._lines(arm).values())
        if self.artifacts is None:
            self._first_cycle_checks()
        else:
            self.ops.check("fresh campaign repeats its first artifacts", _tree(self.out) == self.artifacts)
        self.ops.record("cells", count=self.cells)

        self._drop_half()
        resume = self._campaign("campaign_resume")
        if resume is None:
            return None
        self.ops.check("resumed artifacts byte-identical to fresh", _tree(self.out) == self.artifacts)

        trajectories = [t for t in harness.load_campaign_trajectories(self.out, "guided") if len(t.generated) >= 2]
        try:
            with Clock(self.reference) as clock:
                report = analysis.pcr(trajectories, self.probe)
            self.ops.record("replay")
        except Exception as exc:
            self.ops.fail("replay", exc)
            return None
        replay = clock.seconds
        if self.pcr_values is None:
            self.pcr_values = report.per_trajectory
        else:
            self.ops.check("replay repeats", report.per_trajectory == self.pcr_values)

        inputs = {p["problem_id"]: encode_text(p["input"], self.base.vocab) for p in self.problems}
        direct, decoded = [], []
        # Calls last under a millisecond, so the whole phase is one clock
        # stretch and each call's raw time is scaled by its factor.
        with Clock(self.reference) as clock:
            for (pid, sample), row in sorted(guided_rows.items()):
                config = self.guided.config.replace(seed=derive_seed(self.guided.config.seed, pid, sample))
                start = time.perf_counter()
                try:
                    trajectory = decoder.decode(
                        self.base, self.expert, self.expert_base, prompt=inputs[pid], config=config, instrument=("kl",)
                    )
                except Exception as exc:
                    self.ops.fail("decode", exc)
                    continue
                direct.append(time.perf_counter() - start)
                decoded.append((pid, sample, row, trajectory))
        for pid, sample, row, trajectory in decoded:
            self.ops.record("decode")
            self.ops.check(
                f"direct guided {pid}/{sample} equals campaign line",
                list(trajectory.tokens) == row["tokens"]
                and [s.chosen_logprob for s in trajectory.generated] == row["logprobs"]
                and [s.kl_base_vs_combined for s in trajectory.generated] == row["kl"],
            )
        self.trajectories = [trajectory for *_, trajectory in decoded]
        direct = [seconds * clock.factor for seconds in direct]
        replay_tokens = sum(len(t.generated) - 1 for t in trajectories)
        return {
            "direct": direct,
            "tokens_per_s": tokens / fresh.seconds,
            "raw_tokens_per_s": tokens / fresh.raw,
            "cells_per_s": self.cells / fresh.seconds,
            "resume_cells_per_s": self.cells / resume.seconds,
            "replay_tokens_per_s": replay_tokens / replay,
            "wall_s": fresh.seconds + resume.seconds + replay + sum(direct),
        }

    def _run(self, seconds: float | None) -> list[dict]:
        cycles = []
        start = time.perf_counter()
        while not cycles or (seconds and time.perf_counter() - start < seconds):
            cycle = self._cycle()
            if cycle is None:
                break
            cycles.append(cycle)
        return cycles

    @staticmethod
    def _rates(cycles) -> dict:
        rates = {
            key: median([c[key] for c in cycles])
            for key in ("tokens_per_s", "raw_tokens_per_s", "cells_per_s", "replay_tokens_per_s", "resume_cells_per_s", "wall_s")
        }
        rates["traj_ms_p50"] = median([s * 1e3 for c in cycles for s in c["direct"]])
        return rates

    def measure(self, seconds: float) -> dict:
        return self._rates(self._run(seconds))

    def measure_traced(self, seconds: float, tracer: Tracer) -> dict:
        """Untraced cycles for half the seconds, then one traced cycle."""
        untraced = self._rates(self._run(seconds / 2))
        roles = {"base.json": "base", "expert.json": "expert", "expert_base.json": "expert_base"}
        with tracer.instrument(
            scorers=[("base", self.base), ("expert", self.expert), ("expert_base", self.expert_base), ("probe", self.probe)],
            roles_by_file=roles,
        ):
            tracer.counters["harness.cells"] += 2 * self.cells  # fresh and resume
            traced = self._rates(self._run(None))["wall_s"]
        layers = tracer.layer_metrics()
        layers["harness.resume_cells_per_s"] = untraced["resume_cells_per_s"]
        layers["trace.overhead_frac"] = traced / untraced["wall_s"] - 1
        return layers

    def verify(self) -> None:
        pass

    def properties(self) -> dict:
        return _trajectory_properties(self.trajectories, self.base.vocab.size)

    def output_digest(self) -> str:
        # manifest.json holds absolute paths, so it stays out of the digest.
        h = hashlib.sha256()
        for name, data in sorted(self.artifacts.items()):
            if name != "manifest.json":
                h.update(name.encode() + b"\0" + data + b"\0")
        h.update(json.dumps(self.pcr_values).encode())
        return h.hexdigest()


WORKLOADS = {
    "campaign-transfer": CampaignWorkload,
    "decode-long": DecodeWorkload,
    "decode-wide": WideDecodeWorkload,
    "remote-base": RemoteDecodeWorkload,
}
