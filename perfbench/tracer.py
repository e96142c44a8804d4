"""Span tracer that instruments deltadecode from outside the package.

Nothing in ``src/`` knows about tracing. ``Tracer.instrument()`` swaps
public entry points for timing wrappers while it is active and restores
them on exit; an untraced run never enters it. Instrumented boundaries:

* ``Scorer.score`` per role (``scorers.<role>``), wrapped on the instance;
* the core steps as ``decoder`` binds them (``core.combine``,
  ``core.softmax``, ``core.nucleus``, ``core.choice``) and the
  divergence instrument (``decoder.kl``);
* ``decode`` as bound in ``decoder`` and ``harness`` (``decoder.decode``);
* ``ScorerClient.score_tokens`` (``remote.rtt``), wrapped on the instance;
* ``run_campaign`` (``harness.run_campaign``), ``extract_answer`` and
  ``pass_at_k_exact`` as bound in ``harness``, and ``analysis.pcr``.

Validations (``as_logits``/``as_distribution`` as bound in ``core`` and
``decoder``) are counted, not spanned, because there are several per
step. A span is (name, start ns, end ns, parent span, trajectory id);
spans stay in memory until ``save``.
"""

from __future__ import annotations

import contextlib
import pathlib
import socket
import time
from collections import Counter

import numpy as np

from deltadecode import analysis, core, decoder, harness

_DECODE = "decoder.decode"
_PCR = "analysis.pcr"
_RUN = "harness.run_campaign"
ROLES = ("base", "expert", "expert_base")
_MISSING = object()


class CountingSocket(socket.socket):
    """TCP socket that counts the bytes it sends and receives."""

    sent = 0
    received = 0

    def sendall(self, data, *args):
        self.sent += len(data)
        return super().sendall(data, *args)

    def recv(self, size, *args):
        chunk = super().recv(size, *args)
        self.received += len(chunk)
        return chunk


@contextlib.contextmanager
def counting_connections(sockets: list):
    """Make ``socket.create_connection`` hand out counting sockets."""
    original = socket.create_connection

    def connect(address, timeout=None, *args, **kwargs):
        plain = original(address, timeout, *args, **kwargs)
        counted = CountingSocket(plain.family, plain.type, plain.proto, fileno=plain.detach())
        counted.settimeout(timeout)
        sockets.append(counted)
        return counted

    socket.create_connection = connect
    try:
        yield
    finally:
        socket.create_connection = original


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.rtt_failed = 0
        self._traj = -1
        self._next_traj = 0
        self._decode_depth = 0
        self._campaign_depth = 0

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, nid

    def _close(self, index: int, nid: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (nid, start, end, parent, self._traj)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index, nid = self._open(name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, nid, start)

        return traced

    def _wrap_decode(self, fn):
        def traced(*args, **kwargs):
            outer = self._traj
            self._traj = self._next_traj
            self._next_traj += 1
            self._decode_depth += 1
            index, nid = self._open(_DECODE)
            start = time.perf_counter_ns()
            try:
                trajectory = fn(*args, **kwargs)
            finally:
                self._close(index, nid, start)
                self._decode_depth -= 1
                self._traj = outer
            self.counters["decode.tokens"] += len(trajectory.generated)
            return trajectory

        return traced

    def _wrap_nucleus(self, fn):
        traced = self.wrap("core.nucleus", fn)

        def with_kept(probs, top_p):
            out = traced(probs, top_p)
            if self._decode_depth:
                self.counters["nucleus.calls"] += 1
                self.counters["nucleus.kept_frac_sum"] += np.count_nonzero(out) / out.size
            return out

        return with_kept

    def _count(self, key: str, fn):
        def counted(*args, **kwargs):
            if self._decode_depth:
                self.counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_write(self, fn):
        def counted(path, data, *args, **kwargs):
            if self._campaign_depth:
                self.counters["harness.bytes_written"] += len(data.encode("utf-8") if isinstance(data, str) else data)
            return fn(path, data, *args, **kwargs)

        return counted

    def _wrap_campaign(self, fn):
        traced = self.wrap(_RUN, fn)

        def inside(*args, **kwargs):
            self._campaign_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._campaign_depth -= 1

        return inside

    def _traced_scorer(self, scorer, role: str):
        traced = self.wrap(f"scorers.{role}", scorer.score)

        def score(prefix):
            if self._decode_depth:
                self.counters["scorers.prefix_len_sum"] += len(prefix)
            return traced(prefix)

        return score

    def _traced_client(self, client):
        traced = self.wrap("remote.rtt", client.score_tokens)

        def score_tokens(tokens):
            try:
                return traced(tokens)
            except Exception:
                self.rtt_failed += 1
                raise

        return score_tokens

    @contextlib.contextmanager
    def instrument(self, scorers=(), client=None, roles_by_file=None):
        """Swap the instrumented entry points in, and back out on exit.

        ``scorers`` holds (role, scorer) pairs the benchmark loaded itself;
        ``client`` is its remote client; ``roles_by_file`` maps a scorer
        file name to the role of the scorer ``run_campaign`` loads from it.
        """
        patches = [
            (decoder, "combine_logits", self.wrap("core.combine", decoder.combine_logits)),
            (decoder, "softmax_with_temperature", self.wrap("core.softmax", decoder.softmax_with_temperature)),
            (decoder, "nucleus_filter", self._wrap_nucleus(decoder.nucleus_filter)),
            (decoder, "sample_token", self.wrap("core.choice", decoder.sample_token)),
            (decoder, "argmax_token", self.wrap("core.choice", decoder.argmax_token)),
            (decoder, "kl_divergence", self.wrap("decoder.kl", decoder.kl_divergence)),
            (decoder, "as_logits", self._count("validations", decoder.as_logits)),
            (core, "as_logits", self._count("validations", core.as_logits)),
            (core, "as_distribution", self._count("validations", core.as_distribution)),
            (decoder, "decode", self._wrap_decode(decoder.decode)),
            (harness, "decode", self._wrap_decode(harness.decode)),
            (harness, "run_campaign", self._wrap_campaign(harness.run_campaign)),
            (harness, "extract_answer", self.wrap("metrics.extract_answer", harness.extract_answer)),
            (harness, "pass_at_k_exact", self.wrap("metrics.pass_at_k", harness.pass_at_k_exact)),
            (analysis, "pcr", self.wrap(_PCR, analysis.pcr)),
            (pathlib.Path, "write_text", self._wrap_write(pathlib.Path.write_text)),
            (pathlib.Path, "write_bytes", self._wrap_write(pathlib.Path.write_bytes)),
        ]
        patches += [(scorer, "score", self._traced_scorer(scorer, role)) for role, scorer in scorers]
        if client is not None:
            patches.append((client, "score_tokens", self._traced_client(client)))
        if roles_by_file:
            load = harness.load_scorer

            def load_traced(path):
                scorer = load(path)
                role = roles_by_file.get(pathlib.Path(path).name)
                if role:
                    scorer.score = self._traced_scorer(scorer, role)
                return scorer

            patches.append((harness, "load_scorer", load_traced))
        # Instance patches shadow a class attribute, so restoring one means
        # deleting the shadow rather than storing the bound method back.
        saved = [(owner, attr, vars(owner).get(attr, _MISSING)) for owner, attr, _ in patches]
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans as columns of an ``.npz`` file."""
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        columns = dict(zip(("name", "start_ns", "end_ns", "parent", "trajectory"), rows.T))
        np.savez(path, names=np.array(self.names), **columns)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures over every recorded span.

        Self time is a span's duration minus its direct children's. Scorer
        and core figures count only spans inside a decode; probe calls are
        scorer spans inside ``analysis.pcr``. A layer that never ran
        reports 0.
        """
        names = self.names
        n = len(self.spans)
        duration = np.zeros(n)
        child = np.zeros(n)
        context = [""] * n
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            duration[i] = (end - start) / 1e3  # microseconds
            name = names[nid]
            if parent >= 0:
                child[parent] += duration[i]
            if name in (_DECODE, _PCR):
                context[i] = name
            elif parent >= 0:
                context[i] = context[parent]
        own = duration - child
        by_name: dict[str, list[int]] = {}
        for i, (nid, *_rest) in enumerate(self.spans):
            by_name.setdefault(names[nid], []).append(i)

        def pick(name, where=None):
            return [i for i in by_name.get(name, []) if where is None or context[i] == where]

        def mean(values):
            return float(np.mean(values)) if len(values) else 0.0

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        c = self.counters
        tokens = c["decode.tokens"]
        per_token = (lambda x: x / tokens) if tokens else (lambda x: 0.0)
        out: dict[str, float] = {}
        scorer_calls = 0
        for role in ROLES:
            spans = pick(f"scorers.{role}", _DECODE)
            scorer_calls += len(spans)
            out[f"scorers.{role}.us_per_call"] = mean(own[spans])
        out["scorers.calls_per_token"] = per_token(scorer_calls)
        out["scorers.prefix_len_mean"] = c["scorers.prefix_len_sum"] / scorer_calls if scorer_calls else 0.0
        for step in ("combine", "softmax", "nucleus", "choice"):
            out[f"core.{step}.us_per_call"] = mean(duration[pick(f"core.{step}", _DECODE)])
        out["core.nucleus.kept_frac"] = (
            c["nucleus.kept_frac_sum"] / c["nucleus.calls"] if c["nucleus.calls"] else 0.0
        )
        out["core.validations_per_token"] = per_token(c["validations"])
        out["decoder.self_us_per_token"] = per_token(float(own[pick(_DECODE)].sum()))
        out["decoder.kl.us_per_call"] = mean(duration[pick("decoder.kl", _DECODE)])
        rtt = duration[pick("remote.rtt")]
        out["remote.rtt_us_p50"] = pct(rtt, 50)
        out["remote.rtt_us_p99"] = pct(rtt, 99)
        out["remote.requests"] = float(len(rtt))
        out["remote.failed"] = float(self.rtt_failed)
        campaigns = pick(_RUN)
        cells = c["harness.cells"]
        out["harness.self_ms_per_cell"] = float(own[campaigns].sum()) / 1e3 / cells if cells else 0.0
        run_id = self._name_ids.get(_RUN)
        decoded = sum(1 for i in pick(_DECODE) if self.spans[i][3] >= 0 and self.spans[self.spans[i][3]][0] == run_id)
        out["harness.cells_decoded"] = float(decoded)
        out["harness.cells_reused"] = float(cells - decoded)
        out["harness.bytes_written"] = float(c["harness.bytes_written"])
        out["metrics.extract_answer.us_per_call"] = mean(duration[pick("metrics.extract_answer")])
        out["metrics.pass_at_k.us_per_call"] = mean(duration[pick("metrics.pass_at_k")])
        probe_calls = sum(len(pick(f"scorers.{r}", _PCR)) for r in ROLES + ("probe",))
        pcr_us = float(duration[pick(_PCR)].sum())
        out["analysis.pcr.us_per_token"] = pcr_us / probe_calls if probe_calls else 0.0
        out["analysis.probe_calls"] = float(probe_calls)
        return out

