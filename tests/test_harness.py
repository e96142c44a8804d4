"""Harness tests: memory plans, datasets, manifests, campaigns, sweeps.

The campaign tests run against a tiny committed world: a cyclic bigram
corpus over three digit tokens, so greedy decodes are hand-checkable and
sampled decodes are cheap. Byte-identity of artifacts is the load-bearing
property here; run_log.json (wall clock) is the only file excluded.
"""

import gc
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltadecode import decoder, harness
from deltadecode.core import DecodeConfig, InvalidConfigError
from deltadecode.decoder import decode
from deltadecode.harness import (
    ArmSpec,
    DatasetError,
    ManifestError,
    MemoryPlan,
    RunManifest,
    derive_seed,
    estimate_memory,
    ingest_dataset,
    load_campaign_trajectories,
    load_template,
    render_prompt,
    run_campaign,
    sweep,
)
from deltadecode.metrics import load_records
from deltadecode.remote import StubServer, StubSession
from deltadecode.scorers import (
    Scorer,
    encode_text,
    load_corpus,
    load_scorer,
    render_tokens,
    save_scorer,
    save_vocab,
    train_ngram,
)

GREEDY = DecodeConfig(mode="greedy", max_tokens=4, seed=7)
SAMPLED = DecodeConfig(mode="sample", temperature=1.0, top_p=0.95, max_tokens=6, seed=7)


# A campaign line with one field of the wrong type, each of which a value
# conversion would once have taken: it must be regenerated on resume and
# named by load_campaign_trajectories.
MISTYPED = {
    "bool-index": lambda row: {**row, "sample_index": True},
    "float-prompt": lambda row: {**row, "prompt_tokens": [float(t) for t in row["prompt_tokens"]]},
    "float-tokens": lambda row: {**row, "tokens": [t + 0.5 for t in row["tokens"]]},
    "bool-tokens": lambda row: {**row, "tokens": [t > 1 for t in row["tokens"]]},
    "string-logprobs": lambda row: {**row, "logprobs": [str(v) for v in row["logprobs"]]},
    "bool-logprobs": lambda row: {**row, "logprobs": [False] * len(row["logprobs"])},
    "string-kl": lambda row: {**row, "kl": [str(v) for v in row["kl"]]},
    "number-stop-reason": lambda row: {**row, "stop_reason": 7},
    "unknown-stop-reason": lambda row: {**row, "stop_reason": "length"},
    "number-answer": lambda row: {**row, "extracted_answer": 3},
}

# A line with a NaN or infinite logprob or kl (JSON's NaN and Infinity). No
# decode writes one, so it too must be regenerated on resume and named by
# load_campaign_trajectories.
NON_FINITE = {
    "nan-logprobs": lambda row: {**row, "logprobs": [float("nan")] * len(row["logprobs"])},
    "inf-logprob": lambda row: {**row, "logprobs": [-float("inf"), *row["logprobs"][1:]]},
    "inf-kl": lambda row: {**row, "kl": [*row["kl"][:-1], float("inf")]},
}
UNREADABLE = {**MISTYPED, **NON_FINITE}

# A line with an id outside the world's five-id vocabulary: resume must
# regenerate it.
OUT_OF_RANGE = {
    "token-at-vocab-size": lambda row: {**row, "tokens": [5, *row["tokens"][1:]]},
    "negative-token": lambda row: {**row, "tokens": [*row["tokens"][:-1], -3]},
    "negative-first-token": lambda row: {**row, "tokens": [-3, *row["tokens"][1:]]},
    "negative-prompt": lambda row: {**row, "prompt_tokens": [-1, *row["prompt_tokens"][1:]]},
    "prompt-past-vocab": lambda row: {**row, "prompt_tokens": [*row["prompt_tokens"][:-1], 99]},
}

# A line that parses, but that the arm could not have written from its
# problem: resume must regenerate it. Each damages line 2 of a guided
# file, in 0.jsonl ``[1, 2, eos]`` (stopped at eos) and in 1.jsonl
# ``[0, 1, 2, 0, 1, 2]`` (ran to max_tokens=6), and keeps its answer
# unless the answer is the damage.
STEP_COLUMNS = ("tokens", "logprobs", "kl")
FOREIGN = {
    "foreign-answer": ("0.jsonl", lambda row: {**row, "extracted_answer": "999"}),
    "foreign-prompt": ("0.jsonl", lambda row: {**row, "prompt_tokens": [2, 2, 2]}),
    "past-max-tokens": (
        "0.jsonl",
        lambda row: {**row, **{key: [*row[key][:-1], *[row[key][1]] * 5, row[key][-1]] for key in STEP_COLUMNS}},
    ),
    "eos-stop-flipped": ("0.jsonl", lambda row: {**row, "stop_reason": "max_tokens"}),
    "max-tokens-stop-flipped": ("1.jsonl", lambda row: {**row, "stop_reason": "eos"}),
    "eos-inside": ("0.jsonl", lambda row: {**row, "tokens": [4, *row["tokens"][1:]]}),
    "short-of-max-tokens": ("1.jsonl", lambda row: {**row, **{key: row[key][1:] for key in STEP_COLUMNS}}),
}


def damage_line(path, number, damage):
    """Rewrite line ``number`` (from 1) of a campaign file through ``damage``."""
    lines = path.read_text().splitlines()
    lines[number - 1] = json.dumps(damage(json.loads(lines[number - 1])))
    path.write_text("".join(line + "\n" for line in lines))


_os_write = os.write


def torn_write(fd, data):
    """``os.write`` as a full disk fails it: half of ``data`` lands first."""
    _os_write(fd, bytes(data[: len(data) // 2]))
    raise OSError("disk full")


def walk_bytes(root, exclude=("run_log.json",)):
    """Map of relative path -> bytes for every file under root."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in exclude
    }


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Scorer files and a dataset for campaign tests.

    Base corpus is the 3-cycle 1->2->3->1, so with add-0.5 smoothing the
    greedy successor of each digit is the next one in the cycle and eos is
    never the argmax. Vocab comes out as ("1","2","3",bos,eos).
    """
    root = tmp_path_factory.mktemp("world")
    (root / "corpus.txt").write_text("1 2 3\n2 3 1\n3 1 2\n", encoding="utf-8")
    docs, vocab = load_corpus(root / "corpus.txt")
    (root / "expert.txt").write_text("1 1 2\n2 2 3\n3 3 1\n", encoding="utf-8")
    expert_docs, _ = load_corpus(root / "expert.txt", vocab=vocab)
    save_scorer(train_ngram(docs, 2, vocab, smoothing_k=0.5), root / "base.json")
    save_scorer(train_ngram(expert_docs, 2, vocab, smoothing_k=0.5), root / "expert.json")
    save_scorer(train_ngram(docs, 1, vocab, smoothing_k=0.5), root / "expert_base.json")
    # Greedy from "1 2" walks 3,1,2,3 -> answer "3"; from "2 3" walks
    # 1,2,3,1 -> answer "1", so truths below make exactly one correct.
    (root / "data.jsonl").write_text(
        '{"prompt": "1 2", "answer": "3"}\n{"prompt": "2 3", "answer": "7"}\n',
        encoding="utf-8",
    )
    return root


def make_manifest(world, **overrides):
    arms = overrides.pop(
        "arms",
        (
            ArmSpec(
                label="base",
                base=str(world / "base.json"),
                config=GREEDY,
                samples_per_problem=1,
            ),
            ArmSpec(
                label="guided",
                base=str(world / "base.json"),
                expert=str(world / "expert.json"),
                expert_base=str(world / "expert_base.json"),
                config=SAMPLED,
                instrument=("kl",),
            ),
        ),
    )
    fields = {
        "run_id": "demo",
        "dataset": str(world / "data.jsonl"),
        "arms": arms,
        "samples_per_problem": 3,
        "answer_style": "last_number",
    }
    fields.update(overrides)
    return RunManifest(**fields)


class TestEstimateMemory:
    def test_worked_deployment_example(self):
        # 14e9 params sharded 4 ways at 2 bytes, 3 resident models:
        # 14e9/4*2*3/1e9 = 21 GB per GPU, exact in float64.
        plan = MemoryPlan(n_params=14e9, tp=4, n_instances=3, bytes_per_param=2.0)
        report = estimate_memory(plan)
        assert report["model_gb_per_gpu"] == 21.0
        # Optimizer state offloaded to CPU at 8 bytes/param: 14e9*8/1e9.
        assert report["optimizer_gb_cpu"] == 112.0
        assert report["activation_gb"] == [12.0, 25.0]
        assert report["buffer_gb"] == [5.0, 8.0]
        assert report["total_gpu_gb"] == [21.0 + 12.0 + 5.0, 21.0 + 25.0 + 8.0]

    def test_single_instance_single_gpu(self):
        report = estimate_memory(MemoryPlan(n_params=1e9, tp=1, n_instances=1))
        assert report["model_gb_per_gpu"] == 2.0

    def test_model_term_linear_in_params(self):
        small = estimate_memory(MemoryPlan(n_params=1e9))["model_gb_per_gpu"]
        big = estimate_memory(MemoryPlan(n_params=4e9))["model_gb_per_gpu"]
        assert big == 4.0 * small

    def test_model_term_linear_in_instances(self):
        one = estimate_memory(MemoryPlan(n_params=1e9, n_instances=1))
        three = estimate_memory(MemoryPlan(n_params=1e9, n_instances=3))
        assert three["model_gb_per_gpu"] == 3.0 * one["model_gb_per_gpu"]

    def test_model_term_inverse_in_tp(self):
        whole = estimate_memory(MemoryPlan(n_params=8e9, tp=1))
        sharded = estimate_memory(MemoryPlan(n_params=8e9, tp=4))
        assert sharded["model_gb_per_gpu"] == whole["model_gb_per_gpu"] / 4.0

    def test_optimizer_scales_with_instances(self):
        plan = MemoryPlan(n_params=1e9, optimizer_bytes_per_param=8.0, optimizer_instances=2)
        assert estimate_memory(plan)["optimizer_gb_cpu"] == 16.0

    def test_bands_pass_through(self):
        plan = MemoryPlan(n_params=1e9, activation_gb=(1.0, 2.0), buffer_gb=(0.0, 0.5))
        report = estimate_memory(plan)
        assert report["activation_gb"] == [1.0, 2.0]
        assert report["total_gpu_gb"] == [3.0, 4.5]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_params": 0},
            {"n_params": -1e9},
            {"n_params": 1e9, "tp": 0},
            {"n_params": 1e9, "n_instances": 0},
            {"n_params": 1e9, "optimizer_instances": 0},
            {"n_params": 1e9, "bytes_per_param": 0.0},
            {"n_params": 1e9, "optimizer_bytes_per_param": -1.0},
            {"n_params": 1e9, "activation_gb": (5.0, 2.0)},
            {"n_params": 1e9, "buffer_gb": (-1.0, 2.0)},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            MemoryPlan(**kwargs)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "p1", 3) == derive_seed(7, "p1", 3)

    def test_distinct_across_all_coordinates(self):
        seeds = {
            derive_seed(arm, pid, idx)
            for arm in (0, 1, 2)
            for pid in ("a", "b", "c")
            for idx in (0, 1, 2)
        }
        assert len(seeds) == 27

    def test_uint64_range(self):
        value = derive_seed(123, "some-problem", 31)
        assert isinstance(value, int)
        assert 0 <= value < 2**64

    def test_arm_seed_masked_to_64_bits(self):
        assert derive_seed(2**64 + 5, "p", 0) == derive_seed(5, "p", 0)

    def test_equals_the_seed_sequence_of_the_entropy_list(self):
        # The recorded formula: a SeedSequence over the Python list
        # [arm seed mod 2**64, first 8 sha256 bytes of the id, index].
        def reference(arm_seed, problem_id, index):
            digest = hashlib.sha256(problem_id.encode("utf-8")).digest()[:8]
            entropy = [arm_seed & (2**64 - 1), int.from_bytes(digest, "little"), index]
            return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])

        rng = np.random.default_rng(18)
        arm_seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**70 + 5]
        arm_seeds += [int(v) for v in rng.integers(0, 2**63, size=4)]
        ids = ["", "ü∑", "0", "succ-3", "some/problem id"]
        indexes = list(range(20)) + [2**16, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1, 2**32]
        indexes += [int(v) for v in rng.integers(0, 2**32, size=3)]
        cases = [(a, pid, i) for a in arm_seeds for pid in ids for i in indexes]
        assert len(cases) == 1450
        for case in cases:
            assert derive_seed(*case) == reference(*case), case

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(1, "p", -1)

    def test_campaign_pass_equals_derive_seed(self):
        # One arm's cells as _run_arm collects them, four to six words each
        # (one or two per arm seed, id hash and index), mixed in one call,
        # so every width group and the zero padding are exercised. Three
        # words need an id hash below 2**32, so they are checked directly.
        rng = np.random.default_rng(20)
        arm_seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**70 + 5]
        arm_seeds += [int(v) for v in rng.integers(0, 2**63, size=2)]
        ids = ["", "ü∑", "0", "succ-3"]
        indexes = [0, 1, 2**32 - 1, 2**32, int(rng.integers(0, 2**32))]
        cases = [(a, pid, i) for a in arm_seeds for pid in ids for i in indexes]
        entropy = [harness._problem_words(a, pid) + harness._uint32_words(i) for a, pid, i in cases]
        assert {len(words) for words in entropy} == {4, 5, 6}
        assert harness._cell_seeds(entropy) == [derive_seed(*case) for case in cases]
        short = [[0, 0, 0], [2**32 - 1, 5, 2**32 - 1], *entropy[:3]]
        assert harness._cell_seeds(short) == [
            int(np.random.SeedSequence(np.array(words, np.uint32)).generate_state(1, np.uint64)[0])
            for words in short
        ]
        assert harness._cell_seeds(entropy[:1]) == [derive_seed(*cases[0])]
        assert harness._cell_seeds([]) == []


class TestTrajectoryLine:
    @pytest.mark.parametrize("answer", ["42", None, "ü∑ \\boxed{3}"])
    @pytest.mark.parametrize("instrument", [(), ("kl",)])
    def test_bytes_equal_json_dumps(self, world, answer, instrument):
        base = load_scorer(world / "base.json")
        config = DecodeConfig(mode="sample", max_tokens=3, seed=4)
        trajectory = decode(base, prompt=[0], config=config, instrument=instrument)
        line = harness._trajectory_line(7, trajectory, answer)
        payload = {**trajectory.to_dict(), "sample_index": 7, "extracted_answer": answer}
        assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert ('"kl":' in line) == bool(instrument)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_any_line_equals_json_dumps(self, data):
        # Columns built directly, past from_tokens' checks, so non-finite
        # floats, ids up to 2**64 and kl that is absent, all present or
        # partly None all meet the writer. The example pins every edge
        # float in one line.
        if data is None:
            logprobs = tuple(LINE_EDGE_FLOATS)
            columns = ((0,), tuple(range(len(logprobs))), logprobs, logprobs[::-1], "eos", 2**64, '\"\x00ü')
        else:
            n = data.draw(st.integers(0, 6))
            ids = st.lists(LINE_IDS, min_size=n, max_size=n).map(tuple)
            kl = data.draw(st.sampled_from([st.none(), LINE_FLOATS, st.none() | LINE_FLOATS]))
            columns = (
                data.draw(ids),
                data.draw(ids),
                data.draw(st.lists(LINE_FLOATS, min_size=n, max_size=n).map(tuple)),
                data.draw(st.lists(kl, min_size=n, max_size=n).map(tuple)),
                data.draw(st.sampled_from(["eos", "max_tokens"])),
                data.draw(LINE_IDS),
                data.draw(st.none() | LINE_TEXT),
            )
        prompt, tokens, logprobs, kl, stop_reason, index, answer = columns
        trajectory = decoder.Trajectory(prompt, tokens, logprobs, kl, stop_reason, DecodeConfig())
        payload = {**trajectory.to_dict(), "sample_index": index, "extracted_answer": answer}
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert harness._trajectory_line(index, trajectory, answer) == expected

    @pytest.mark.parametrize("tokenizer", ["whitespace", "byte"])
    def test_arm_render_equals_render_tokens(self, world, tokenizer):
        arm = ArmSpec(label="a", base=str(world / "base.json"), tokenizer=tokenizer)
        runtime = harness._ArmRuntime(arm, make_manifest(world, arms=(arm,)), {})
        vocab = runtime.base.vocab
        assert vocab.bos is not None
        rng = np.random.default_rng(11)
        cases = [(), (vocab.bos,), (vocab.eos,), (vocab.bos, 0, vocab.eos), (2, vocab.bos, 1, 1)]
        cases += [tuple(rng.integers(0, vocab.size, size=n).tolist()) for n in range(1, 9) for _ in range(20)]
        for ids in cases:
            assert runtime.render(ids) == render_tokens(ids, vocab, tokenizer), ids


# Floats as the line writer meets them: any double, NaN and the
# infinities included, and the edge values of float.__repr__.
LINE_EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 1.7976931348623157e308, math.inf, -math.inf, math.nan
]
LINE_FLOATS = st.floats() | st.sampled_from(LINE_EDGE_FLOATS)
LINE_IDS = st.integers(0, 2**64)
# Answers: any text, lone surrogates, quotes, backslashes and control
# characters included.
LINE_TEXT = st.text(st.characters() | st.characters(categories=["Cs"]) | st.sampled_from('"\\\n\x00\x1f\x7fü'))


class TestIngestDataset:
    def test_line_index_ids(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"prompt": "a?", "answer": "1"}\n'
            '{"prompt": "b?", "answer": "2"}\n'
            '{"prompt": "c?", "answer": "3"}\n'
        )
        problems = ingest_dataset(path)
        assert [p["problem_id"] for p in problems] == ["0", "1", "2"]
        assert problems[0] == {"problem_id": "0", "input": "a?", "ground_truth": "1"}

    @pytest.mark.parametrize("prompt_key", ["prompt", "question", "input", "problem"])
    @pytest.mark.parametrize("answer_key", ["answer", "ground_truth"])
    def test_field_aliases(self, tmp_path, prompt_key, answer_key):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({prompt_key: "q", answer_key: "a"}) + "\n")
        (problem,) = ingest_dataset(path)
        assert problem["input"] == "q"
        assert problem["ground_truth"] == "a"

    def test_explicit_ids_and_coercion(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": 17, "prompt": "q", "answer": 42}\n'
            '{"problem_id": "amc-3", "prompt": "r", "answer": "s"}\n'
        )
        problems = ingest_dataset(path)
        assert problems[0]["problem_id"] == "17"
        assert problems[0]["ground_truth"] == "42"
        assert problems[1]["problem_id"] == "amc-3"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"prompt": "q", "answer": "a"}\n\n{"prompt": "r", "answer": "b"}\n')
        assert [p["problem_id"] for p in ingest_dataset(path)] == ["0", "1"]

    def test_missing_answer_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"prompt": "q", "answer": "a"}\n{"prompt": "q2"}\n')
        with pytest.raises(DatasetError, match="line 2"):
            ingest_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"prompt": "q", "answer": "a"}\n{oops\n')
        with pytest.raises(DatasetError, match="line 2"):
            ingest_dataset(path)

    def test_overlong_integer_names_line(self, tmp_path):
        """An integer past ``int``'s 4300-digit limit is not valid JSON here."""
        path = tmp_path / "d.jsonl"
        path.write_text('{"prompt": "q", "answer": "a"}\n{"prompt": "q", "answer": %s}\n' % ("9" * 5000))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: line 2: not valid JSON: Exceeds"):
            ingest_dataset(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DatasetError, match="line 1"):
            ingest_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n\n")
        with pytest.raises(DatasetError, match="no problems"):
            ingest_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "x", "prompt": "q", "answer": "a"}\n'
            '{"id": "x", "prompt": "r", "answer": "b"}\n'
        )
        with pytest.raises(DatasetError, match="not unique"):
            ingest_dataset(path)


class TestTemplates:
    def test_builtin_boxed(self):
        text = load_template("boxed")
        assert "{input}" in text
        assert "\\boxed{}" in text

    def test_builtin_plain(self):
        text = load_template("plain")
        assert text.startswith("Question: {input}")

    def test_template_from_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("Q: {input}\nA:")
        assert load_template(str(path)) == "Q: {input}\nA:"

    def test_missing_template_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match="neither built-in nor a file"):
            load_template(str(tmp_path / "nope.txt"))

    def test_template_without_placeholder_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("no placeholder here")
        with pytest.raises(ManifestError, match="placeholder"):
            load_template(str(path))

    def test_render_substitutes(self):
        assert render_prompt("Q: {input} A:", "1+1?") == "Q: 1+1? A:"

    def test_render_substitutes_every_occurrence(self):
        assert render_prompt("{input}|{input}", "x") == "x|x"

    def test_render_none_passes_through(self):
        assert render_prompt(None, "raw text") == "raw text"

    def test_boxed_template_renders_question(self):
        rendered = render_prompt(load_template("boxed"), "1+1?")
        assert "Problem: 1+1?" in rendered
        assert "\\boxed{}" in rendered


class TestArmSpec:
    def test_defaults(self):
        arm = ArmSpec(label="base", base="m.json")
        assert arm.expert is None
        assert arm.samples_per_problem is None
        assert arm.config == DecodeConfig()

    @pytest.mark.parametrize("label", ["", "a b", "a/b", "a:b"])
    def test_bad_labels_rejected(self, label):
        with pytest.raises(ManifestError, match="label"):
            ArmSpec(label=label, base="m.json")

    def test_filesystem_safe_label_accepted(self):
        ArmSpec(label="Arm_1.5b-v2", base="m.json")

    def test_expert_requires_expert_base(self):
        with pytest.raises(ManifestError, match="together"):
            ArmSpec(label="a", base="m.json", expert="e.json")
        with pytest.raises(ManifestError, match="together"):
            ArmSpec(label="a", base="m.json", expert_base="eb.json")

    def test_zero_samples_rejected(self):
        with pytest.raises(ManifestError, match="samples_per_problem"):
            ArmSpec(label="a", base="m.json", samples_per_problem=0)

    def test_dict_round_trip(self):
        arm = ArmSpec(
            label="guided",
            base="b.json",
            expert="e.json",
            expert_base="eb.json",
            config=DecodeConfig(delta_scale=0.5, seed=11),
            samples_per_problem=4,
            instrument=("kl",),
        )
        assert ArmSpec.from_dict(arm.to_dict()) == arm

    def test_unknown_field_rejected(self):
        with pytest.raises(ManifestError, match="lambda"):
            ArmSpec.from_dict({"label": "a", "base": "m.json", "lambda": 1.0})

    @pytest.mark.parametrize(
        "instrument, message",
        [
            ("kl", "arm 'a': instrument must be a list of flags, got str"),
            (7, "arm 'a': instrument must be a list of flags, got int"),
            (["kl", "entropy"], "arm 'a': unknown instrument flag 'entropy'"),
            (["k", "l"], "arm 'a': unknown instrument flag 'k'"),
            (["delta"], "arm 'a': unknown instrument flag 'delta'"),
        ],
    )
    def test_bad_instrument_rejected_at_load(self, instrument, message):
        with pytest.raises(ManifestError, match=message):
            ArmSpec.from_dict({"label": "a", "base": "m.json", "instrument": instrument})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"label": 5}, "arm label must be a filesystem-safe slug, got 5"),
            ({"base": 3}, "arm 'a': base must be a string, got int"),
            ({"base": None}, "arm 'a': base must be a string, got NoneType"),
            ({"expert": ["e.json"], "expert_base": "eb.json"}, "arm 'a': expert must be a string, got list"),
            ({"expert": "e.json", "expert_base": 1.5}, "arm 'a': expert_base must be a string, got float"),
            ({"template": {}}, "arm 'a': template must be a string, got dict"),
            ({"vocab": 0}, "arm 'a': vocab must be a string, got int"),
            ({"tokenizer": 7}, "arm 'a': tokenizer must be a string, got int"),
            ({"samples_per_problem": 2.5}, "arm 'a': samples_per_problem must be an integer >= 1, got 2.5"),
            ({"samples_per_problem": True}, "arm 'a': samples_per_problem must be an integer >= 1, got True"),
            ({"samples_per_problem": "4"}, "arm 'a': samples_per_problem must be an integer >= 1, got '4'"),
        ],
    )
    def test_wrongly_typed_field_rejected_at_load(self, fields, message):
        with pytest.raises(ManifestError, match=re.escape(message)):
            ArmSpec.from_dict({"label": "a", "base": "m.json", **fields})

    def test_instrument_flags_accepted(self):
        arm = ArmSpec.from_dict({"label": "a", "base": "m.json", "instrument": ["kl"]})
        assert arm.instrument == ("kl",)


class TestRunManifest:
    def test_samples_for_prefers_arm_override(self, world):
        manifest = make_manifest(world)
        base, guided = manifest.arms
        assert manifest.samples_for(base) == 1
        assert manifest.samples_for(guided) == 3

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"run_id": ""}, "run_id"),
            ({"samples_per_problem": 0}, "samples_per_problem"),
            ({"answer_style": "regex"}, "answer_style"),
            ({"arms": ()}, "at least one arm"),
            ({"arms": 3}, "manifest field 'arms' must be a list, got int"),
            ({"arms": (1,)}, "arm.*must be an? .*, got int"),
        ],
    )
    def test_invalid_manifests_rejected(self, world, overrides, message):
        with pytest.raises(ManifestError, match=message):
            make_manifest(world, **overrides)
        with pytest.raises(ManifestError, match=message):
            RunManifest.from_dict({**make_manifest(world).to_dict(), **overrides})

    @pytest.mark.parametrize("name", ["run_id", "dataset", "created_at", "code_version"])
    @pytest.mark.parametrize("value", [5, None, ["r"]])
    def test_non_string_field_rejected(self, world, name, value):
        message = f"manifest field {name!r} must be a string, got {type(value).__name__}"
        with pytest.raises(ManifestError, match=re.escape(message)):
            RunManifest.from_dict({**make_manifest(world).to_dict(), name: value})

    @pytest.mark.parametrize("samples", ["4", True, 2.5, None])
    def test_wrongly_typed_sample_count_rejected(self, world, samples):
        message = f"samples_per_problem must be an integer >= 1, got {samples!r}"
        with pytest.raises(ManifestError, match=re.escape(message)):
            RunManifest.from_dict({**make_manifest(world).to_dict(), "samples_per_problem": samples})

    def test_duplicate_labels_rejected(self, world):
        arm = ArmSpec(label="same", base=str(world / "base.json"))
        with pytest.raises(ManifestError, match="unique"):
            make_manifest(world, arms=(arm, arm))

    def test_dict_round_trip(self, world):
        manifest = make_manifest(world)
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_unknown_field_rejected(self):
        with pytest.raises(ManifestError, match="extra"):
            RunManifest.from_dict(
                {"run_id": "r", "dataset": "d", "arms": [], "extra": 1}
            )

    @pytest.mark.parametrize(
        "cls, data, missing",
        [
            (RunManifest, {"run_id": "r", "arms": []}, "dataset"),
            (ArmSpec, {"label": "a"}, "base"),
        ],
        ids=["manifest", "arm"],
    )
    def test_missing_field_rejected(self, cls, data, missing):
        with pytest.raises(ManifestError, match=f"missing field '{missing}'"):
            cls.from_dict(data)

    def test_load_resolves_relative_paths_against_manifest_dir(self, tmp_path):
        nested = tmp_path / "nested"
        nested.mkdir()
        manifest = RunManifest(
            run_id="r",
            dataset="data.jsonl",
            arms=(
                ArmSpec(
                    label="a",
                    base="models/base.json",
                    expert="tcp:127.0.0.1:9000",
                    expert_base="/abs/eb.json",
                    vocab="vocab.json",
                ),
            ),
        )
        manifest.save(nested / "manifest.json")
        loaded = RunManifest.load(nested / "manifest.json")
        arm = loaded.arms[0]
        assert loaded.dataset == str(nested / "data.jsonl")
        assert arm.base == str(nested / "models/base.json")
        assert arm.vocab == str(nested / "vocab.json")
        # Endpoints and already-absolute paths pass through untouched.
        assert arm.expert == "tcp:127.0.0.1:9000"
        assert arm.expert_base == "/abs/eb.json"

    def test_resolved_against_explicit_base(self):
        manifest = RunManifest(
            run_id="r",
            dataset="data.jsonl",
            arms=(ArmSpec(label="a", base="base.json", vocab="stdio: echo hi"),),
        )
        resolved = manifest.resolved(base="/srv/run")
        assert resolved.dataset == "/srv/run/data.jsonl"
        assert resolved.arms[0].base == "/srv/run/base.json"
        assert resolved.arms[0].vocab == "stdio: echo hi"

    def test_resolved_is_idempotent(self, world):
        manifest = make_manifest(world)
        assert manifest.resolved() == manifest.resolved().resolved()

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError, match="not valid JSON"):
            RunManifest.load(path)

    def test_load_rejects_overlong_integer(self, tmp_path):
        """An integer past ``int``'s 4300-digit limit is not valid JSON here."""
        path = tmp_path / "manifest.json"
        path.write_text('{"samples_per_problem": %s}' % ("9" * 5000))
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: not valid JSON: Exceeds"):
            RunManifest.load(path)

    def test_save_failing_part_way_keeps_the_previous_file(self, world, tmp_path, monkeypatch):
        path = tmp_path / "manifest.json"
        make_manifest(world).save(path)
        monkeypatch.setattr(os, "write", torn_write)
        with pytest.raises(OSError, match="disk full"):
            make_manifest(world, run_id="other").save(path)
        monkeypatch.undo()
        assert RunManifest.load(path) == make_manifest(world)


class TestWriteAtomic:
    def test_failed_write_keeps_the_old_file_and_leaves_no_tmp(self, tmp_path, monkeypatch):
        path = tmp_path / "file.jsonl"
        harness._write_atomic(path, "old\n")
        monkeypatch.setattr(os, "write", torn_write)
        with pytest.raises(OSError, match="disk full"):
            harness._write_atomic(path, "new ü\n" * 1000)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.jsonl"]

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        # A write may take fewer bytes than it was given; the rest follow.
        text = "".join(f"line {i} ü\n" for i in range(500))
        monkeypatch.setattr(os, "write", lambda fd, data: _os_write(fd, bytes(data[:7])))
        harness._write_atomic(tmp_path / "file.jsonl", text)
        monkeypatch.undo()
        assert (tmp_path / "file.jsonl").read_bytes() == text.encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.jsonl"]

    def test_records_failing_mid_save_keep_the_previous_file(self, world, tmp_path, monkeypatch):
        # The rerun reuses every line and writes records.jsonl, whose ground
        # truth changed; that write tears, and the arm degrades.
        out = tmp_path / "out"
        data = tmp_path / "data.jsonl"
        data.write_text((world / "data.jsonl").read_text().replace('"answer": "7"', '"answer": "1"'))
        run_campaign(make_manifest(world), out)
        records = (out / "arms/guided/records.jsonl").read_bytes()

        def torn_records(fd, data):
            return (torn_write if b'"ground_truth"' in bytes(data) else _os_write)(fd, data)

        monkeypatch.setattr(os, "write", torn_records)
        summary = run_campaign(make_manifest(world, arms=make_manifest(world).arms[1:], dataset=str(data)), out)
        monkeypatch.undo()
        assert summary["arms"]["guided"]["error"] == "OSError: disk full"
        assert (out / "arms/guided/records.jsonl").read_bytes() == records
        assert not list(out.rglob("*.tmp"))


class TestRunCampaign:
    def test_artifact_counts(self, world, tmp_path):
        # 2 problems x 3 samples on the guided arm, 2 x 1 on the base arm.
        out = tmp_path / "out"
        summary = run_campaign(make_manifest(world), out)
        assert summary["run_id"] == "demo"
        assert summary["arms"]["base"]["trajectories"] == 2
        assert summary["arms"]["guided"]["trajectories"] == 6
        base_files = sorted((out / "arms/base/problems").glob("*.jsonl"))
        guided_files = sorted((out / "arms/guided/problems").glob("*.jsonl"))
        assert [p.name for p in base_files] == ["0.jsonl", "1.jsonl"]
        assert [p.name for p in guided_files] == ["0.jsonl", "1.jsonl"]
        for path in base_files:
            assert len(path.read_text().splitlines()) == 1
        for path in guided_files:
            assert len(path.read_text().splitlines()) == 3

    def test_summary_file_matches_return_value(self, world, tmp_path):
        out = tmp_path / "out"
        summary = run_campaign(make_manifest(world), out)
        assert json.loads((out / "summary.json").read_text()) == summary
        log = json.loads((out / "run_log.json").read_text())
        assert set(log["wall_clock_seconds"]) == {"base", "guided"}

    def test_run_log_counts_decoded_and_reused_cells(self, world, tmp_path):
        # At V=5 an arm's missing cells decode in lockstep across its
        # problems: the base arm's two one-sample problems as one 2-row
        # block, the guided arm's three per problem as one 6-row block.
        out = tmp_path / "out"
        manifest = make_manifest(world)
        run_campaign(manifest, out)
        before = walk_bytes(out)

        def counts():
            log = json.loads((out / "run_log.json").read_text())
            keys = ("cells_decoded", "cells_lockstep", "cells_reused")
            return {arm: tuple(log[key][arm] for key in keys) for arm in ("base", "guided")}

        assert counts() == {"base": (2, 2, 0), "guided": (6, 6, 0)}
        # Drop one line: its cell is the only one missing, so it decodes alone.
        victim = out / "arms/guided/problems/0.jsonl"
        victim.write_text("".join(line + "\n" for line in victim.read_text().splitlines()[1:]))
        run_campaign(manifest, out)
        assert counts() == {"base": (0, 0, 2), "guided": (1, 0, 5)}
        assert walk_bytes(out) == before

    def test_run_log_counts_tokens_and_degraded_reason(self, world, tmp_path):
        arms = (
            *make_manifest(world).arms,
            ArmSpec(label="broken", base=str(world / "missing.json"), config=GREEDY),
        )
        manifest = make_manifest(world, arms=arms)
        out = tmp_path / "out"
        summary = run_campaign(manifest, out)

        def log(key):
            return json.loads((out / "run_log.json").read_text())[key]

        def tokens(arm, name=None):
            return sum(
                len(json.loads(line)["tokens"])
                for file, lines in problem_lines(out, arm).items()
                if name in (None, file)
                for line in lines
            )

        assert log("tokens") == {"base": tokens("base"), "guided": tokens("guided"), "broken": 0}
        assert log("degraded") == {"base": None, "guided": None, "broken": summary["arms"]["broken"]["error"]}
        assert "FileNotFoundError" in log("degraded")["broken"]
        # A resume counts only the tokens of the cells it decodes again.
        victim = out / "arms/guided/problems/1.jsonl"
        lines = victim.read_text().splitlines()
        victim.write_text(lines[1] + "\n")
        run_campaign(manifest, out)
        regenerated = [json.loads(line) for i, line in enumerate(lines) if i != 1]
        assert log("tokens") == {
            "base": 0, "guided": sum(len(row["tokens"]) for row in regenerated), "broken": 0
        }
        assert log("degraded")["guided"] is None

    def test_unencodable_prompt_degrades_after_the_problems_before_it(self, world, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text((world / "data.jsonl").read_text() + '{"prompt": "9 1", "answer": "2"}\n')
        healthy = tmp_path / "healthy"
        run_campaign(make_manifest(world), healthy)
        out = tmp_path / "out"
        summary = run_campaign(make_manifest(world, dataset=str(data)), out)
        for arm in ("base", "guided"):
            assert summary["arms"][arm]["error"] == "CorpusIngestionError: token 1: '9' not in vocabulary"
            assert problem_lines(out, arm) == problem_lines(healthy, arm)

    def test_greedy_arm_accuracy_is_exact(self, world, tmp_path):
        # Greedy cycle answers "3" (correct) and "1" (truth is "7").
        summary = run_campaign(make_manifest(world), tmp_path / "out")
        assert summary["arms"]["base"]["accuracy"] == 0.5
        assert summary["arms"]["base"]["stddev_over_samples"] == 0.0
        assert summary["arms"]["base"]["degraded"] is False

    def test_greedy_trajectory_content(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        rows = [
            json.loads(line)
            for line in (out / "arms/base/problems/0.jsonl").read_text().splitlines()
        ]
        # Vocab order is first-seen: "1"=0, "2"=1, "3"=2; prompt "1 2" then
        # the greedy walk 3,1,2,3 cut off by max_tokens=4.
        assert rows[0]["prompt_tokens"] == [0, 1]
        assert rows[0]["tokens"] == [2, 0, 1, 2]
        assert rows[0]["stop_reason"] == "max_tokens"
        assert rows[0]["extracted_answer"] == "3"

    def test_trajectory_lines_are_canonical_json(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        for path in (out / "arms").rglob("*.jsonl"):
            if path.parent.name != "problems":
                continue
            for line in path.read_text().splitlines():
                row = json.loads(line)
                assert line == json.dumps(row, sort_keys=True, separators=(",", ":"))

    def test_trajectory_line_fields(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        base_row = json.loads(
            (out / "arms/base/problems/0.jsonl").read_text().splitlines()[0]
        )
        assert set(base_row) == {
            "extracted_answer",
            "logprobs",
            "prompt_tokens",
            "sample_index",
            "stop_reason",
            "tokens",
        }
        guided_row = json.loads(
            (out / "arms/guided/problems/0.jsonl").read_text().splitlines()[0]
        )
        # The guided arm asked for kl instrumentation, one value per step.
        assert "kl" in guided_row
        assert len(guided_row["kl"]) == len(guided_row["tokens"])
        assert all(k >= 0.0 for k in guided_row["kl"])

    def test_sample_indexes_are_ordered(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        for path in (out / "arms/guided/problems").glob("*.jsonl"):
            indexes = [json.loads(l)["sample_index"] for l in path.read_text().splitlines()]
            assert indexes == [0, 1, 2]

    def test_rerun_is_idempotent(self, world, tmp_path):
        out = tmp_path / "out"
        manifest = make_manifest(world)
        run_campaign(manifest, out)
        before = walk_bytes(out)
        run_campaign(manifest, out)
        assert walk_bytes(out) == before

    def test_fresh_directories_agree_byte_for_byte(self, world, tmp_path):
        manifest = make_manifest(world)
        run_campaign(manifest, tmp_path / "a")
        run_campaign(manifest, tmp_path / "b")
        assert walk_bytes(tmp_path / "a") == walk_bytes(tmp_path / "b")

    def test_resume_regenerates_only_missing_samples(self, world, tmp_path):
        out = tmp_path / "out"
        manifest = make_manifest(world)
        run_campaign(manifest, out)
        before = walk_bytes(out)
        # Tear out one sample plus the aggregates, then resume.
        victim = out / "arms/guided/problems/1.jsonl"
        kept = [
            line
            for line in victim.read_text().splitlines()
            if json.loads(line)["sample_index"] != 1
        ]
        victim.write_text("".join(line + "\n" for line in kept))
        (out / "arms/guided/records.jsonl").unlink()
        (out / "summary.json").unlink()
        run_campaign(manifest, out)
        assert walk_bytes(out) == before

    def test_resume_from_saved_manifest(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        before = walk_bytes(out)
        (out / "summary.json").unlink()
        resumed = RunManifest.load(out / "manifest.json")
        run_campaign(resumed, out)
        assert walk_bytes(out) == before

    def test_torn_lines_are_regenerated(self, world, tmp_path):
        out = tmp_path / "out"
        manifest = make_manifest(world)
        run_campaign(manifest, out)
        before = walk_bytes(out)
        victim = out / "arms/guided/problems/0.jsonl"
        with victim.open("a") as handle:
            handle.write('{"sample_index": 1, "tokens": [')  # torn write
        run_campaign(manifest, out)
        assert walk_bytes(out) == before

    @pytest.mark.parametrize(
        "damage",
        [
            lambda row: {"sample_index": row["sample_index"]},
            lambda row: {**row, "logprobs": row["logprobs"] + [0.0]},
            lambda row: {k: v for k, v in row.items() if k != "extracted_answer"},
        ],
        ids=["index-only", "extra-logprob", "no-answer"],
    )
    def test_non_trajectory_lines_are_regenerated(self, world, tmp_path, damage):
        manifest = make_manifest(world)
        run_campaign(manifest, tmp_path / "fresh")
        out = tmp_path / "out"
        run_campaign(manifest, out)
        victim = out / "arms/guided/problems/0.jsonl"
        first, *rest = victim.read_text().splitlines()
        victim.write_text(
            "".join(line + "\n" for line in [json.dumps(damage(json.loads(first))), *rest])
        )
        run_campaign(manifest, out)
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")

    @pytest.mark.parametrize("damage", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_mistyped_lines_are_regenerated(self, world, tmp_path, damage):
        manifest = make_manifest(world)
        run_campaign(manifest, tmp_path / "fresh")
        out = tmp_path / "out"
        run_campaign(manifest, out)
        victim = out / "arms/guided/problems/0.jsonl"
        assert json.loads(victim.read_text().splitlines()[1])["sample_index"] == 1
        damage_line(victim, 2, damage)
        run_campaign(manifest, out)
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")
        # Two problems of three samples: every line but the damaged one is reused.
        run_log = json.loads((out / "run_log.json").read_text())
        assert (run_log["cells_reused"]["guided"], run_log["cells_decoded"]["guided"]) == (5, 1)

    @pytest.mark.parametrize("damage", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_ids_are_regenerated(self, world, tmp_path, damage):
        manifest = make_manifest(world)
        run_campaign(manifest, tmp_path / "fresh")
        out = tmp_path / "out"
        run_campaign(manifest, out)
        damage_line(out / "arms/guided/problems/0.jsonl", 2, damage)
        run_campaign(manifest, out)
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")
        run_log = json.loads((out / "run_log.json").read_text())
        assert (run_log["cells_reused"]["guided"], run_log["cells_decoded"]["guided"]) == (5, 1)

    @pytest.mark.parametrize("name, damage", FOREIGN.values(), ids=FOREIGN.keys())
    def test_lines_the_arm_could_not_write_are_regenerated(self, world, tmp_path, name, damage):
        manifest = make_manifest(world)
        run_campaign(manifest, tmp_path / "fresh")
        out = tmp_path / "out"
        run_campaign(manifest, out)
        damage_line(out / "arms/guided/problems" / name, 2, damage)
        run_campaign(manifest, out)
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")
        run_log = json.loads((out / "run_log.json").read_text())
        assert (run_log["cells_reused"]["guided"], run_log["cells_decoded"]["guided"]) == (5, 1)

    def test_decoding_builds_no_step_records(self, world, tmp_path, monkeypatch):
        """A trajectory stores its columns: a one-row decode, a lockstep
        block and a campaign build no StepRecord; reading ``generated`` does."""
        made = []
        record = decoder.StepRecord
        monkeypatch.setattr(decoder, "StepRecord", lambda *step: made.append(step) or record(*step))
        scorers = [load_scorer(world / f"{role}.json") for role in ("base", "expert", "expert_base")]
        prompt = encode_text("1 2", scorers[0].vocab)
        one = decode(*scorers, prompt=prompt, config=SAMPLED, instrument=("kl",))
        rows = decoder._decode_lockstep(
            *scorers, prompts=[prompt] * 4, config=SAMPLED, seeds=[1, 2, 3, 4], instrument=("kl",)
        )
        assert len(list(rows)) == 4
        run_campaign(make_manifest(world), tmp_path / "out")
        assert made == []
        assert len(one.generated) == len(made) == len(one.tokens) > 0

    def test_rows_sharing_a_prompt_share_its_check_and_ids(self, world, monkeypatch):
        # A campaign hands every missing cell of a problem the same prompt
        # object: it is checked once, and its rows hold one id tuple.
        checked = []
        check = decoder._prompt_prefix
        monkeypatch.setattr(
            decoder, "_prompt_prefix", lambda size, prompt: checked.append(prompt) or check(size, prompt)
        )
        scorers = [load_scorer(world / f"{role}.json") for role in ("base", "expert", "expert_base")]
        shared, other = encode_text("1 2", scorers[0].vocab), encode_text("2 3", scorers[0].vocab)
        prompts = [shared, other, shared, shared]
        rows = dict(decoder._decode_lockstep(*scorers, prompts=prompts, config=SAMPLED, seeds=[1, 2, 3, 4]))
        assert [id(prompt) for prompt in checked] == [id(shared), id(other)]
        assert rows[0].prompt_tokens is rows[2].prompt_tokens is rows[3].prompt_tokens
        assert (rows[0].prompt_tokens, rows[1].prompt_tokens) == (tuple(shared), tuple(other))

    def test_records_round_trip_and_predictions(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        records = load_records(out / "arms/base/records.jsonl")
        assert [r.problem_id for r in records] == ["0", "1"]
        assert records[0].predictions == ("3",)
        assert records[0].correct == (True,)
        assert records[1].correct == (False,)

    def test_summary_stddev_matches_per_sample_accuracies(self, world, tmp_path):
        out = tmp_path / "out"
        summary = run_campaign(make_manifest(world), out)
        records = load_records(out / "arms/guided/records.jsonl")
        matrix = np.array([r.correct for r in records], dtype=np.float64)
        expected = float(matrix.mean(axis=0).std(ddof=0))
        assert summary["arms"]["guided"]["stddev_over_samples"] == expected

    def test_missing_scorer_degrades_only_its_arm(self, world, tmp_path):
        arms = (
            ArmSpec(label="ok", base=str(world / "base.json"), config=GREEDY),
            ArmSpec(label="broken", base=str(world / "missing.json"), config=GREEDY),
        )
        summary = run_campaign(
            make_manifest(world, arms=arms, samples_per_problem=1), tmp_path / "out"
        )
        assert summary["arms"]["ok"]["degraded"] is False
        assert summary["arms"]["ok"]["accuracy"] == 0.5
        assert summary["arms"]["broken"]["degraded"] is True
        assert "FileNotFoundError" in summary["arms"]["broken"]["error"]

    def test_remote_arm_without_vocab_degrades(self, world, tmp_path):
        arms = (
            ArmSpec(label="remote", base="tcp:127.0.0.1:1", config=GREEDY),
        )
        summary = run_campaign(
            make_manifest(world, arms=arms, samples_per_problem=1), tmp_path / "out"
        )
        assert summary["arms"]["remote"]["degraded"] is True
        assert "needs a local vocab" in summary["arms"]["remote"]["error"]

    def test_tcp_arm_closes_its_connections(self, world, tmp_path):
        # An unclosed socket surfaces as an unraisable ResourceWarning when
        # it is collected, which the suite's warning filters make an error.
        scorer = load_scorer(world / "base.json")
        save_vocab(scorer.vocab, tmp_path / "vocab.txt")
        with StubServer(scorer) as server:
            arms = (
                ArmSpec(
                    label="remote", base=f"tcp:{server.host}:{server.port}",
                    vocab=str(tmp_path / "vocab.txt"), config=GREEDY,
                ),
                # Degraded after its base connected: the expert is missing.
                ArmSpec(
                    label="half", base=f"tcp:localhost:{server.port}",
                    expert=str(world / "missing.json"), expert_base=str(world / "missing.json"),
                    vocab=str(tmp_path / "vocab.txt"), config=GREEDY,
                ),
            )
            summary = run_campaign(
                make_manifest(world, arms=arms, samples_per_problem=1), tmp_path / "out"
            )
            gc.collect()
        assert summary["arms"]["remote"]["accuracy"] == 0.5
        assert summary["arms"]["half"]["degraded"] is True

    def test_remote_vocab_mismatch_degrades_and_closes(self, world, tmp_path):
        (tmp_path / "short.txt").write_text("1\n2\n", encoding="utf-8")
        with StubServer(load_scorer(world / "base.json")) as server:
            arms = (
                ArmSpec(
                    label="remote", base=f"tcp:{server.host}:{server.port}",
                    vocab=str(tmp_path / "short.txt"), config=GREEDY,
                ),
            )
            summary = run_campaign(
                make_manifest(world, arms=arms, samples_per_problem=1), tmp_path / "out"
            )
            gc.collect()
        assert "VocabularyMismatchError" in summary["arms"]["remote"]["error"]

    def test_arms_sharing_an_endpoint_keep_their_vocab_check(self, world, tmp_path):
        # Arm b names the endpoint arm a connected with a 4-id vocab file:
        # it gets its own connection and fails its size check, and arm a's
        # connection, which b must not reuse, is closed at the end too.
        scorer = load_scorer(world / "base.json")
        save_vocab(scorer.vocab, tmp_path / "vocab.txt")
        (tmp_path / "short.txt").write_text("1\n2\n", encoding="utf-8")
        with StubServer(scorer) as server:
            endpoint = f"tcp:{server.host}:{server.port}"
            arms = (
                ArmSpec(label="a", base=endpoint, vocab=str(tmp_path / "vocab.txt"), config=GREEDY),
                ArmSpec(label="b", base=endpoint, vocab=str(tmp_path / "short.txt"), config=GREEDY),
            )
            summary = run_campaign(
                make_manifest(world, arms=arms, samples_per_problem=1), tmp_path / "out"
            )
            gc.collect()
        assert summary["arms"]["a"]["degraded"] is False
        assert summary["arms"]["a"]["accuracy"] == 0.5
        assert summary["arms"]["b"]["degraded"] is True
        assert summary["arms"]["b"]["error"] == (
            "VocabularyMismatchError: server vocab size 5 != local vocabulary size 4"
        )

    def test_stdio_arm_reaps_its_server(self, world, tmp_path, monkeypatch):
        started = []
        real_popen = subprocess.Popen

        def popen(*args, **kwargs):
            started.append(real_popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", popen)
        save_vocab(load_scorer(world / "base.json").vocab, tmp_path / "vocab.txt")
        command = shlex.join(
            [sys.executable, "-m", "deltadecode.cli", "serve-stub",
             "--model", str(world / "base.json"), "--stdio"]
        )
        arms = (
            ArmSpec(
                label="remote", base=f"stdio:{command}",
                vocab=str(tmp_path / "vocab.txt"), config=GREEDY,
            ),
        )
        try:
            summary = run_campaign(
                make_manifest(world, arms=arms, samples_per_problem=1), tmp_path / "out"
            )
            assert summary["arms"]["remote"]["accuracy"] == 0.5
            assert len(started) == 1
            assert started[0].poll() is not None
        finally:
            for process in started:
                if process.poll() is None:
                    process.kill()
                    process.wait()

    def test_problem_id_sanitizing_keeps_files_distinct(self, world, tmp_path):
        # "p/1" sanitizes to "p_1", colliding with the literal id "p_1";
        # the second claimant gets a hash suffix.
        data = tmp_path / "collide.jsonl"
        data.write_text(
            '{"id": "p/1", "prompt": "1 2", "answer": "3"}\n'
            '{"id": "p_1", "prompt": "2 3", "answer": "1"}\n'
        )
        out = tmp_path / "out"
        manifest = make_manifest(
            world,
            dataset=str(data),
            samples_per_problem=1,
            arms=(ArmSpec(label="base", base=str(world / "base.json"), config=GREEDY),),
        )
        summary = run_campaign(manifest, out)
        assert summary["arms"]["base"]["degraded"] is False
        names = sorted(p.name for p in (out / "arms/base/problems").glob("*.jsonl"))
        assert names[1] == "p_1.jsonl"
        assert re.fullmatch(r"p_1-[0-9a-f]{8}\.jsonl", names[0])
        records = load_records(out / "arms/base/records.jsonl")
        assert [r.problem_id for r in records] == ["p/1", "p_1"]


def guided_arm(world, label="guided", **changes):
    fields = dict(
        base=str(world / "base.json"),
        expert=str(world / "expert.json"),
        expert_base=str(world / "expert_base.json"),
        config=SAMPLED,
        instrument=("kl",),
    )
    return ArmSpec(label=label, **{**fields, **changes})


def problem_lines(out, arm):
    return {
        path.name: path.read_text().splitlines()
        for path in sorted((out / "arms" / arm / "problems").glob("*.jsonl"))
    }


class FailingScorer(Scorer):
    """Delegates to ``inner`` and raises on its ``fail_at``-th ``score``
    call; the default ``_score_window`` loops ``score``, so the failure lands
    partway through a block."""

    kind = "failing"

    def __init__(self, inner, fail_at):
        super().__init__(inner.vocab, inner.name)
        self.inner, self.calls, self.fail_at = inner, 0, fail_at

    def score(self, prefix):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("scorer lost")
        return self.inner.score(prefix)


class TestLockstepCampaign:
    """An arm's missing samples decode in lockstep at this V=5 vocabulary,
    in blocks whose rows come from every problem; every line must be the
    line a per-cell ``decode`` of its cell gives."""

    SAMPLES = 8

    def manifest(self, world, *arms):
        return make_manifest(world, arms=arms or (guided_arm(world),), samples_per_problem=self.SAMPLES)

    def test_every_line_is_its_cell_decode(self, world, tmp_path):
        out = tmp_path / "out"
        manifest = self.manifest(world)
        run_campaign(manifest, out)
        arm = manifest.arms[0]
        scorers = [load_scorer(getattr(arm, role)) for role in ("base", "expert", "expert_base")]
        problems = ingest_dataset(manifest.dataset)
        files = problem_lines(out, "guided")
        assert sorted(files) == ["0.jsonl", "1.jsonl"]
        for problem in problems:
            lines = files[f"{problem['problem_id']}.jsonl"]
            assert len(lines) == self.SAMPLES
            prompt = encode_text(problem["input"], scorers[0].vocab)
            for index, line in enumerate(lines):
                seed = derive_seed(arm.config.seed, problem["problem_id"], index)
                trajectory = decode(
                    *scorers, prompt=prompt, config=arm.config.replace(seed=seed), instrument=("kl",)
                )
                row = json.loads(line)
                assert row.pop("sample_index") == index
                row.pop("extracted_answer")
                assert row == trajectory.to_dict()

    def test_lockstep_and_per_cell_trees_agree(self, world, tmp_path, monkeypatch):
        manifest = self.manifest(world)
        run_campaign(manifest, tmp_path / "lockstep")
        monkeypatch.setattr(harness, "_LOCKSTEP_MAX_VOCAB", 4)
        blocks = self.spy_blocks(monkeypatch)
        run_campaign(manifest, tmp_path / "per-cell")
        # Above the gate every cell is a block of one row.
        assert [len(seeds) for _, seeds in blocks] == [1] * 2 * self.SAMPLES
        assert walk_bytes(tmp_path / "lockstep") == walk_bytes(tmp_path / "per-cell")

    def test_resume_decodes_only_the_scattered_gaps(self, world, tmp_path, monkeypatch):
        manifest = self.manifest(world)
        run_campaign(manifest, tmp_path / "fresh")
        out = tmp_path / "out"
        run_campaign(manifest, out)
        victim = out / "arms/guided/problems/1.jsonl"
        dropped = [1, 4, 5, 7]
        victim.write_text(
            "".join(
                line + "\n"
                for line in victim.read_text().splitlines()
                if json.loads(line)["sample_index"] not in dropped
            )
        )
        seeds = []
        lockstep = harness._decode_lockstep

        def spy(*args, **kwargs):
            seeds.append(list(kwargs["seeds"]))
            return lockstep(*args, **kwargs)

        monkeypatch.setattr(harness, "_decode_lockstep", spy)
        run_campaign(manifest, out)
        assert seeds == [[derive_seed(SAMPLED.seed, "1", i) for i in dropped]]
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")
        log = json.loads((out / "run_log.json").read_text())
        assert [log[key]["guided"] for key in ("cells_decoded", "cells_lockstep", "cells_reused")] == [
            4, 4, 2 * self.SAMPLES - 4
        ]

    def spy_blocks(self, monkeypatch):
        blocks = []
        lockstep = harness._decode_lockstep

        def spy(*args, **kwargs):
            blocks.append(([list(p) for p in kwargs["prompts"]], list(kwargs["seeds"])))
            return lockstep(*args, **kwargs)

        monkeypatch.setattr(harness, "_decode_lockstep", spy)
        return blocks

    def drop(self, out, dropped):
        for name, indexes in dropped.items():
            victim = out / "arms/guided/problems" / name
            victim.write_text(
                "".join(
                    line + "\n"
                    for line in victim.read_text().splitlines()
                    if json.loads(line)["sample_index"] not in indexes
                )
            )

    def test_scattered_gaps_of_every_problem_decode_as_one_block(self, world, tmp_path, monkeypatch):
        manifest = self.manifest(world)
        run_campaign(manifest, tmp_path / "fresh")
        out = tmp_path / "out"
        run_campaign(manifest, out)
        dropped = {"0.jsonl": [0, 3, 6, 7], "1.jsonl": [1, 2, 5]}
        self.drop(out, dropped)
        blocks = self.spy_blocks(monkeypatch)
        run_campaign(manifest, out)
        assert len(blocks) == 1
        prompts, seeds = blocks[0]
        assert seeds == [
            derive_seed(SAMPLED.seed, pid, i) for pid in "01" for i in dropped[f"{pid}.jsonl"]
        ]
        assert prompts == [[0, 1]] * 4 + [[1, 2]] * 3
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")

    def test_complete_arm_decodes_no_block(self, world, tmp_path, monkeypatch):
        manifest = self.manifest(world)
        out = tmp_path / "out"
        run_campaign(manifest, out)
        before = walk_bytes(out)
        blocks = self.spy_blocks(monkeypatch)
        run_campaign(manifest, out)
        assert blocks == []
        assert walk_bytes(out) == before
        log = json.loads((out / "run_log.json").read_text())
        assert (log["cells_decoded"]["guided"], log["cells_reused"]["guided"]) == (0, 2 * self.SAMPLES)

    def test_a_written_file_keeps_only_its_answers(self, world, tmp_path, monkeypatch):
        # A problem's lines are dropped once its file is complete and
        # written, so an arm holds the lines of its unfinished problems only.
        files, held = [], []

        class Recorded(harness._ProblemFile):
            def __init__(self, *args):
                super().__init__(*args)
                files.append(self)

        line_of = harness._trajectory_line

        def spy(*args):
            done = [file for file in files if not file.missing]
            held.append((len(done), sum(len(file.lines) for file in done)))
            return line_of(*args)

        monkeypatch.setattr(harness, "_ProblemFile", Recorded)
        monkeypatch.setattr(harness, "_trajectory_line", spy)
        manifest = self.manifest(world)
        out = tmp_path / "out"
        run_campaign(manifest, out)
        self.drop(out, {"0.jsonl": [2, 5]})
        run_campaign(manifest, out)
        assert all(lines == 0 for _, lines in held)
        # The fresh run finishes a file before its last cell; at the
        # resume's last cell, problem 1's file (read complete) is done too,
        # beside the fresh run's two.
        assert held[2 * self.SAMPLES - 1][0] == 1 and held[-1][0] == 3
        assert len(files) == 4
        for file in files:
            assert file.lines == {} and sorted(file.answers) == list(range(self.SAMPLES))

    @pytest.mark.parametrize(
        "samples, fresh, dropped, resumed",
        [
            # At most 55 // (5 + 6) = 5 rows of V=5 and 6 tokens per block: 8
            # cells make two blocks of four, and a resume's 6 cells two
            # blocks of three, the second holding cells of both problems.
            (4, [4, 4], {"0.jsonl": [0, 1, 2, 3], "1.jsonl": [1, 3]}, [3, 3]),
            # A block never holds fewer rows than a problem has samples: 16
            # cells make two blocks of eight, and a resume's 7 cells one.
            (8, [8, 8], {"0.jsonl": [1, 4, 5, 7], "1.jsonl": [0, 6, 7]}, [7]),
        ],
    )
    def test_blocks_split_by_the_entry_bound(
        self, world, tmp_path, monkeypatch, samples, fresh, dropped, resumed
    ):
        manifest = make_manifest(world, arms=(guided_arm(world),), samples_per_problem=samples)
        run_campaign(manifest, tmp_path / "fresh")
        blocks = self.spy_blocks(monkeypatch)
        monkeypatch.setattr(harness, "_LOCKSTEP_BLOCK_ENTRIES", 55)
        out = tmp_path / "out"
        run_campaign(manifest, out)
        assert [len(seeds) for _, seeds in blocks] == fresh
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")
        blocks.clear()
        self.drop(out, dropped)
        run_campaign(manifest, out)
        assert [len(seeds) for _, seeds in blocks] == resumed
        assert [seed for _, seeds in blocks for seed in seeds] == [
            derive_seed(SAMPLED.seed, pid, i) for pid in "01" for i in dropped[f"{pid}.jsonl"]
        ]
        assert walk_bytes(out) == walk_bytes(tmp_path / "fresh")

    def test_remote_arm_decodes_per_cell_on_one_session(self, world, tmp_path, monkeypatch):
        # Lockstep rows would take turns on the one session, so each request
        # would re-send its row's generated suffix; per cell, each request
        # after a cell's first sends the one id the last step added.
        sent = []
        step = StubSession.step
        monkeypatch.setattr(
            StubSession, "step", lambda self, frame: sent.append(len(frame["tokens"])) or step(self, frame)
        )
        blocks = []
        lockstep = harness._decode_lockstep
        monkeypatch.setattr(
            harness,
            "_decode_lockstep",
            lambda base, *a, **k: blocks.append((base.kind, len(k["seeds"]))) or lockstep(base, *a, **k),
        )
        connects = []
        connect = harness.connect_endpoint
        monkeypatch.setattr(harness, "connect_endpoint", lambda spec: connects.append(spec) or connect(spec))
        server_scorer = load_scorer(world / "base.json")
        save_vocab(server_scorer.vocab, tmp_path / "vocab.txt")
        with StubServer(server_scorer) as server:
            remote = guided_arm(
                world, "remote", base=f"tcp:{server.host}:{server.port}", vocab=str(tmp_path / "vocab.txt")
            )
            summary = run_campaign(self.manifest(world, guided_arm(world), remote), tmp_path / "out")
            gc.collect()
        assert summary["arms"]["remote"]["degraded"] is False
        assert len(connects) == 1
        # One block for the in-process arm's two problems, then one row
        # per block for the remote arm.
        assert blocks == [("ngram", 2 * self.SAMPLES)] + [("remote", 1)] * 2 * self.SAMPLES
        # Only a problem's first request sends more than one id: its
        # two-id prompt. A later cell's first request shares the prompt
        # with the cell before and sends none.
        assert sorted(sent)[-3:] == [1, 2, 2]
        assert sum(sent) <= len(sent)
        assert problem_lines(tmp_path / "out", "remote") == problem_lines(tmp_path / "out", "guided")

    def test_run_log_counts_each_arms_remote_traffic(self, world, tmp_path, monkeypatch):
        # Two arms share one cached connection; each counts only the frames
        # its own cells cost: one request per generated token.
        frames = []
        step = StubSession.step
        monkeypatch.setattr(StubSession, "step", lambda self, frame: frames.append(frame) or step(self, frame))
        server_scorer = load_scorer(world / "base.json")
        save_vocab(server_scorer.vocab, tmp_path / "vocab.txt")
        nbytes = 8 * server_scorer.vocab.size
        remote_keys = ("remote_requests", "remote_bytes_sent", "remote_bytes_received", "late_frames")
        out = tmp_path / "out"
        with StubServer(server_scorer) as server:
            remote = dict(base=f"tcp:{server.host}:{server.port}", vocab=str(tmp_path / "vocab.txt"))
            manifest = self.manifest(
                world, guided_arm(world), guided_arm(world, "first", **remote), guided_arm(world, "second", **remote)
            )
            run_campaign(manifest, out)
            log = json.loads((out / "run_log.json").read_text())
            for label in ("first", "second"):
                arm_frames, frames[:] = frames[: log["tokens"][label]], frames[log["tokens"][label] :]
                assert log["remote_requests"][label] == len(arm_frames) == log["tokens"][label] > 0
                assert log["remote_bytes_sent"][label] == sum(
                    len(json.dumps(frame, separators=(",", ":"))) + 1 for frame in arm_frames
                )
                header = '{"type":"logits","id":%d,"nbytes":%d}\n'
                assert log["remote_bytes_received"][label] == sum(
                    len(header % (frame["id"], nbytes)) + nbytes for frame in arm_frames
                )
            assert not frames
            assert log["late_frames"] == {"guided": 0, "first": 0, "second": 0}
            assert all(log[key]["guided"] == 0 for key in remote_keys)
            # A rerun reuses every line and sends nothing.
            run_campaign(manifest, out)
            log = json.loads((out / "run_log.json").read_text())
            gc.collect()
        assert all(log[key] == {"guided": 0, "first": 0, "second": 0} for key in remote_keys)
        assert not frames

    def test_failure_keeps_finished_lines_and_reruns_to_the_healthy_tree(
        self, world, tmp_path, monkeypatch
    ):
        manifest = self.manifest(world)
        healthy = tmp_path / "healthy"
        run_campaign(manifest, healthy)
        healthy_lines = problem_lines(healthy, "guided")
        # The block's sixteen rows (eight per problem) take expert calls
        # 1-16 at step 0, and the rows still going take the next ones; call
        # 20 falls inside step 1's block, after some rows have stopped.
        load = harness.load_scorer
        monkeypatch.setattr(
            harness,
            "load_scorer",
            lambda path: FailingScorer(load(path), 20) if path.endswith("/expert.json") else load(path),
        )
        out = tmp_path / "out"
        summary = run_campaign(manifest, out)
        monkeypatch.undo()
        assert summary["arms"]["guided"]["degraded"] is True
        error = summary["arms"]["guided"]["error"]
        assert re.fullmatch(r"DecodeError: scorer 'expert \(ngram\)' failed at step \d+: scorer lost", error)
        left = problem_lines(out, "guided")
        assert list(left) == ["0.jsonl"] and 0 < len(left["0.jsonl"]) < self.SAMPLES
        assert set(left["0.jsonl"]) <= set(healthy_lines["0.jsonl"])
        run_campaign(manifest, out)
        assert walk_bytes(out) == walk_bytes(healthy)


    def test_failure_keeps_finished_lines_of_every_problem(self, world, tmp_path, monkeypatch):
        # Call 56 falls late enough in the one block that rows of both
        # problems have stopped, and neither problem is complete.
        manifest = self.manifest(world)
        healthy = tmp_path / "healthy"
        run_campaign(manifest, healthy)
        load = harness.load_scorer
        monkeypatch.setattr(
            harness,
            "load_scorer",
            lambda path: FailingScorer(load(path), 56) if path.endswith("/expert.json") else load(path),
        )
        out = tmp_path / "out"
        assert run_campaign(manifest, out)["arms"]["guided"]["degraded"] is True
        monkeypatch.undo()
        left, whole = problem_lines(out, "guided"), problem_lines(healthy, "guided")
        assert list(left) == ["0.jsonl", "1.jsonl"]
        for name, lines in left.items():
            assert 0 < len(lines) < self.SAMPLES
            assert set(lines) <= set(whole[name])
        run_campaign(manifest, out)
        assert walk_bytes(out) == walk_bytes(healthy)

class TestLoadCampaignTrajectories:
    def test_round_trip(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        trajectories = load_campaign_trajectories(out, "guided")
        assert len(trajectories) == 6
        for trajectory in trajectories:
            assert trajectory.prompt_tokens in ((0, 1), (1, 2))
            assert trajectory.stop_reason in ("eos", "max_tokens")
            assert trajectory.config_snapshot == SAMPLED
            assert all(step.kl_base_vs_combined is not None for step in trajectory.generated)

    def test_uninstrumented_arm_has_no_kl(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        trajectories = load_campaign_trajectories(out, "base")
        assert all(
            step.kl_base_vs_combined is None
            for trajectory in trajectories
            for step in trajectory.generated
        )

    def test_matches_problem_file_contents(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        first = json.loads((out / "arms/base/problems/0.jsonl").read_text().splitlines()[0])
        trajectory = load_campaign_trajectories(out, "base")[0]
        assert list(trajectory.tokens) == first["tokens"]
        assert [s.chosen_logprob for s in trajectory.generated] == first["logprobs"]

    def test_unknown_arm_rejected(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        with pytest.raises(ManifestError, match="no arm labeled"):
            load_campaign_trajectories(out, "nope")

    def test_malformed_line_names_location(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        victim = out / "arms/base/problems/0.jsonl"
        victim.write_text('{"sample_index": 0}\n')
        with pytest.raises(ManifestError, match="line 1"):
            load_campaign_trajectories(out, "base")

    @pytest.mark.parametrize("damage", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_mistyped_line_names_location(self, world, tmp_path, damage):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        damage_line(out / "arms/guided/problems/0.jsonl", 2, damage)
        with pytest.raises(ManifestError, match=r"0\.jsonl: line 2: malformed trajectory: "):
            load_campaign_trajectories(out, "guided")

    @pytest.mark.parametrize(
        "index, problem",
        [(7, r"outside \[0, 3\)"), (-1, r"outside \[0, 3\)"), (0, "repeated")],
        ids=["past-samples", "negative", "repeated"],
    )
    def test_out_of_place_sample_index_names_location(self, world, tmp_path, index, problem):
        manifest = make_manifest(world)
        out = tmp_path / "out"
        run_campaign(manifest, out)
        victim = out / "arms/guided/problems/0.jsonl"
        row = json.loads(victim.read_text().splitlines()[0])
        with victim.open("a") as handle:
            handle.write(json.dumps({**row, "sample_index": index}) + "\n")
        with pytest.raises(ManifestError, match=rf"0\.jsonl: line 4: sample_index {index} is {problem}"):
            load_campaign_trajectories(out, "guided")
        # A resume drops the line, and the loader then reads every sample.
        run_campaign(manifest, out)
        assert len(load_campaign_trajectories(out, "guided")) == 6

    def test_line_past_max_tokens_names_location(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        damage_line(out / "arms/guided/problems/0.jsonl", 2, FOREIGN["past-max-tokens"][1])
        with pytest.raises(ManifestError, match=r"0\.jsonl: line 2: 8 generated ids, outside \[1, 6\]"):
            load_campaign_trajectories(out, "guided")

    def test_unequal_lengths_rejected_not_truncated(self, world, tmp_path):
        out = tmp_path / "out"
        run_campaign(make_manifest(world), out)
        victim = out / "arms/base/problems/0.jsonl"
        row = json.loads(victim.read_text())
        assert len(row["tokens"]) == 4
        row["logprobs"] = row["logprobs"][:1]
        victim.write_text(json.dumps(row) + "\n")
        with pytest.raises(ManifestError, match=r"0\.jsonl: line 1: .*4 tokens, 1 logprobs"):
            load_campaign_trajectories(out, "base")


class TestSweep:
    def sampled_arms(self, world):
        return (
            ArmSpec(label="base", base=str(world / "base.json"), config=SAMPLED),
            ArmSpec(
                label="guided",
                base=str(world / "base.json"),
                expert=str(world / "expert.json"),
                expert_base=str(world / "expert_base.json"),
                config=SAMPLED,
            ),
        )

    def test_zero_scale_cell_equals_base_arm(self, world, tmp_path):
        # At delta_scale 0 the guided arm's decode collapses to base-only,
        # and seeds depend only on (arm seed, problem, sample), so the
        # sweep cell reproduces the base arm's accuracy exactly.
        manifest = make_manifest(world, arms=self.sampled_arms(world))
        summary = run_campaign(manifest, tmp_path / "campaign")
        rows = sweep(manifest, [0.0], [1.0], tmp_path / "sweep", arm_label="guided")
        assert len(rows) == 1
        assert rows[0]["delta_scale"] == 0.0
        assert rows[0]["accuracy_mean"] == summary["arms"]["base"]["accuracy"]

    def test_grid_shape_and_artifacts(self, world, tmp_path):
        manifest = make_manifest(
            world, arms=self.sampled_arms(world), samples_per_problem=1
        )
        out = tmp_path / "sweep"
        rows = sweep(manifest, [0.0, 0.5, 1.0], [0.7, 1.0, 1.3], out)
        assert len(rows) == 9
        assert all("accuracy_mean" in row for row in rows)
        saved = json.loads((out / "sweep.json").read_text())
        assert saved["rows"] == rows
        assert (out / "scale_0p5_temp_0p7" / "summary.json").is_file()

    def test_default_arm_is_first_with_expert(self, world, tmp_path):
        manifest = make_manifest(
            world, arms=self.sampled_arms(world), samples_per_problem=1
        )
        rows = sweep(manifest, [1.0], [1.0], tmp_path / "sweep")
        cell_summary = json.loads(
            (tmp_path / "sweep" / rows[0]["cell"] / "summary.json").read_text()
        )
        assert set(cell_summary["arms"]) == {"guided"}

    def test_bad_cell_reports_error_and_spares_others(self, world, tmp_path):
        manifest = make_manifest(
            world, arms=self.sampled_arms(world), samples_per_problem=1
        )
        rows = sweep(manifest, [1.0, -2.0], [1.0], tmp_path / "sweep", arm_label="guided")
        good, bad = rows
        assert "accuracy_mean" in good
        assert "InvalidConfigError" in bad["error"]

    def test_empty_grid_rejected(self, world, tmp_path):
        manifest = make_manifest(world, arms=self.sampled_arms(world))
        with pytest.raises(ManifestError, match="at least one"):
            sweep(manifest, [], [1.0], tmp_path / "sweep")

    def test_manifest_without_expert_arm_rejected(self, world, tmp_path):
        manifest = make_manifest(
            world,
            arms=(ArmSpec(label="base", base=str(world / "base.json"), config=SAMPLED),),
        )
        with pytest.raises(ManifestError, match="expert"):
            sweep(manifest, [1.0], [1.0], tmp_path / "sweep")

    def test_unknown_arm_label_rejected(self, world, tmp_path):
        manifest = make_manifest(world, arms=self.sampled_arms(world))
        with pytest.raises(ManifestError, match="no arm labeled"):
            sweep(manifest, [1.0], [1.0], tmp_path / "sweep", arm_label="nope")
