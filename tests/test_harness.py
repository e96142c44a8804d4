"""Harness tests: memory plans, datasets, manifests, campaigns, sweeps.

The campaign tests run against a tiny committed world: a cyclic bigram
corpus over three digit tokens, so greedy decodes are hand-checkable and
sampled decodes are cheap. Byte-identity of artifacts is the load-bearing
property here; run_log.json (wall clock) is the only file excluded.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from deltadecode.core import DecodeConfig, InvalidConfigError
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
from deltadecode.scorers import load_corpus, save_scorer, train_ngram

GREEDY = DecodeConfig(mode="greedy", max_tokens=4, seed=7)
SAMPLED = DecodeConfig(mode="sample", temperature=1.0, top_p=0.95, max_tokens=6, seed=7)


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

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"prompt": "q", "answer": "a"}\n')
        with pytest.raises(DatasetError, match="format"):
            ingest_dataset(path, fmt="csv")


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
        ],
    )
    def test_bad_instrument_rejected_at_load(self, instrument, message):
        with pytest.raises(ManifestError, match=message):
            ArmSpec.from_dict({"label": "a", "base": "m.json", "instrument": instrument})

    def test_instrument_flags_accepted(self):
        arm = ArmSpec.from_dict({"label": "a", "base": "m.json", "instrument": ["delta", "kl"]})
        assert arm.instrument == ("delta", "kl")


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
        ],
    )
    def test_invalid_manifests_rejected(self, world, overrides, message):
        with pytest.raises(ManifestError, match=message):
            make_manifest(world, **overrides)
        with pytest.raises(ManifestError, match=message):
            RunManifest.from_dict({**make_manifest(world).to_dict(), **overrides})

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
