"""CLI tests: every subcommand, exit codes, and JSON output shapes.

Commands run in-process through main(argv) so coverage and tracebacks
work; only the stdio stub server test shells out, because serving owns
the process's stdin/stdout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from deltadecode.analysis import UndefinedCosineError, avg_cosine_sim, delta_series
from deltadecode.cli import main
from deltadecode.core import DecodeConfig
from deltadecode.harness import ArmSpec, RunManifest, load_campaign_trajectories, run_campaign
from deltadecode.scorers import load_corpus, load_scorer, save_scorer, save_vocab, train_ngram


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Corpus, scorer files, dataset, manifest, and one finished campaign."""
    root = tmp_path_factory.mktemp("cli-world")
    (root / "corpus.txt").write_text("1 2 3\n2 3 1\n3 1 2\n", encoding="utf-8")
    docs, vocab = load_corpus(root / "corpus.txt")
    (root / "expert.txt").write_text("1 1 2\n2 2 3\n3 3 1\n", encoding="utf-8")
    expert_docs, _ = load_corpus(root / "expert.txt", vocab=vocab)
    save_scorer(train_ngram(docs, 2, vocab, smoothing_k=0.5), root / "base.json")
    save_scorer(train_ngram(expert_docs, 2, vocab, smoothing_k=0.5), root / "expert.json")
    save_scorer(train_ngram(docs, 1, vocab, smoothing_k=0.5), root / "expert_base.json")
    save_vocab(vocab, root / "vocab.txt")
    (root / "prompt.txt").write_text("1 2\n", encoding="utf-8")
    (root / "data.jsonl").write_text(
        '{"prompt": "1 2", "answer": "3"}\n{"prompt": "2 3", "answer": "7"}\n',
        encoding="utf-8",
    )
    manifest = RunManifest(
        run_id="cli-demo",
        dataset=str(root / "data.jsonl"),
        arms=(
            ArmSpec(
                label="base",
                base=str(root / "base.json"),
                config=DecodeConfig(mode="greedy", max_tokens=4, seed=7),
                samples_per_problem=1,
            ),
            ArmSpec(
                label="guided",
                base=str(root / "base.json"),
                expert=str(root / "expert.json"),
                expert_base=str(root / "expert_base.json"),
                config=DecodeConfig(
                    mode="sample", temperature=1.0, top_p=0.95, max_tokens=6, seed=7
                ),
            ),
        ),
        samples_per_problem=3,
        answer_style="last_number",
    )
    manifest.save(root / "manifest.json")
    run_campaign(manifest, root / "campaign")
    return root


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrainNgram:
    def test_trains_and_reports(self, world, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, stdout, _ = run_cli(
            capsys,
            "train-ngram", str(world / "corpus.txt"),
            "--order", "2", "--smoothing-k", "0.5", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["order"] == 2
        assert payload["smoothing_k"] == 0.5
        assert payload["vocab_size"] == 5
        assert payload["documents"] == 3
        model = load_scorer(out)
        assert model.name == "model"
        assert model.order == 2

    def test_explicit_vocab_file(self, world, tmp_path, capsys):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("1\n2\n3\n9\n")  # specials get appended
        code, stdout, _ = run_cli(
            capsys,
            "train-ngram", str(world / "corpus.txt"),
            "--order", "1", "--vocab", str(vocab_file),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 0
        assert json.loads(stdout)["vocab_size"] == 6

    def test_missing_corpus_fails(self, tmp_path, capsys):
        code, stdout, stderr = run_cli(
            capsys,
            "train-ngram", str(tmp_path / "nope.txt"),
            "--order", "2", "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ")


class TestDecode:
    def test_greedy_decode_payload(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "decode", "--base", str(world / "base.json"),
            "--mode", "greedy", "--max-tokens", "4",
            "--prompt-file", str(world / "prompt.txt"),
            "--answer-style", "last_number",
        )
        assert code == 0
        payload = json.loads(stdout)
        # Cyclic corpus: greedy from "1 2" walks 3,1,2,3.
        assert payload["prompt_tokens"] == [0, 1]
        assert payload["tokens"] == [2, 0, 1, 2]
        assert payload["text"] == "3 1 2 3"
        assert payload["stop_reason"] == "max_tokens"
        assert payload["extracted_answer"] == "3"
        assert payload["config"]["mode"] == "greedy"
        assert len(payload["logprobs"]) == 4

    def test_out_file_instead_of_stdout(self, world, tmp_path, capsys):
        out = tmp_path / "decode.json"
        code, stdout, _ = run_cli(
            capsys,
            "decode", "--base", str(world / "base.json"),
            "--mode", "greedy", "--max-tokens", "2",
            "--prompt-file", str(world / "prompt.txt"),
            "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["tokens"] == [2, 0]

    def test_kl_instrumentation(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "decode", "--base", str(world / "base.json"),
            "--expert", str(world / "expert.json"),
            "--expert-base", str(world / "expert_base.json"),
            "--max-tokens", "3", "--seed", "5",
            "--instrument", "kl",
            "--prompt-file", str(world / "prompt.txt"),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert len(payload["kl"]) == len(payload["tokens"])
        assert all(value >= 0.0 for value in payload["kl"])

    def test_zero_scale_matches_base_only(self, world, tmp_path, capsys):
        common = [
            "--mode", "sample", "--temp", "1.0", "--max-tokens", "6", "--seed", "13",
            "--prompt-file", str(world / "prompt.txt"),
        ]
        code, stdout, _ = run_cli(
            capsys, "decode", "--base", str(world / "base.json"), *common
        )
        base_only = json.loads(stdout)
        code, stdout, _ = run_cli(
            capsys,
            "decode", "--base", str(world / "base.json"),
            "--expert", str(world / "expert.json"),
            "--expert-base", str(world / "expert_base.json"),
            "--lambda", "0.0", *common,
        )
        guided = json.loads(stdout)
        assert guided["tokens"] == base_only["tokens"]
        assert guided["logprobs"] == base_only["logprobs"]

    def test_expert_without_pair_fails(self, world, capsys):
        code, _, stderr = run_cli(
            capsys,
            "decode", "--base", str(world / "base.json"),
            "--expert", str(world / "expert.json"),
            "--prompt-file", str(world / "prompt.txt"),
        )
        assert code == 1
        assert "InvalidConfigError" in stderr

    def test_prompt_outside_vocab_fails(self, world, tmp_path, capsys):
        prompt = tmp_path / "prompt.txt"
        prompt.write_text("1 2 unknown\n")
        code, _, stderr = run_cli(
            capsys,
            "decode", "--base", str(world / "base.json"),
            "--prompt-file", str(prompt),
        )
        assert code == 1
        assert "unknown" in stderr

    def test_unknown_instrument_flag_fails(self, world, capsys):
        code, _, stderr = run_cli(
            capsys,
            "decode", "--base", str(world / "base.json"),
            "--instrument", "entropy",
            "--prompt-file", str(world / "prompt.txt"),
        )
        assert code == 1
        assert "InvalidConfigError" in stderr


class TestRun:
    def test_campaign_runs(self, world, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "run", "--manifest", str(world / "manifest.json"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["run_id"] == "cli-demo"
        assert summary["arms"]["base"]["accuracy"] == 0.5
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_degraded_arm_exits_2(self, world, tmp_path, capsys):
        manifest = RunManifest(
            run_id="broken",
            dataset=str(world / "data.jsonl"),
            arms=(
                ArmSpec(label="bad", base=str(world / "missing.json")),
                ArmSpec(
                    label="ok",
                    base=str(world / "base.json"),
                    config=DecodeConfig(mode="greedy", max_tokens=4, seed=7),
                ),
            ),
            samples_per_problem=1,
            answer_style="last_number",
        )
        manifest.save(tmp_path / "manifest.json")
        code, stdout, _ = run_cli(
            capsys,
            "run", "--manifest", str(tmp_path / "manifest.json"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        summary = json.loads(stdout)
        assert summary["arms"]["bad"]["degraded"] is True
        assert summary["arms"]["ok"]["accuracy"] == 0.5

    def test_missing_manifest_fails(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "run", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "error" in stderr


class TestSweep:
    def test_grid_rows(self, world, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--manifest", str(world / "manifest.json"),
            "--lambdas", "0", "1",
            "--temps", "1.0",
            "--out", str(tmp_path / "sweep"),
        )
        assert code == 0
        rows = json.loads(stdout)["rows"]
        assert len(rows) == 2
        assert all("accuracy_mean" in row for row in rows)

    def test_bad_cell_exits_2(self, world, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--manifest", str(world / "manifest.json"),
            "--lambdas", "-1",
            "--temps", "1.0",
            "--out", str(tmp_path / "sweep"),
        )
        assert code == 2
        assert "InvalidConfigError" in json.loads(stdout)["rows"][0]["error"]

    def test_unknown_arm_fails(self, world, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "sweep", "--manifest", str(world / "manifest.json"),
            "--lambdas", "1", "--temps", "1.0",
            "--out", str(tmp_path / "sweep"), "--arm", "nope",
        )
        assert code == 1
        assert "ManifestError" in stderr


class TestAnalyze:
    def test_pcr_self_replay(self, world, capsys):
        # The base arm decoded greedily with base.json, so replaying the
        # same scorer matches every step.
        code, stdout, _ = run_cli(
            capsys,
            "analyze", "pcr", "--in", str(world / "campaign"),
            "--arm", "base", "--probe", str(world / "base.json"),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["mean"] == 1.0
        assert payload["n"] == 2
        assert payload["per_trajectory"] == [1.0, 1.0]

    def test_cosine_same_pair_is_one(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "analyze", "cosine", "--in", str(world / "campaign"), "--arm", "base",
            "--expert-a", str(world / "expert.json"),
            "--expert-base-a", str(world / "expert_base.json"),
            "--expert-b", str(world / "expert.json"),
            "--expert-base-b", str(world / "expert_base.json"),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n"] == 2
        assert payload["per_trajectory"] == [1.0, 1.0]

    def test_cosine_names_the_trajectory_with_a_zero_delta(self, tmp_path, capsys):
        # On the transfer fixture the bigram pair agrees exactly on some
        # contexts, so a trajectory's delta series has a zero-norm step.
        data = Path(__file__).parent / "data"
        base_docs, vocab = load_corpus(data / "transfer_base.txt")
        expert_docs, _ = load_corpus(data / "transfer_expert.txt", vocab=vocab)
        save_scorer(train_ngram(base_docs, 3, vocab, smoothing_k=0.5), tmp_path / "base.json")
        save_scorer(train_ngram(expert_docs, 2, vocab, smoothing_k=0.5), tmp_path / "expert.json")
        save_scorer(train_ngram(base_docs, 2, vocab, smoothing_k=0.5), tmp_path / "expert_base.json")
        arm = ArmSpec(
            label="guided",
            base=str(tmp_path / "base.json"),
            expert=str(tmp_path / "expert.json"),
            expert_base=str(tmp_path / "expert_base.json"),
            config=DecodeConfig(max_tokens=8, seed=1),
        )
        manifest = RunManifest(
            "transfer", str(data / "transfer_problems.jsonl"), (arm,), samples_per_problem=2,
            answer_style="last_number",
        )
        run_campaign(manifest, tmp_path / "campaign")
        code, _, stderr = run_cli(
            capsys,
            "analyze", "cosine", "--in", str(tmp_path / "campaign"), "--arm", "guided",
            "--expert-a", str(tmp_path / "expert.json"),
            "--expert-base-a", str(tmp_path / "expert_base.json"),
            "--expert-b", str(tmp_path / "expert.json"),
            "--expert-base-b", str(tmp_path / "expert_base.json"),
        )
        assert code == 1
        expert, expert_base = load_scorer(tmp_path / "expert.json"), load_scorer(tmp_path / "expert_base.json")
        for index, trajectory in enumerate(load_campaign_trajectories(tmp_path / "campaign", "guided")):
            series = delta_series(trajectory, expert, expert_base)
            try:
                avg_cosine_sim(series, series)
            except UndefinedCosineError as exc:
                assert stderr == f"error: UndefinedCosineError: trajectory {index}: {exc}\n"
                break
        else:
            pytest.fail("no trajectory has a zero-norm delta step")

    def test_token_frequency_custom_sets(self, world, tmp_path, capsys):
        sets = tmp_path / "sets.json"
        sets.write_text('{"ones": ["1"]}')
        code, stdout, _ = run_cli(
            capsys,
            "analyze", "tokens", "--in", str(world / "campaign"),
            "--arm", "base", "--token-sets", str(sets),
        )
        assert code == 0
        payload = json.loads(stdout)
        # Pooled greedy tokens are 3,1,2,3 and 1,2,3,1: three "1" in eight.
        assert payload["base"]["ones"] == 0.375

    def test_tokens_defaults_to_all_arms(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys, "analyze", "tokens", "--in", str(world / "campaign")
        )
        assert code == 0
        assert set(json.loads(stdout)) == {"base", "guided"}

    def test_length_stats(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys, "analyze", "length", "--in", str(world / "campaign")
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["base"] == {"n": 2, "mean": 4.0, "stddev": 0.0, "min": 4, "max": 4}
        assert payload["guided"]["n"] == 6

    def test_pcr_requires_arm_and_probe(self, world, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "pcr", "--in", str(world / "campaign")])
        assert excinfo.value.code == 2

    def test_tokens_unknown_arm_is_named(self, world, capsys):
        code, _, stderr = run_cli(
            capsys, "analyze", "tokens", "--in", str(world / "campaign"), "--arm", "nosuch",
        )
        assert code == 1
        assert "ManifestError: no arm labeled 'nosuch'" in stderr

    def test_missing_campaign_fails(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "analyze", "length", "--in", str(tmp_path / "nowhere"),
        )
        assert code == 1
        assert "error" in stderr


class TestMetrics:
    def test_pass_at_k_exact_matches_summary(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "metrics", "pass-at-k", "--in", str(world / "campaign"),
            "--arm", "guided", "-k", "1",
        )
        assert code == 0
        payload = json.loads(stdout)
        summary = json.loads((world / "campaign" / "summary.json").read_text())
        assert payload["value"] == summary["arms"]["guided"]["accuracy"]
        assert payload["estimator"] == "exact"
        assert payload["k"] == 1
        assert payload["n_problems"] == 2

    def test_pass_at_k_resampled(self, world, capsys):
        argv = (
            "metrics", "pass-at-k", "--in", str(world / "campaign"),
            "--arm", "guided", "-k", "2", "--repeats", "200", "--seed", "3",
        )
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        first = json.loads(stdout)
        assert first["estimator"] == "resampled"
        assert first["repeats"] == 200
        assert first["stderr"] >= 0.0
        code, stdout, _ = run_cli(capsys, *argv)
        assert json.loads(stdout) == first

    def test_majority(self, world, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "metrics", "majority", "--in", str(world / "campaign"),
            "--arm", "guided", "-k", "3", "--repeats", "50",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert 0.0 <= payload["value"] <= 1.0
        assert payload["metric"] == "majority"

    def test_recovery(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "metrics", "recovery",
            "--acc-method", "80.7", "--acc-base", "68.6", "--acc-rl", "81.3",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert round(payload["recovery_rate"], 3) == 0.953

    def test_recovery_requires_all_accuracies(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "recovery", "--acc-method", "80.7"])
        assert excinfo.value.code == 2

    def test_pool_metrics_require_in_and_arm(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "pass-at-k", "-k", "1"])
        assert excinfo.value.code == 2

    def test_k_above_pool_size_fails(self, world, capsys):
        code, _, stderr = run_cli(
            capsys,
            "metrics", "pass-at-k", "--in", str(world / "campaign"),
            "--arm", "guided", "-k", "9",
        )
        assert code == 1
        assert "InvalidKError" in stderr


class TestMemEstimate:
    def test_deployment_example(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "mem-estimate", "--params", "14e9", "--tp", "4", "--instances", "3"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["model_gb_per_gpu"] == 21.0
        assert payload["optimizer_gb_cpu"] == 112.0
        assert payload["total_gpu_gb"] == [38.0, 54.0]

    def test_invalid_plan_fails(self, capsys):
        code, _, stderr = run_cli(capsys, "mem-estimate", "--params", "14e9", "--tp", "0")
        assert code == 1
        assert "InvalidConfigError" in stderr


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "deltadecode" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_stdio_stub_emits_hello_and_exits(self, world):
        # EOF on stdin ends the serving loop; the hello frame must already
        # have been written (the server speaks first).
        result = subprocess.run(
            [
                sys.executable, "-m", "deltadecode.cli",
                "serve-stub", "--model", str(world / "base.json"), "--stdio",
            ],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 0
        hello = json.loads(result.stdout.splitlines()[0])
        assert hello == {"type": "hello", "version": 3, "vocab_size": 5}
