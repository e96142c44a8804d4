"""Seeded input generators for the benchmark workloads.

Run as a script, this writes one workload's inputs into a directory:
scorer JSON files saved with ``save_scorer`` plus ``spec.json`` holding
the prompts, per-prompt decode seeds and decode settings. The benchmark
process then reads only these files, so the program under test receives
generated inputs and nothing else. The same ``--seed`` always writes the
same bytes.

    PYTHONPATH=src python3 perfbench/inputs.py --workload decode-long --seed 1 --out DIR

Generation runs in its own short-lived process so that the corpora and
count tables built here do not count towards the measured process's
peak memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from deltadecode.core import Vocabulary
from deltadecode.scorers import (
    BOS_TOKEN,
    EOS_TOKEN,
    NGramModel,
    load_corpus,
    save_scorer,
    save_vocab,
    train_ngram,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data"

# Tokens per decode call. Long sequences are decoded as chained calls so a
# run times many short calls; the prefix still grows to the full length.
CALL_TOKENS = 128

# Stream ids keep the workloads' random draws independent for one seed.
_STREAMS = {"campaign-transfer": 1, "decode-long": 2, "decode-wide": 3, "remote-base": 4}


def word_vocab(words: int) -> Vocabulary:
    """``words`` plain tokens ``w0..`` followed by bos and eos (eos last)."""
    surface = tuple(f"w{i}" for i in range(words)) + (BOS_TOKEN, EOS_TOKEN)
    return Vocabulary(surface=surface, eos=words + 1, bos=words)


def _save_scorers(out: Path, base, expert, expert_base) -> None:
    save_scorer(base, out / "base.json")
    save_scorer(expert, out / "expert.json")
    save_scorer(expert_base, out / "expert_base.json")


def _sequences(rng, words: int, prompts: int, prompt_len: int, calls: int) -> dict:
    """Prompts plus one decode seed per (prompt, call) and the decode settings.

    A sequence is generated by ``calls`` chained ``decode`` calls of
    ``CALL_TOKENS`` each; every call continues the previous call's prefix.
    """
    return {
        "prompts": rng.integers(0, words, size=(prompts, prompt_len)).tolist(),
        "decode_seeds": rng.integers(0, 2**31, size=(prompts, calls)).tolist(),
        "config": {"delta_scale": 1.0, "temperature": 1.0, "top_p": 0.95, "max_tokens": CALL_TOKENS},
    }


def _flat_family(rng, out: Path, prompts: int, calls: int) -> dict:
    """Trigram base and bigram pair over V=1024 with near-flat rows.

    Uniform random corpora leave most trigram contexts seen about once, so
    add-1 smoothing keeps every row close to uniform and the nucleus keeps
    most of V. Nothing is trained with eos, so eos ties with the other
    unseen tokens, ranks last among them (ties keep the lowest id) and is
    cut by the nucleus: every call runs to its ``max_tokens``.
    """
    words = 1022
    vocab = word_vocab(words)
    shape = (300, 200)
    base_docs = rng.integers(0, words, size=shape)
    # The tuned expert's corpus draws half its tokens from a favoured tenth.
    favoured = rng.choice(words, size=words // 10, replace=False)
    expert_docs = np.where(
        rng.random(shape) < 0.5,
        rng.choice(favoured, size=shape),
        rng.integers(0, words, size=shape),
    )
    base_docs, expert_docs = base_docs.tolist(), expert_docs.tolist()
    _save_scorers(
        out,
        train_ngram(base_docs, 3, vocab, smoothing_k=1.0, append_eos=False, name="base"),
        train_ngram(expert_docs, 2, vocab, smoothing_k=1.0, append_eos=False, name="expert"),
        train_ngram(base_docs, 2, vocab, smoothing_k=1.0, append_eos=False, name="expert_base"),
    )
    save_vocab(vocab, out / "vocab.txt")
    return _sequences(rng, words, prompts, 16, calls)


def _sparse_successor_family(rng, out: Path) -> dict:
    """Bigram scorers over V=32768 where each token has 8 seeded successors.

    With smoothing k=1e-6 every row puts almost all of its mass on its 8
    successors, so the nucleus keeps a handful of 32k ids and per-step
    cost is the O(V) work around them. The expert adds weight to one
    successor per row; expert_base shares the base's counts.
    """
    words = 32766
    vocab = word_vocab(words)
    contexts = words + 1  # every word plus bos, which starts each prompt's context
    successors = rng.integers(0, words, size=(contexts, 8)).tolist()
    weights = rng.integers(1, 100, size=(contexts, 8)).tolist()
    boosted = rng.integers(0, 8, size=contexts).tolist()

    def counts(boost: int) -> dict:
        table = {}
        for ctx in range(contexts):
            row: dict[int, int] = {}
            for j, (token, weight) in enumerate(zip(successors[ctx], weights[ctx])):
                row[token] = row.get(token, 0) + weight + (boost if j == boosted[ctx] else 0)
            table[(ctx,)] = row
        return table

    base_counts = counts(0)
    _save_scorers(
        out,
        NGramModel(vocab, 2, base_counts, 1e-6, name="base"),
        NGramModel(vocab, 2, counts(300), 1e-6, name="expert"),
        NGramModel(vocab, 2, base_counts, 1e-6, name="expert_base"),
    )
    return _sequences(rng, words, 8, 4, 2)


def _transfer_campaign(rng, out: Path) -> dict:
    """The committed successor-task fixture: V=16, trigram base, bigram pair.

    The scorers are the ones the acceptance tests train; the seed picks the
    arms' decode seed, the half of the sample lines removed before the
    resume, and the cells the plain arm is checked on.
    """
    base_docs, vocab = load_corpus(FIXTURE / "transfer_base.txt")
    expert_docs, _ = load_corpus(FIXTURE / "transfer_expert.txt", vocab=vocab)
    _save_scorers(
        out,
        train_ngram(base_docs, 3, vocab, smoothing_k=0.5, name="base"),
        train_ngram(expert_docs, 2, vocab, smoothing_k=0.5, name="expert"),
        train_ngram(base_docs, 2, vocab, smoothing_k=0.5, name="expert_base"),
    )
    shutil.copyfile(FIXTURE / "transfer_problems.jsonl", out / "problems.jsonl")
    problems = [json.loads(line)["id"] for line in (out / "problems.jsonl").read_text().splitlines()]
    samples = 20
    arms = ("plain", "guided")
    dropped = {
        arm: {pid: sorted(rng.choice(samples, size=samples // 2, replace=False).tolist()) for pid in problems}
        for arm in arms
    }
    cells = [(pid, s) for pid in problems for s in range(samples)]
    checked = sorted(int(i) for i in rng.choice(len(cells), size=20, replace=False))
    return {
        "arm_seed": int(rng.integers(0, 2**31)),
        "samples_per_problem": samples,
        "config": {"temperature": 1.0, "top_p": 0.95, "max_tokens": 8},
        "resume_dropped": dropped,
        "plain_checked": [list(cells[i]) for i in checked],
    }


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([_STREAMS[workload], seed])
    if workload == "campaign-transfer":
        spec = _transfer_campaign(rng, out)
    elif workload == "decode-long":
        spec = _flat_family(rng, out, prompts=1, calls=16)  # one sequence of 2048 tokens
    elif workload == "decode-wide":
        spec = _sparse_successor_family(rng, out)  # 8 sequences of 256 tokens
    else:
        spec = _flat_family(rng, out, prompts=2, calls=4)  # sequences of 512 tokens
    (out / "spec.json").write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")


def digest_dir(path: Path) -> str:
    """sha256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(file.name.encode() + b"\0" + file.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(_STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
