"""Command-line interface.

Usage:
    deltadecode train-ngram corpus.txt --order 2 --out model.json
    deltadecode decode --base model.json --expert e.json --expert-base eb.json \
        --lambda 1.0 --temp 1.0 --top-p 0.95 --prompt-file prompt.txt
    deltadecode run --manifest manifest.json --out runs/demo
    deltadecode sweep --manifest manifest.json --lambdas 0 0.5 1 --temps 1.0 --out runs/sweep
    deltadecode analyze pcr --in runs/demo --arm guided --probe model.json
    deltadecode metrics pass-at-k --in runs/demo --arm guided -k 4 --repeats 10
    deltadecode serve-stub --model model.json --port 9000
    deltadecode mem-estimate --params 14e9 --tp 4 --instances 3

Every command exits nonzero on error and writes a JSON summary to stdout
(or to --out when given).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from . import __version__
from .analysis import TokenSetSpec, avg_cosine_sim, delta_series, length_stats, pcr, token_frequency
from .core import DecodeConfig
from .decoder import decode
from .harness import (
    MemoryPlan,
    RunManifest,
    estimate_memory,
    load_campaign_trajectories,
    run_campaign,
    sweep,
)
from .metrics import (
    extract_answer,
    load_records,
    majority_at_k,
    pass_at_k_exact,
    pass_at_k_resampled,
    recovery_rate,
)
from .remote import StubServer, serve_stdio
from .scorers import (
    encode_text,
    load_corpus,
    load_scorer,
    load_vocab,
    render_tokens,
    save_scorer,
    train_ngram,
)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_train_ngram(args) -> int:
    vocab = load_vocab(args.vocab) if args.vocab else None
    documents, vocab = load_corpus(args.corpus, mode=args.mode, vocab=vocab)
    model = train_ngram(
        documents,
        order=args.order,
        vocab=vocab,
        smoothing_k=args.smoothing_k,
        append_eos=not args.no_append_eos,
        name=args.name or Path(args.out).stem,
        tokenizer=args.mode,
    )
    save_scorer(model, args.out)
    _emit(
        {
            "model": args.out,
            "order": model.order,
            "smoothing_k": model.smoothing_k,
            "vocab_size": vocab.size,
            "documents": len(documents),
            "contexts": len(model.counts),
        },
        None,
    )
    return 0


def _cmd_decode(args) -> int:
    base = load_scorer(args.base)
    expert = load_scorer(args.expert) if args.expert else None
    expert_base = load_scorer(args.expert_base) if args.expert_base else None
    config = DecodeConfig(
        delta_scale=args.delta_scale,
        temperature=args.temp,
        top_p=args.top_p,
        max_tokens=args.max_tokens,
        mode=args.mode,
        seed=args.seed,
    )
    prompt_text = Path(args.prompt_file).read_text(encoding="utf-8").strip("\n")
    prompt = encode_text(prompt_text, base.vocab, base.tokenizer)
    instrument = tuple(args.instrument.split(",")) if args.instrument else ()
    trajectory = decode(
        base, expert, expert_base, prompt=prompt, config=config, instrument=instrument
    )
    text = render_tokens(trajectory.tokens, base.vocab, base.tokenizer)
    payload = {
        **trajectory.to_dict(),
        "text": text,
        "config": trajectory.config_snapshot.to_dict(),
        "scorers": trajectory.labels,
    }
    if args.answer_style:
        payload["extracted_answer"] = extract_answer(text, args.answer_style)
    _emit(payload, args.out)
    return 0


def _cmd_run(args) -> int:
    manifest = RunManifest.load(args.manifest)
    summary = run_campaign(manifest, args.out)
    _emit(summary, None)
    degraded = [label for label, arm in summary["arms"].items() if arm["degraded"]]
    return 2 if degraded else 0


def _cmd_sweep(args) -> int:
    manifest = RunManifest.load(args.manifest)
    rows = sweep(manifest, args.lambdas, args.temps, args.out, arm_label=args.arm)
    _emit({"rows": rows}, None)
    return 2 if any("error" in row for row in rows) else 0


def _cmd_analyze(args) -> int:
    if args.what == "pcr":
        trajectories = load_campaign_trajectories(args.in_dir, args.arm)
        probe = load_scorer(args.probe)
        report = pcr(trajectories, probe)
        _emit(
            {
                "mean": report.mean,
                "n": report.n,
                "per_trajectory": list(report.per_trajectory),
            },
            args.out,
        )
        return 0
    if args.what == "cosine":
        trajectories = load_campaign_trajectories(args.in_dir, args.arm)
        expert_a = load_scorer(args.expert_a)
        expert_base_a = load_scorer(args.expert_base_a)
        expert_b = load_scorer(args.expert_b)
        expert_base_b = load_scorer(args.expert_base_b)
        values = []
        for trajectory in trajectories:
            series_a = delta_series(trajectory, expert_a, expert_base_a)
            series_b = delta_series(trajectory, expert_b, expert_base_b)
            values.append(avg_cosine_sim(series_a, series_b))
        _emit(
            {
                "mean": sum(values) / len(values) if values else None,
                "n": len(values),
                "per_trajectory": values,
            },
            args.out,
        )
        return 0
    if args.what == "tokens":
        token_sets = (
            TokenSetSpec.from_file(args.token_sets) if args.token_sets else TokenSetSpec.default()
        )
        manifest = RunManifest.load(Path(args.in_dir) / "manifest.json")
        labels = [args.arm] if args.arm else [arm.label for arm in manifest.arms]
        payload = {}
        for label in labels:
            arm = next(a for a in manifest.arms if a.label == label)
            scorer_path = args.scorer or arm.base
            vocab = load_scorer(scorer_path).vocab
            trajectories = load_campaign_trajectories(args.in_dir, label)
            payload[label] = token_frequency(trajectories, token_sets, vocab)
        _emit(payload, args.out)
        return 0
    if args.what == "length":
        manifest = RunManifest.load(Path(args.in_dir) / "manifest.json")
        labels = [args.arm] if args.arm else [arm.label for arm in manifest.arms]
        groups = {label: load_campaign_trajectories(args.in_dir, label) for label in labels}
        _emit(length_stats(groups), args.out)
        return 0
    raise ValueError(f"unknown analysis {args.what!r}")


def _cmd_metrics(args) -> int:
    if args.what == "recovery":
        value = recovery_rate(args.acc_method, args.acc_base, args.acc_rl)
        _emit(
            {
                "recovery_rate": value,
                "acc_method": args.acc_method,
                "acc_base": args.acc_base,
                "acc_rl": args.acc_rl,
            },
            args.out,
        )
        return 0
    records = load_records(Path(args.in_dir) / "arms" / args.arm / "records.jsonl")
    if args.what == "pass-at-k":
        if args.repeats is not None:
            result = pass_at_k_resampled(records, args.k, repeats=args.repeats, seed=args.seed)
        else:
            result = pass_at_k_exact(records, args.k)
    elif args.what == "majority":
        result = majority_at_k(records, args.k, repeats=args.repeats or 10, seed=args.seed)
    else:
        raise ValueError(f"unknown metric {args.what!r}")
    _emit(
        {
            "metric": args.what,
            "value": result.value,
            "k": result.k,
            "estimator": result.estimator,
            "repeats": result.repeats,
            "stderr": result.stderr,
            "n_problems": len(records),
        },
        args.out,
    )
    return 0


def _cmd_serve_stub(args) -> int:
    scorer = load_scorer(args.model)
    if args.stdio:
        serve_stdio(scorer)
        return 0
    server = StubServer(scorer, host=args.host, port=args.port)
    server.start()
    print(
        json.dumps(
            {"host": server.host, "port": server.port, "vocab_size": scorer.vocab.size}
        ),
        flush=True,
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_mem_estimate(args) -> int:
    plan = MemoryPlan(
        n_params=args.params,
        tp=args.tp,
        n_instances=args.instances,
        bytes_per_param=args.bytes_per_param,
        optimizer_bytes_per_param=args.optimizer_bytes_per_param,
        optimizer_instances=args.optimizer_instances,
        activation_gb=(args.activation_low, args.activation_high),
        buffer_gb=(args.buffer_low, args.buffer_high),
    )
    _emit(estimate_memory(plan), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltadecode", description="Delta-guided decoding toolkit"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train-ngram", help="count n-grams over a corpus file")
    train.add_argument("corpus")
    train.add_argument("--order", type=int, required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--mode", choices=("whitespace", "byte"), default="whitespace")
    train.add_argument("--smoothing-k", type=float, default=1.0)
    train.add_argument("--vocab", help="explicit vocabulary file (one surface per line)")
    train.add_argument("--no-append-eos", action="store_true")
    train.add_argument("--name", default="")
    train.set_defaults(handler=_cmd_train_ngram)

    dec = commands.add_parser("decode", help="decode one prompt")
    dec.add_argument("--base", required=True)
    dec.add_argument("--expert")
    dec.add_argument("--expert-base")
    dec.add_argument("--lambda", dest="delta_scale", type=float, default=1.0)
    dec.add_argument("--temp", type=float, default=1.0)
    dec.add_argument("--top-p", type=float, default=0.95)
    dec.add_argument("--max-tokens", type=int, default=16384)
    dec.add_argument("--mode", choices=("greedy", "sample"), default="sample")
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--prompt-file", required=True)
    dec.add_argument("--instrument", default="", help="comma-separated flags: kl,delta")
    dec.add_argument("--answer-style", choices=("boxed", "last_number"))
    dec.add_argument("--out")
    dec.set_defaults(handler=_cmd_decode)

    run = commands.add_parser("run", help="run a campaign manifest")
    run.add_argument("--manifest", required=True)
    run.add_argument("--out", required=True)
    run.set_defaults(handler=_cmd_run)

    swp = commands.add_parser("sweep", help="grid-sweep delta scale and temperature")
    swp.add_argument("--manifest", required=True)
    swp.add_argument("--lambdas", dest="lambdas", type=float, nargs="+", required=True)
    swp.add_argument("--temps", type=float, nargs="+", required=True)
    swp.add_argument("--out", required=True)
    swp.add_argument("--arm", help="label of the arm to sweep (default: first with expert)")
    swp.set_defaults(handler=_cmd_sweep)

    ana = commands.add_parser("analyze", help="analyze campaign trajectories")
    ana.add_argument("what", choices=("pcr", "cosine", "tokens", "length"))
    ana.add_argument("--in", dest="in_dir", required=True)
    ana.add_argument("--arm")
    ana.add_argument("--probe", help="pcr: scorer file to replay against")
    ana.add_argument("--expert-a", help="cosine: first pair expert")
    ana.add_argument("--expert-base-a", help="cosine: first pair base")
    ana.add_argument("--expert-b", help="cosine: second pair expert")
    ana.add_argument("--expert-base-b", help="cosine: second pair base")
    ana.add_argument("--token-sets", help="tokens: JSON file of category -> surfaces")
    ana.add_argument("--scorer", help="tokens: scorer file supplying the vocabulary")
    ana.add_argument("--out")
    ana.set_defaults(handler=_cmd_analyze)

    met = commands.add_parser("metrics", help="pool metrics over campaign records")
    met.add_argument("what", choices=("pass-at-k", "majority", "recovery"))
    met.add_argument("--in", dest="in_dir")
    met.add_argument("--arm")
    met.add_argument("-k", type=int, default=1)
    met.add_argument("--exact", action="store_true", help="force the closed-form estimator")
    met.add_argument("--repeats", type=int, help="resample with this many repeats")
    met.add_argument("--seed", type=int, default=0)
    met.add_argument("--acc-method", type=float, help="recovery: method accuracy")
    met.add_argument("--acc-base", type=float, help="recovery: base accuracy")
    met.add_argument("--acc-rl", type=float, help="recovery: reference accuracy")
    met.add_argument("--out")
    met.set_defaults(handler=_cmd_metrics)

    stub = commands.add_parser("serve-stub", help="serve a local scorer over the wire protocol")
    stub.add_argument("--model", required=True)
    stub.add_argument("--host", default="127.0.0.1")
    stub.add_argument("--port", type=int, default=0)
    stub.add_argument("--stdio", action="store_true", help="serve over stdin/stdout instead of TCP")
    stub.set_defaults(handler=_cmd_serve_stub)

    mem = commands.add_parser("mem-estimate", help="estimate deployment memory")
    mem.add_argument("--params", type=float, required=True)
    mem.add_argument("--tp", type=int, default=1)
    mem.add_argument("--instances", type=int, default=1)
    mem.add_argument("--bytes-per-param", type=float, default=2.0)
    mem.add_argument("--optimizer-bytes-per-param", type=float, default=8.0)
    mem.add_argument("--optimizer-instances", type=int, default=1)
    mem.add_argument("--activation-low", type=float, default=12.0)
    mem.add_argument("--activation-high", type=float, default=25.0)
    mem.add_argument("--buffer-low", type=float, default=5.0)
    mem.add_argument("--buffer-high", type=float, default=8.0)
    mem.add_argument("--out")
    mem.set_defaults(handler=_cmd_mem_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "metrics":
        if args.what == "recovery":
            missing = [
                flag
                for flag, value in (
                    ("--acc-method", args.acc_method),
                    ("--acc-base", args.acc_base),
                    ("--acc-rl", args.acc_rl),
                )
                if value is None
            ]
            if missing:
                parser.error(f"metrics recovery needs {', '.join(missing)}")
        elif not args.in_dir or not args.arm:
            parser.error(f"metrics {args.what} needs --in and --arm")
        if args.exact and args.repeats is not None:
            parser.error("--exact and --repeats are mutually exclusive")
    if args.command == "analyze":
        if args.what == "pcr" and (not args.arm or not args.probe):
            parser.error("analyze pcr needs --arm and --probe")
        if args.what == "cosine":
            needed = (args.arm, args.expert_a, args.expert_base_a, args.expert_b, args.expert_base_b)
            if not all(needed):
                parser.error(
                    "analyze cosine needs --arm, --expert-a, --expert-base-a, "
                    "--expert-b and --expert-base-b"
                )
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
