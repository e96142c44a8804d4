"""deltadecode benchmark: one seeded workload per run, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 20 --trace 0

The workloads are described in ``perfbench/README.md`` and the metric
names, units and bounds in ``BENCHMARK.json``. With ``--trace 0`` the last
stdout line is a JSON object whose ``metrics`` hold every end-to-end
metric; with ``--trace 1`` they hold every per-layer metric, measured by
wrapping the package's entry points (see ``perfbench/tracer.py``), and
the spans are written to ``.bench_work/<workload>-s<seed>/trace.npz``.
The lines before it report operations per phase, the measured workload
properties and the input and output digests. The run exits 1 when an
operation failed or an output check did not hold.

``--record`` stores this seed's input and output digests in
``perfbench/expected.json``; runs of a recorded seed must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="deltadecode benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's digests in expected.json")
    return parser.parse_args(argv)


def _import_package():
    """Import deltadecode from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "deltadecode" / "__init__.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        sys.exit(f"error: {ROOT} is not a deltadecode checkout (src/deltadecode and tests/data are required)")
    sys.path[:0] = [str(src), str(HERE)]
    import deltadecode

    if Path(deltadecode.__file__).resolve().parent != (src / "deltadecode").resolve():
        sys.exit(f"error: deltadecode was imported from {deltadecode.__file__}, not from {src}")


def _generate(workload: str, seed: int, out: Path) -> None:
    from workloads import package_env

    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        check=True,
        env=package_env(),
        cwd=ROOT,
        timeout=170,
    )


def _compare_digests(workload: str, seed: int, digests: dict, ops, record: bool) -> None:
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    if record:
        table.setdefault(workload, {})[str(seed)] = digests
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return
    expected = table.get(workload, {}).get(str(seed))
    if expected is None:
        print(f"note: no recorded digests for {workload} seed {seed}; checked repeats only")
        return
    for kind in ("inputs", "outputs"):
        ops.check(f"{kind} digest matches the recorded one", digests[kind] == expected[kind],
                  f"{digests[kind]} != {expected[kind]}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Turn a termination request into SystemExit so ``finally`` blocks stop
    # and reap the scorer server before the process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_package()
    from inputs import digest_dir
    from tracer import Tracer
    from workloads import WORKLOADS, Operations

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    _generate(args.workload, args.seed, inputs)

    # One vCPU for the measured process and the scorer server it starts:
    # the clock's reference snippets then time the core all the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = Operations()
    workload = WORKLOADS[args.workload](inputs, work, ops, bool(args.trace))
    tracer = Tracer() if args.trace else None
    try:
        setups = [workload.setup() for _ in range(workload.setup_reps)]
        if tracer:
            measured = workload.measure_traced(args.seconds, tracer)
        else:
            measured = workload.measure(args.seconds)
        workload.verify()
    finally:
        workload.close()
    measured["setup_s"] = statistics.median(setups)
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured["remote.server_peak_rss_mb"] = workload.server_peak_rss_mb
    if tracer:
        tracer.save(work / "trace.npz")

    digests = {"inputs": digest_dir(inputs), "outputs": workload.output_digest()}
    _compare_digests(args.workload, args.seed, digests, ops, args.record)
    properties = workload.properties()
    if tracer:
        properties["nucleus_kept_frac"] = measured["core.nucleus.kept_frac"]
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(work / "campaign", ignore_errors=True)

    print("phases: " + json.dumps({k: {"attempted": a, "failed": f} for k, (a, f) in sorted(ops.phases.items())}))
    print("properties: " + json.dumps(properties, sort_keys=True))
    print("digests: " + json.dumps(digests, sort_keys=True))
    if not tracer:
        print("raw: " + json.dumps({"tokens_per_s": measured["raw_tokens_per_s"]}))
    correct = ops.failed == 0
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        # A layer the workload never touches reports 0; an end-to-end
        # metric must always have been measured.
        "metrics": {
            m["name"]: {"value": float(measured.get(m["name"], 0.0) if tracer else measured[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
