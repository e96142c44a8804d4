"""Repeat the benchmark over several seeds and write ``baseline.json``.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads decode-long ...] [--record]

For every workload it runs ``run.py`` once per seed with ``--trace 0``
and the ``run_seconds`` from ``BENCHMARK.json``, then once with
``--trace 1`` on the first seed. Per end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (interquartile distance over the median) next to the metric's
bound. ``--record`` passes ``--record`` on to the untraced runs, storing
each seed's digests in ``expected.json``. Fields of an existing
``baseline.json`` that this script does not produce (``notes``) are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int, record: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + (["--record"] if record else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    info = {}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        if key in ("properties", "digests", "phases", "raw"):
            info[key] = json.loads(value)
    return {"result": json.loads(lines[-1]), **info}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    baseline.update({"run_seconds": seconds, "seeds": seeds})
    workloads = baseline.setdefault("workloads", {})
    for workload in args.workloads:
        runs = [_run(workload, seed, seconds, 0, args.record) for seed in seeds]
        traced = _run(workload, seeds[0], seconds, 1, False)
        end_to_end = {
            name: _summary([run["result"]["metrics"][name]["value"] for run in runs]) for name in bounds
        }
        workloads[workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["result"]["metrics"].items()},
            "properties": {**runs[0]["properties"], **traced["properties"]},
            "raw_tokens_per_s": _summary([run["raw"]["tokens_per_s"] for run in runs]),
            "attempted": sum(run["result"]["attempted"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
        }
        print(workload)
        for name, s in end_to_end.items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:22s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}"
                  f"  spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
