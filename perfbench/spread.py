"""Run workloads over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 [--trace 0|1|0,1] [WORKLOAD ...]

Each run is its own `run.py` process. For every metric the table shows the
median over the seeds and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, which is the
spread the bounds in BENCHMARK.json are compared against. With `--trace 0,1`
every seed runs untraced and then traced, and the tracing overhead is the
traced `trace.games_per_s` against the untraced `games_per_s`, per pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: str, trace: str) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", trace],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
        return None
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=["sweep40", "synth4k", "llm-triad", "analyze"])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0", choices=("0", "1", "0,1"))
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares: set[Fraction] = set()  # must hold one value: the same share every run
        overheads = []
        for seed in args.seeds:
            results = [run(workload, seed, args.seconds, t) for t in args.trace.split(",")]
            ok &= all(r is not None and r["correct"] for r in results)
            for result in filter(None, results):
                shares.add(Fraction(result["failed"], result["attempted"]))
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            if len(results) == 2 and all(results):
                plain, traced = (r["metrics"] for r in results)
                overheads.append(1 - traced["trace.games_per_s"]["value"]
                                 / plain["games_per_s"]["value"])
        print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"failed share {', '.join(map(str, sorted(shares)))}")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            runs = " ".join(f"{v:.4g}" for v in vals)
            print(f"  {name:40s} {median:12.4f} {units[name]:6s} spread {spread:6.3f}  [{runs}]")
        if overheads:
            print(f"  tracing overhead on games_per_s: median {statistics.median(overheads):.1%}, "
                  f"pairs {' '.join(f'{o:.1%}' for o in overheads)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
