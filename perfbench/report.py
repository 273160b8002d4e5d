"""Run the benchmark over workloads and seeds and summarise every metric.

    python3 perfbench/report.py                       # every workload, seed 1, both modes
    python3 perfbench/report.py --seeds 1-10 --trace 0 --save perfbench/baseline.json
    python3 perfbench/report.py --seeds 1-10 --trace 0 --compare perfbench/baseline.json

Each run is a fresh `run.py` process, one at a time. For every workload and
metric the table gives the median over seeds, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median. An end-to-end spread above a third of the metric's bound in
BENCHMARK.json is flagged (set-up time excepted). `--compare` checks each
end-to-end median against a saved report by the same bounds, and that every
seed shared by both did identical work (same digest). Exit status is 1 when a
run fails its checks, a spread is flagged or a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result


def spread(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worsening(metric: dict, old: float, new: float) -> float:
    """Share of the old value by which new is worse (negative when better)."""
    change = (new - old) / old if old else 0.0
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--save", help="write the summary as JSON to this file")
    parser.add_argument("--compare", help="a summary written earlier by --save")
    parser.add_argument("--label", default="", help="stored with --save, e.g. the commit measured")
    args = parser.parse_args(argv)
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    seeds = parse_seeds(args.seeds)
    ok = True
    summary = {"label": args.label, "python": platform.python_version(), "cpus": os.cpu_count(),
               "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = summary["workloads"][workload] = {"digests": {}, "metrics": {}}
        for trace in modes:
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, args.seconds, trace)
                runs.append(result)
                entry["digests"][str(seed)] = result["digest"]
                if not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} cells failed", file=sys.stderr)
            for name, metric in runs[0]["metrics"].items():
                stats = spread([r["metrics"][name]["value"] for r in runs])
                stats["unit"] = metric["unit"]
                entry["metrics"][name] = stats
                flag = ""
                bound = bounds[name]["bound"] if name in bounds else None
                if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                    flag = f"  spread above a third of bound {bound}"
                    ok = False
                print(f"{workload:<13} {name:<28} median {stats['median']:<12.6g} "
                      f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                      f"spread {stats['spread']:.4f} {metric['unit']}{flag}")
    if args.compare:
        ok = compare(json.loads(Path(args.compare).read_text()), summary, bounds) and ok
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


def compare(old: dict, new: dict, bounds: dict) -> bool:
    ok = True
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for seed, dig in entry["digests"].items():
            if before["digests"].get(seed, dig) != dig:
                print(f"{workload} seed {seed}: digest {dig} differs from "
                      f"{before['digests'][seed]}")
                ok = False
        for name, metric in bounds.items():
            if name not in entry["metrics"] or name not in before["metrics"]:
                continue
            worse = worsening(metric, before["metrics"][name]["median"],
                              entry["metrics"][name]["median"])
            verdict = "ok" if worse <= metric["bound"] else "WORSE THAN BOUND"
            ok = ok and verdict == "ok"
            print(f"{workload:<13} {name:<12} worse by {worse:+.4f} "
                  f"(bound {metric['bound']}) {verdict}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
