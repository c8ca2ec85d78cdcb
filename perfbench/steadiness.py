"""Steadiness check: run each workload over several seeds and report spreads.

For every end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance ÷ median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's bound
from ``BENCHMARK.json``, and writes the figures as JSON.  Run from the root
of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 --out .perfbench_work/steadiness.json
    python3 perfbench/steadiness.py --workloads batch-webkit --seeds 1-5

Exits 1 when a run fails, is not correct, or a spread (``setup_s``
excepted) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default="")
    arguments = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in arguments.workloads.split(","):
        values = {}
        for seed in _seeds(arguments.seeds):
            started = time.perf_counter()
            command = [sys.executable, "perfbench/run.py",
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(arguments.seconds), "--trace", "0"]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - started
            if completed.returncode != 0:
                print(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr[-3000:]}")
                ok = False
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            ok &= bool(result["correct"])
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            first, middle, third = statistics.quantiles(series, n=4)
            spread = (third - first) / middle
            summary[name] = {"median": middle, "q1": first, "q3": third,
                             "spread": spread, "bound": bounds.get(name), "values": series}
            flag = ""
            if name != "setup_s" and bounds.get(name) is not None and spread > bounds[name]:
                flag = "  OVER BOUND"
                ok = False
            print(f"  {workload:13s} {name:12s} median {middle:12.4f} spread {spread:.4f}"
                  f" (bound {bounds.get(name)}){flag}")
        report[workload] = summary
    if arguments.out:
        Path(arguments.out).parent.mkdir(parents=True, exist_ok=True)
        Path(arguments.out).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
