"""Run-to-run spread of the end-to-end metrics.

    python3 layerbench/spread.py [--workload W ...] [--seeds 10] [--first-seed 1]
                                 [--same-seed]

Runs the benchmark once per seed on each workload (or, with
``--same-seed``, as many times on ``--first-seed`` alone, which leaves
only the host's noise), with the command and run length of
``BENCHMARK.json``, and prints each end-to-end metric's median and its
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median,
beside the metric's bound.  Runs are sequential, so the numbers describe
one host at one time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat --first-seed instead of counting up")
    parser.add_argument("--out", help="also write every value as JSON here")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    values = {}
    for name in names:
        runs = []
        for number in range(args.seeds):
            seed = args.first_seed + (0 if args.same_seed else number)
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            began = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            wall_s = time.perf_counter() - began
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            runs.append({metric: entry["value"]
                         for metric, entry in result["metrics"].items()})
            calibration = [line.strip() for line in done.stdout.splitlines()
                           if line.strip().startswith("host.calib_ms")]
            print(f"{name} seed {seed}: {runs[-1]} {calibration} "
                  f"run took {wall_s:.1f} s", file=sys.stderr)
        values[name] = runs
        for metric in spec["end_to_end"]:
            series = [run[metric["name"]] for run in runs]
            median = statistics.median(series)
            quartiles = statistics.quantiles(series, n=4)
            spread = (quartiles[2] - quartiles[0]) / median
            print(f"{name:<16} {metric['name']:<16} median {median:<12.6g} "
                  f"spread {spread:7.2%}  bound {metric['bound']:.0%}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
