"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/steadiness.py --workload d1_tail_suite \\
        --seeds 10 --seconds 20

Runs are sequential, one process each, from the checkout root. For every
metric it prints the median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, spread


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "failed": result["failed"],
                          **{k: v["value"]
                             for k, v in result["metrics"].items()}}),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        s = spread(vals)
        print(f"{name}: median {s['median']:.6g}, quartile spread "
              f"{s['iqr_over_median']:.4f} of the median "
              f"(bound {bounds.get(name)}, n={s['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
