"""Run-to-run spread of the end-to-end metrics, against the bounds in
BENCHMARK.json.

    python3 perfbench/spread.py --workload train --seeds 1 10

runs the benchmark once per seed (one after another, never in parallel),
then prints for each end-to-end metric the median, the quartile spread
(Q3 - Q1) / median and the metric's bound.  A steady metric spreads less
than a third of its bound; ``setup_s`` is exempt from the spread rule (only
its median is compared between sets of runs).  Results go to
``.perfbench/spread-<workload>-<first>-<last>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path.cwd()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", nargs=2, type=int, required=True, metavar=("FIRST", "LAST"))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    out = ROOT / ".perfbench" / f"spread-{args.workload}-{args.seeds[0]}-{args.seeds[1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) >= 2 else float("nan")
        verdict = ("exempt" if m["name"] == "setup_s" else
                   "ok" if spread < m["bound"] / 3 else "WIDE")
        print(f"{args.workload} {m['name']}: median {statistics.median(values):.6g} "
              f"{m['unit']}, spread {spread:.4f} (bound {m['bound']}; {verdict})")
    print(f"all correct: {all(r['correct'] for r in runs)}")


if __name__ == "__main__":
    main()
