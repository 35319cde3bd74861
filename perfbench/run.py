"""phnet benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload {train,infer,eval} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
The workload's inputs come from ``--seed`` alone.  Operations are issued
until ``--seconds`` have passed since the first one began and at least
``min_timed_ops`` (see ``workloads.json``) followed the warm-up; every one
is checked.  ``spread.py`` reruns a workload over a range of seeds and
reports each metric's run-to-run spread against its bound.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``op_s_p50``,
``voxels_per_s``, ``peak_rss_mb``); ``--trace 1`` traces every other
operation after warm-up and prints the per-layer metrics of ``report.py``,
writing the spans to ``.perfbench/trace-<workload>-seed<N>.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402

WORKLOADS = ("train", "infer", "eval")
E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "voxels_per_s": "voxel/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(ops, setup_s, peak_mb):
    timed = [o for o in ops if o.timed]
    wall = sum(o.seconds for o in timed)
    return {"setup_s": setup_s,
            "op_s_p50": statistics.median([o.seconds for o in timed]),
            "voxels_per_s": sum(o.voxels for o in timed) / wall,
            "peak_rss_mb": peak_mb}


def main(argv=None):
    args = parse_args(argv)
    env.prepare()
    import report
    import spans
    import stats
    import workloads

    machine = env.machine()
    print("machine: " + json.dumps(machine))
    tracer = spans.Tracer()
    if args.trace:
        spans.instrument(tracer)

    out_dir = env.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    try:
        ops, setup_end, peak_mb = workloads.run(
            args.workload, args.seed, args.seconds, Path(work), tracer, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = report.per_layer(tracer, ops)
        units = dict(report.PER_LAYER)
        mismatched = {op for op, counted, expected in tracer.flop_checks if counted != expected}
        for i in mismatched:
            ops[i].ok = False
    else:
        metrics = end_to_end(ops, setup_end - T_START, peak_mb)
        units = E2E_UNITS

    attempted = len(ops)
    failed = sum(not o.ok for o in ops)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_share = {stats.failed_share(failed, attempted):.6g} ratio "
          f"({failed} of {attempted} operations)")
    timed = [o.seconds for o in ops if o.timed]
    print(f"{args.workload} timed op_s = {[round(t, 4) for t in timed]}")
    tail = stats.tail_percentile(timed)
    if tail is None:
        print(f"{args.workload} op_s tail: none ({len(timed)} timed samples; "
              f"a percentile needs 10 samples beyond it)")
    else:
        p, value, beyond = tail
        print(f"{args.workload} op_s_p{p:g} = {value:.6g} s "
              f"({len(timed)} timed samples, {beyond} beyond it)")
    if args.trace:
        print(f"{args.workload} flop cross-check: {len(tracer.flop_checks) - len(mismatched)} of "
              f"{len(tracer.flop_checks)} traced forwards count exactly PHNet.count_flops")
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "machine": machine, "metrics": metrics})
        print(f"spans written to {path}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
