"""The benchmark's three closed-loop workloads: one client issues the next
operation only after the previous one has returned.

* ``train``: one optimizer step of ``phnet.harness.train`` on the demo config.
* ``infer``: ``predict_label_volume`` on one volume larger than the window.
* ``eval``: one ``phnet.harness.evaluate`` call on a trained checkpoint.

Inputs come from the workload seed only.  Each operation is checked; a check
that fails or an operation that raises makes the operation failed.  Set-up
that would inflate the workload's peak RSS (the float64 reference and the
set-up training) runs in a child process (``child.py``) that this process
waits for.
"""

import json
import math
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from phnet import harness
from phnet.data import (
    LabelVolume,
    SyntheticSpec,
    generate_synthetic_case,
    read_volume,
    write_manifest,
    write_volume,
)
from phnet.harness import TrainConfig, read_runlog
from phnet.model import PHNet, PHNetConfig

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120


def load_spec():
    """Recorded facts and check thresholds of every workload."""
    with open(HERE / "workloads.json", encoding="utf-8") as f:
        return json.load(f)


@dataclass
class Op:
    """One attempted operation.  Only ``timed`` ones (past warm-up, and
    returned rather than raised) enter the timings."""

    seconds: float
    ok: bool
    timed: bool
    traced: bool
    voxels: int


def _traced(trace, i, warmup):
    """After warm-up, a traced run traces every other operation, so traced
    and untraced operations alternate and the tracing overhead shows."""
    return trace and i >= warmup and (i - warmup) % 2 == 0


def write_dataset(root, seed, data):
    """Synthetic dataset from a recorded ``data`` spec.  Case ``i`` uses seed
    1000 * s + i, where s is the group's ``fixed_seed`` if it has one and the
    workload seed otherwise."""
    root.mkdir(parents=True, exist_ok=True)
    cases = []
    for group in data["groups"]:
        for _ in range(group["cases"]):
            i = len(cases)
            vol, lab = generate_synthetic_case(SyntheticSpec(
                shape=tuple(group["shape_dhw"]), spacing_mm=tuple(group["spacing_mm"]),
                num_classes=data["num_classes"], blobs_per_class=tuple(data["blobs"]),
                radius_range_mm=tuple(data["radius_mm"]),
                seed=1000 * group.get("fixed_seed", seed) + i))
            cid = f"case_{i:03d}"
            write_volume(root / f"{cid}_img", vol)
            write_volume(root / f"{cid}_lbl", lab)
            cases.append((cid, group["split"]))
    write_manifest(root / "manifest.json", cases,
                   extra={"num_classes": data["num_classes"],
                          "spacing_mm": data["model_spacing_mm"]})
    return cases


def run_child(task, **kwargs):
    """Run one ``child.py`` task to completion; raises when it fails."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), task, json.dumps(kwargs)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"set-up task {task!r} exited with {proc.returncode}")


def train_config(fields, data_dir, out_dir, seed, epochs):
    """``TrainConfig`` from the recorded fields; validation at the last epoch
    only."""
    return TrainConfig(data_dir=str(data_dir), out_dir=str(out_dir), epochs=epochs,
                       val_interval=epochs, seed=seed,
                       **{k: tuple(v) if isinstance(v, list) else v
                          for k, v in fields.items()})


def model_config(m):
    return PHNetConfig(num_stages=m["num_stages"], base_channels=m["base_channels"],
                       num_classes=m["num_classes"], voxel_spacing_mm=tuple(m["spacing_mm"]),
                       patch_size=tuple(m["patch_size"]))


def peak_rss_mb():
    """Lifetime peak RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _checked(check, result):
    """``check(result)``; a check that raises fails the operation."""
    try:
        return bool(check(result))
    except Exception:
        traceback.print_exc()
        return False


# ---------------------------------------------------------------------------
# closed loop for infer and eval
# ---------------------------------------------------------------------------

def closed_loop(run, check, voxels, *, seconds, warmup, min_timed, tracer, trace):
    """Issue operations back to back until ``seconds`` have passed since the
    first one began and ``min_timed`` operations followed the warm-up."""
    ops = []
    t_first = time.perf_counter()
    i = 0
    while i < warmup + min_timed or time.perf_counter() - t_first < seconds:
        traced = _traced(trace, i, warmup)
        tracer.op, tracer.enabled = i, traced
        start = time.perf_counter()
        try:
            result = run()
        except Exception:  # a raising operation is a failed one; keep going
            tracer.enabled = False
            traceback.print_exc()
            ops.append(Op(time.perf_counter() - start, False, False, traced, voxels))
        else:
            elapsed = time.perf_counter() - start
            tracer.enabled = False
            ok = _checked(check, result)
            ops.append(Op(elapsed, ok, i >= warmup, traced, voxels))
        i += 1
    return ops


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Train:
    """Steps of ``harness.train``.  Step times are the differences of the
    run log's ``wall_time_s``.  The warm-up is a separate two-step
    ``train()`` run of the same seed whose losses the measured run must
    repeat bitwise."""

    def __init__(self, spec, seed, work, tracer, trace):
        self.spec, self.seed, self.work = spec, seed, work
        self.tracer, self.trace = tracer, trace
        write_dataset(work / "data", seed, spec["data"])
        tc = spec["train_config"]
        self.voxels = tc["batch_size"] * math.prod(tc["patch_size"])
        self.first_op_start = None      # monotonic, like the run log

    def _train(self, name, epochs, stop):
        """One ``train()`` run stopped by ``stop(step)`` after a logged step;
        returns the step records."""
        cfg = train_config(self.spec["train_config"], self.work / "data",
                           self.work / name, self.seed, epochs)
        orig_meta, orig_step = harness.RunLog.log_meta, harness.RunLog.log_step
        tracer, warmup = self.tracer, self.spec["warmup_ops"]
        first_op = self.next_op

        def log_meta(log, **fields):
            if self.first_op_start is None:
                self.first_op_start = time.monotonic()
            tracer.op = first_op
            tracer.enabled = _traced(self.trace, first_op, warmup)
            orig_meta(log, **fields)

        def log_step(log, step, epoch, loss, lr):
            orig_step(log, step, epoch, loss, lr)
            tracer.enabled = False
            self.traced_ops.append(_traced(self.trace, self.next_op, warmup))
            self.next_op += 1
            if stop(step):
                raise _Stop
            tracer.op = self.next_op
            tracer.enabled = _traced(self.trace, self.next_op, warmup)

        harness.RunLog.log_meta, harness.RunLog.log_step = log_meta, log_step
        try:
            harness.train(cfg)
        except _Stop:
            pass
        except Exception:  # the step in progress failed; report, not crash
            traceback.print_exc()
            self.crashed += 1
        finally:
            harness.RunLog.log_meta, harness.RunLog.log_step = orig_meta, orig_step
            tracer.enabled = False
        records = read_runlog(self.work / name / "runlog.jsonl")
        return [r for r in records if r["kind"] in ("meta", "step")]

    def run(self, seconds):
        warmup, min_timed = self.spec["warmup_ops"], self.spec["min_timed_ops"]
        self.next_op, self.traced_ops, self.crashed = 0, [], 0
        epochs = self.spec["max_epochs"]
        ref = self._train("warmup", epochs, lambda step: step >= warmup)

        def stop(step):
            return (step >= min_timed
                    and time.monotonic() - self.first_op_start >= seconds - 1e-9)

        main = self._train("measured", epochs, stop)
        ops = []
        for recs, timed in ((ref, False), (main, True)):
            walls = [r["wall_time_s"] for r in recs]
            for k, rec in enumerate(recs[1:]):
                loss = rec["loss"]
                ok = math.isfinite(loss)
                if timed and k < len(ref) - 1:
                    ok = ok and loss == ref[k + 1]["loss"]
                ops.append(Op(walls[k + 1] - walls[k], ok, timed,
                              self.traced_ops[len(ops)], self.voxels))
        ops += [Op(0.0, False, False, False, self.voxels) for _ in range(self.crashed)]
        losses = [r["loss"] for r in main[1:]]
        if len(losses) < 2 or not losses[-1] < losses[0]:
            print(f"train: losses {losses} do not fall", file=sys.stderr)
            ops[-1].ok = False
        return ops


class _Stop(Exception):
    """Ends a ``train()`` run from inside its step loop."""


class Infer:
    """``predict_label_volume`` on one volume, again and again."""

    def __init__(self, spec, seed, work):
        self.spec = spec
        m = spec["model"]
        self.cfg = model_config(m)
        self.vol, _ = generate_synthetic_case(SyntheticSpec(
            shape=tuple(spec["shape_dhw"]), spacing_mm=tuple(m["spacing_mm"]),
            num_classes=m["num_classes"], seed=seed))
        write_volume(work / "vol", self.vol)
        self.net = PHNet(self.cfg, seed=seed)
        run_child("reference", work=str(work), seed=seed, model=m)
        self.ref = read_volume(work / "ref").grid
        self.first = None
        self.voxels = math.prod(spec["shape_dhw"])

    def op(self):
        return harness.predict_label_volume(self.net, self.vol, self.cfg)

    def check(self, pred):
        g = pred.grid
        if not (isinstance(pred, LabelVolume) and g.shape == self.vol.grid.shape
                and g.dtype == np.uint8 and int(g.max()) < self.cfg.num_classes):
            return False
        if self.first is None:
            self.first = g
        elif not np.array_equal(g, self.first):
            return False
        return float((g == self.ref).mean()) >= self.spec["min_reference_agreement"]


class Eval:
    """``harness.evaluate`` on one val split per call, the splits taken in
    turn so that a run's median spans every split's cases.  The checkpoint
    is trained in set-up on train cases and with a training seed that are
    the same for every workload seed, so every run scores one model; the val
    cases come from the workload seed."""

    def __init__(self, spec, seed, work):
        self.spec = spec
        d = spec["data"]
        cases = write_dataset(work / "data", seed, d)
        run_child("checkpoint", work=str(work), seed=spec["setup_seed"],
                  train_config=spec["train_config"], epochs=spec["setup_epochs"])
        self.ckpt = work / "setup" / "best.ckpt"
        self.data = work / "data"
        self.splits = [g["split"] for g in d["groups"] if g["split"] != "train"]
        self.expected = {s: {(cid, c) for cid, split in cases if split == s
                             for c in range(1, d["num_classes"])}
                         for s in self.splits}
        scored = [g for g in d["groups"] if g["split"] != "train"]
        if len({g["cases"] * math.prod(g["shape_dhw"]) for g in scored}) != 1:
            raise ValueError("eval splits must hold equal numbers of voxels")
        self.voxels = scored[0]["cases"] * math.prod(scored[0]["shape_dhw"])
        self.calls = 0
        self.first = {}

    def op(self):
        self.split = self.splits[self.calls % len(self.splits)]
        self.calls += 1
        return harness.evaluate(self.ckpt, self.data, split=self.split)

    def check(self, rows):
        keys = [(r["case"], r["class"]) for r in rows]
        if len(keys) != len(self.expected[self.split]) or set(keys) != self.expected[self.split]:
            return False
        if any(r.get("error") for r in rows):
            return False
        if rows != self.first.setdefault(self.split, rows):
            return False
        mean_dice = sum(r["dice"] for r in rows) / len(rows)
        return mean_dice >= self.spec["dice_floor"]


CLOSED_LOOP = {"infer": Infer, "eval": Eval}


def run(name, seed, seconds, work, tracer, trace):
    """Set up and run workload ``name``.  Returns (ops, set-up end, peak RSS)
    with the set-up end on the ``time.monotonic`` clock."""
    spec = load_spec()[name]
    if name == "train":
        w = Train(spec, seed, work, tracer, trace)
        ops = w.run(seconds)
        return ops, w.first_op_start, peak_rss_mb()
    w = CLOSED_LOOP[name](spec, seed, work)
    setup_end = time.monotonic()
    ops = closed_loop(w.op, w.check, w.voxels, seconds=seconds,
                      warmup=spec["warmup_ops"], min_timed=spec["min_timed_ops"],
                      tracer=tracer, trace=trace)
    return ops, setup_end, peak_rss_mb()
