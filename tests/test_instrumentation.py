"""The traced benchmark run (``perfbench/spans.py``) wraps phnet functions and
methods by module and name at run time.  Renaming or deleting one of them
breaks that run without failing any other test, and so does a forward pass
that bypasses a wrapped function (its MACs go uncounted and the run's FLOP
cross-check fails), so instrument this tree here and run one traced forward."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_FORWARD = """
import json, sys
sys.path[:0] = sys.argv[1:]
import numpy as np
from spans import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from phnet.autograd import Tensor
from phnet.model import PHNet, PHNetConfig
cfg = PHNetConfig(num_stages=2, base_channels=4, max_channels=8, num_classes=2,
                  voxel_spacing_mm=(1, 1, 2), patch_size=(8, 8, 4),
                  blocks_per_stage=1)
net = PHNet(cfg, seed=0)
tracer.enabled = True
net(Tensor(np.zeros((1, 1, 4, 8, 8), dtype=np.float32)))
print(json.dumps({"counts": tracer.counts, "flop_checks": tracer.flop_checks}))
"""


def test_benchmark_instrumentation_finds_every_wrapped_name():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_FORWARD, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["counts"].get("layers.linear.macs", 0) > 0
    [(_, counted, count_flops)] = out["flop_checks"]
    assert counted == count_flops > 0


TRACED_STEP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import env
env.prepare()
import numpy as np
from spans import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from phnet import autograd, metrics
from phnet.model import PHNet, PHNetConfig
cfg = PHNetConfig(num_stages=4, base_channels=4, max_channels=16, num_classes=2,
                  voxel_spacing_mm=(1, 1, 2), patch_size=(16, 16, 8),
                  blocks_per_stage=1)
net = PHNet(cfg, seed=0)
rng = np.random.default_rng(0)
x = rng.normal(size=(2, 1, 8, 16, 16)).astype(np.float32)
y = rng.integers(0, 2, size=(2, 8, 16, 16))
tracer.enabled = True
loss = metrics.dice_ce_loss(net(autograd.Tensor(x)), y)
ops = [n._op for n in autograd.trace(loss)]
autograd.backward(loss)
with autograd.no_grad():
    net(autograd.Tensor(x[:1]))
print(json.dumps({"counts": tracer.counts, "flop_checks": tracer.flop_checks, "ops": ops,
                  "skip_stages": sum(s.proj is not None for s in net.decoder)}))
"""


def test_traced_step_counts_the_flops_of_every_forward():
    # the --trace 1 contract on a 4-stage net whose decoder joins skips: every
    # traced forward, with and without the tape, counts exactly the FLOPs of
    # PHNet.count_flops, and the backward reports the tape it walks
    proc = subprocess.run([sys.executable, "-c", TRACED_STEP, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["skip_stages"] == 3
    assert len(out["flop_checks"]) == 2
    for _, counted, expected in out["flop_checks"]:
        assert counted == expected > 0
    assert out["counts"]["autograd.tape_nodes"] == len(out["ops"])
    assert "concat" not in out["ops"]


TRACED_SPLIT_STEP = """
import json, os, sys, threading
sys.path.insert(0, sys.argv[1])
import env
env.prepare()
import numpy as np
from spans import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from phnet import autograd, metrics
from phnet.model import PHNet, PHNetConfig
os.sched_getaffinity = lambda pid: {0, 1}
cfg = PHNetConfig(num_stages=4, base_channels=4, max_channels=16, num_classes=2,
                  voxel_spacing_mm=(1, 1, 2), patch_size=(16, 16, 8),
                  blocks_per_stage=1)
net = PHNet(cfg, seed=0)
rng = np.random.default_rng(0)
x = rng.normal(size=(4, 1, 8, 16, 16)).astype(np.float32)
y = rng.integers(0, 2, size=(4, 8, 16, 16))
tracer.enabled = True
loss = metrics.dice_ce_loss([net(autograd.Tensor(x[:2])), net(autograd.Tensor(x[2:]))], y)
branches = len(autograd._disjoint_branches(loss))
autograd.backward(loss)
tracer.enabled = False
spans = [s for s in tracer.spans if s[0].startswith("autograd.backward.")]
print(json.dumps({"flop_checks": tracer.flop_checks, "branches": branches,
                  "closed": all(s[2] is not None for s in tracer.spans),
                  "closure_spans": len(spans), "threads": threading.active_count(),
                  "grads_finite": all(bool(np.isfinite(p.grad).all())
                                      for p in net.parameters())}))
"""


def test_traced_half_batch_step_counts_each_forward_and_walks_both_branches():
    # a training step of two half-batches under --trace 1: each forward
    # counts exactly its FLOPs, and the worker's closure spans close even
    # though they share the tracer's one span stack with the caller's
    proc = subprocess.run([sys.executable, "-c", TRACED_SPLIT_STEP, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["branches"] == 2
    assert len(out["flop_checks"]) == 2
    for _, counted, expected in out["flop_checks"]:
        assert counted == expected > 0
    assert out["closed"] and out["closure_spans"] > 0
    assert out["threads"] == 1 and out["grads_finite"]
