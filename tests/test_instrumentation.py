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
cfg = PHNetConfig(num_stages=2, base_channels=4, max_channels=8, in_channels=1,
                  num_classes=2, voxel_spacing_mm=(1, 1, 2), patch_size=(8, 8, 4),
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
