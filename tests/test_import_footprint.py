"""What a fresh process loads with phnet, checked in a subprocess so that no
module another test imported is counted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FRESH_IMPORT = """
import ctypes, json, sys
sys.path.insert(0, sys.argv[1])
import phnet, phnet.harness, phnet.cli

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "spatial"], ["scipy", "sparse"]))

out = {"after_import": heavy()}

import numpy as np
from phnet import layers
from phnet.data import LabelVolume
from phnet.metrics import evaluate_case

grid = np.zeros((6, 8, 8), np.uint8)
grid[1:5, 2:6, 2:6] = 1
case = LabelVolume(grid, (0.8, 0.8, 2.0))
out["rows"] = evaluate_case(case, case, num_classes=2)
out["spatial_after_scoring"] = "scipy.spatial" in sys.modules

import scipy.linalg
from scipy.linalg import cython_blas

get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
get_pointer.argtypes, get_pointer.restype = (ctypes.py_object, ctypes.c_char_p), ctypes.c_void_p
get_name = ctypes.pythonapi.PyCapsule_GetName
get_name.argtypes, get_name.restype = (ctypes.py_object,), ctypes.c_char_p
out["addresses"] = {}
for dtype, name in ((np.float32, "sgemm"), (np.float64, "dgemm")):
    capsule = cython_blas.__pyx_capi__[name]
    exported = get_pointer(capsule, get_name(capsule))
    called = ctypes.cast(layers._GEMMS[np.dtype(dtype)][0], ctypes.c_void_p).value
    out["addresses"][name] = [exported, called]
print(json.dumps(out))
"""


def test_train_and_infer_imports_leave_scipy_linalg_spatial_and_sparse_unloaded():
    """``import phnet.harness`` and the CLI load only the Cython BLAS module of
    ``scipy.linalg`` and nothing of ``scipy.spatial`` or ``scipy.sparse``;
    scoring still works, importing ``scipy.spatial`` itself; and a later
    ``import scipy.linalg`` exports the very GEMM addresses ``layers`` calls."""
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_import"] == ["scipy.linalg.cython_blas"]
    [row] = out["rows"]
    assert row["dice"] == row["surface_dice"] == 1.0
    assert row["hausdorff_mm"] == 0.0
    assert out["spatial_after_scoring"]
    for name, (exported, called) in out["addresses"].items():
        assert exported == called and exported, name
