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
from phnet import layers, metrics
from phnet.data import LabelVolume

tree_types = set()
build_tree = metrics._kd_tree
def recording_kd_tree(pts):
    tree = build_tree(pts)
    tree_types.add(type(tree))
    return tree
metrics._kd_tree = recording_kd_tree

grid = np.zeros((6, 8, 8), np.uint8)
grid[1:5, 2:6, 2:6] = 1
case = LabelVolume(grid, (0.8, 0.8, 2.0))
out["rows"] = metrics.evaluate_case(case, case, num_classes=2)
out["loaded_after_scoring"] = {
    m: m in sys.modules for m in ("scipy.spatial._ckdtree", "scipy.spatial",
                                  "scipy.linalg", "scipy.special")}

import scipy.spatial
out["tree_types_are_scipy_spatial_cKDTree"] = [t is scipy.spatial.cKDTree for t in tree_types]

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
    scoring still works, loading the KD-tree module ``scipy.spatial._ckdtree``
    but not the ``scipy.spatial`` or ``scipy.linalg`` packages, nor
    ``scipy.special``; a later ``import scipy.spatial`` exposes the very
    ``cKDTree`` class the scorer built its trees with; and a later
    ``import scipy.linalg`` exports the very GEMM addresses ``layers`` calls."""
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_import"] == ["scipy.linalg.cython_blas"]
    [row] = out["rows"]
    assert row["dice"] == row["surface_dice"] == 1.0
    assert row["hausdorff_mm"] == 0.0
    assert out["loaded_after_scoring"] == {"scipy.spatial._ckdtree": True, "scipy.spatial": False,
                                           "scipy.linalg": False, "scipy.special": False}
    assert out["tree_types_are_scipy_spatial_cKDTree"] == [True]
    for name, (exported, called) in out["addresses"].items():
        assert exported == called and exported, name
