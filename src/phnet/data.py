"""Synthetic anisotropic volumes, raw+header file I/O, spacing resampling,
and patch sampling.

Conventions: in-memory grids are (D, H, W) — depth/through-plane axis first —
while ``spacing_mm`` is always quoted (x, y, z) as in scan metadata, so
``spacing_mm[2]`` is the through-plane spacing of grid axis 0.  On disk a
volume is a pair ``<base>.hdr`` (JSON: dims [x,y,z], spacing_mm [x,y,z],
dtype, byte_order) plus ``<base>.raw`` (contiguous little-endian scalars,
x fastest — exactly the C-order bytes of the (D, H, W) grid).

Resampling is center-aligned and clamps to the edge: nearest-neighbour for
labels, trilinear for images.  It gathers source voxels with ``take`` one
axis at a time, which copies the same elements as one ``np.ix_`` gather.
"""

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Volume",
    "LabelVolume",
    "SyntheticSpec",
    "generate_synthetic_case",
    "resample_to_spacing",
    "resample_to_grid",
    "sample_patches",
    "read_volume",
    "write_volume",
    "write_manifest",
    "read_manifest",
    "read_json",
    "parse_json",
    "atomic_write",
    "zscore",
]

# labels are uint8 class ids, so a segmentation has at most 256 classes
MAX_CLASSES = 256


@dataclass
class Volume:
    grid: np.ndarray          # (D, H, W) float32
    spacing_mm: tuple         # (x, y, z)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float32)
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        _check_spacing(self.spacing_mm)
        if self.grid.ndim != 3:
            raise ValueError(f"volume grid must be 3D, got shape {self.grid.shape}")
        if not np.isfinite(self.grid).all():
            raise ValueError("volume grid contains non-finite values")


@dataclass
class LabelVolume:
    grid: np.ndarray          # (D, H, W) uint8 class ids
    spacing_mm: tuple         # (x, y, z)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.uint8)
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        _check_spacing(self.spacing_mm)
        if self.grid.ndim != 3:
            raise ValueError(f"label grid must be 3D, got shape {self.grid.shape}")


def _check_spacing(spacing):
    if len(spacing) != 3 or any(s <= 0 or not math.isfinite(s) for s in spacing):
        raise ValueError(f"spacing must be 3 positive reals (x,y,z), got {spacing}")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic case: per-class ellipsoidal blobs whose mean
    intensity is their class id, on a noisy background of mean 0.  Blob
    radii are in millimetres, so anisotropic spacing renders them as
    voxel-space ellipsoids.  Later classes overwrite earlier ones where
    blobs overlap."""

    shape: tuple = (32, 64, 64)               # (D, H, W)
    spacing_mm: tuple = (1.0, 1.0, 4.0)       # (x, y, z)
    num_classes: int = 2
    blobs_per_class: tuple = (1, 3)           # inclusive count range
    radius_range_mm: tuple = (10.0, 16.0)
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise ValueError(f"num_classes must lie in [2, {MAX_CLASSES}] (labels are uint8), "
                             f"got {self.num_classes}")
        if not 0 <= self.blobs_per_class[0] <= self.blobs_per_class[1]:
            raise ValueError(f"blobs_per_class must be a range 0 <= lo <= hi, "
                             f"got {self.blobs_per_class}")
        if not 0 < self.radius_range_mm[0] <= self.radius_range_mm[1]:
            raise ValueError(f"radius_range_mm must hold radii 0 < lo <= hi, "
                             f"got {self.radius_range_mm}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        _check_spacing(self.spacing_mm)


def generate_synthetic_case(spec):
    """Deterministic (Volume, LabelVolume) pair for ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    D, H, W = spec.shape
    sx, sy, sz = spec.spacing_mm
    # voxel center coordinates in mm, grid axes (z, y, x)
    zc = (np.arange(D) + 0.5) * sz
    yc = (np.arange(H) + 0.5) * sy
    xc = (np.arange(W) + 0.5) * sx
    extent = (D * sz, H * sy, W * sx)

    labels = np.zeros(spec.shape, dtype=np.uint8)
    r_lo, r_hi = spec.radius_range_mm
    for cls in range(1, spec.num_classes):
        count = int(rng.integers(spec.blobs_per_class[0], spec.blobs_per_class[1] + 1))
        for _ in range(count):
            radii = rng.uniform(r_lo, r_hi, size=3)  # (z, y, x) mm
            if any(2 * r > e for r, e in zip(radii, extent)):
                raise ValueError(
                    f"class {cls}: blob radii {tuple(round(float(r), 3) for r in radii)} mm "
                    f"do not fit the volume extent {extent} mm")
            center = tuple(rng.uniform(r, e - r) for r, e in zip(radii, extent))
            dist2 = (((zc - center[0]) / radii[0])[:, None, None] ** 2
                     + ((yc - center[1]) / radii[1])[None, :, None] ** 2
                     + ((xc - center[2]) / radii[2])[None, None, :] ** 2)
            labels[dist2 <= 1.0] = cls

    image = labels.astype(np.float64)
    image += rng.normal(0.0, spec.noise_sigma, size=spec.shape)
    return (Volume(image.astype(np.float32), spec.spacing_mm),
            LabelVolume(labels, spec.spacing_mm))


def zscore(grid):
    """Per-volume z-score normalization (population std, eps-guarded)."""
    g = np.asarray(grid, dtype=np.float32)
    std = float(g.std())
    return (g - float(g.mean())) / (std if std > 1e-8 else 1.0)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _axis_map(n_src, n_dst, s_src, s_dst):
    """Center-aligned source coordinates of each destination voxel center."""
    return (np.arange(n_dst) + 0.5) * (s_dst / s_src) - 0.5


def resample_to_grid(v, dst_dims, dst_spacing):
    """Resample onto an explicit (D,H,W) destination grid, center-aligned,
    clamp-to-edge: trilinear for images, nearest-neighbor for labels.

    Source voxels are gathered one axis at a time (``take`` along z, then
    y, then x), which picks the same elements as one ``np.ix_`` gather of
    the three index vectors, so the result is bitwise that gather's, with
    less index arithmetic.  The trilinear branch shares the z and the (z, y)
    gathers among the corners that use them."""
    if any(n < 1 for n in dst_dims):
        raise ValueError(f"degenerate output dims {tuple(dst_dims)}")
    _check_spacing(dst_spacing)
    grid = v.grid
    # per grid axis (z, y, x): spacing index 2, 1, 0
    maps = [_axis_map(grid.shape[a], dst_dims[a], v.spacing_mm[2 - a], dst_spacing[2 - a])
            for a in range(3)]
    if isinstance(v, LabelVolume):
        idx = [np.clip(np.floor(m + 0.5).astype(np.int64), 0, grid.shape[a] - 1)
               for a, m in enumerate(maps)]
        return LabelVolume(grid.take(idx[0], 0).take(idx[1], 1).take(idx[2], 2), dst_spacing)

    lo, frac = [], []
    for a, m in enumerate(maps):
        i0 = np.floor(m).astype(np.int64)
        frac.append(m - i0)
        lo.append(i0)
    # corners are gathered from the float32 grid: ``w * corner`` widens them
    # to float64 exactly, so no float64 copy of the whole grid is made
    out = np.zeros(tuple(dst_dims), dtype=np.float64)
    for bz in (0, 1):
        wz = (1.0 - frac[0]) if bz == 0 else frac[0]
        gz = grid.take(np.clip(lo[0] + bz, 0, grid.shape[0] - 1), 0)
        for by in (0, 1):
            wy = (1.0 - frac[1]) if by == 0 else frac[1]
            gzy = gz.take(np.clip(lo[1] + by, 0, grid.shape[1] - 1), 1)
            for bx in (0, 1):
                wx = (1.0 - frac[2]) if bx == 0 else frac[2]
                ix = np.clip(lo[2] + bx, 0, grid.shape[2] - 1)
                w = wz[:, None, None] * wy[None, :, None] * wx[None, None, :]
                out += w * gzy.take(ix, 2)
    return Volume(out.astype(np.float32), dst_spacing)


def resample_to_spacing(v, target_spacing):
    """Resample to a new (x,y,z) spacing; output dims round(n * s/t) per axis."""
    _check_spacing(target_spacing)
    dims = tuple(int(round(v.grid.shape[a] * v.spacing_mm[2 - a] / target_spacing[2 - a]))
                 for a in range(3))
    if any(n < 1 for n in dims):
        raise ValueError(
            f"degenerate output dims {dims} for target spacing {tuple(target_spacing)}")
    return resample_to_grid(v, dims, tuple(target_spacing))


# ---------------------------------------------------------------------------
# patch sampling
# ---------------------------------------------------------------------------

def sample_patches(v, labels, patch_size, n, fg_bias, rng):
    """Sample ``n`` aligned (image, label) patches of grid size (D,H,W)
    ``patch_size``.  With probability ``fg_bias`` the patch is centered on a
    uniformly chosen foreground voxel (when any exists), then clamped to fit
    — so the chosen voxel always stays inside the patch."""
    grid, lab = v.grid, labels.grid
    if grid.shape != lab.shape:
        raise ValueError(f"image {grid.shape} and label {lab.shape} shapes differ")
    ps = tuple(int(p) for p in patch_size)
    if any(p > s for p, s in zip(ps, grid.shape)):
        raise ValueError(f"patch {ps} larger than volume {grid.shape}")
    fg = np.argwhere(lab > 0)
    out = []
    for _ in range(n):
        if len(fg) and rng.random() < fg_bias:
            center = fg[rng.integers(len(fg))]
        else:
            center = [rng.integers(s) for s in grid.shape]
        start = [int(np.clip(c - p // 2, 0, s - p))
                 for c, p, s in zip(center, ps, grid.shape)]
        sl = tuple(slice(st, st + p) for st, p in zip(start, ps))
        out.append((grid[sl].copy(), lab[sl].copy()))
    return out


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def write_volume(base_path, v):
    """Write ``<base>.hdr`` + ``<base>.raw``; images as f32, labels as u8.
    Each file is written through ``atomic_write``, the payload first, so a
    write that fails leaves no partial file, and never a header without its
    payload."""
    base = str(base_path)
    dtype_name = "u8" if isinstance(v, LabelVolume) else "f32"
    grid = np.ascontiguousarray(v.grid, dtype=_DTYPES[dtype_name])
    d, h, w = grid.shape
    header = {"dims": [w, h, d],
              "spacing_mm": list(v.spacing_mm),
              "dtype": dtype_name,
              "byte_order": "little"}
    with atomic_write(base + ".raw", "wb") as f:
        f.write(grid.tobytes())
    with atomic_write(base + ".hdr", "w", encoding="utf-8") as f:
        json.dump(header, f, indent=1)
        f.write("\n")


def _is_triple(value, types):
    """A JSON list of 3 values of ``types`` (bools, which are ints, excluded)."""
    return (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, types) and not isinstance(v, bool) for v in value))


def _is_spacing(value):
    """A JSON list of 3 positive finite numbers."""
    return _is_triple(value, (int, float)) and all(0 < s < math.inf for s in value)


def read_volume(base_path):
    """Read a volume pair; returns Volume (f32) or LabelVolume (u8).  The
    payload is read straight into the returned grid."""
    base = str(base_path)
    header = read_json(base + ".hdr")
    if not isinstance(header, dict):
        raise ValueError(f"{base}.hdr: header is not a JSON object")
    for key in ("dims", "spacing_mm", "dtype", "byte_order"):
        if key not in header:
            raise ValueError(f"{base}.hdr: missing field {key!r}")
    if header["byte_order"] != "little":
        raise ValueError(f"{base}.hdr: unsupported byte_order {header['byte_order']!r}")
    if not isinstance(header["dtype"], str) or header["dtype"] not in _DTYPES:
        raise ValueError(f"{base}.hdr: unknown dtype {header['dtype']!r}")
    dims, spacing = header["dims"], header["spacing_mm"]
    if not (_is_triple(dims, (int,)) and all(n >= 1 for n in dims)):
        raise ValueError(f"{base}.hdr: dims must be 3 positive ints, got {dims!r}")
    if not _is_spacing(spacing):
        raise ValueError(
            f"{base}.hdr: spacing_mm must be 3 positive finite numbers, got {spacing!r}")
    w, h, d = dims
    dt = _DTYPES[header["dtype"]]
    expected = w * h * d * dt.itemsize
    with open(base + ".raw", "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == expected:
            grid = np.empty((d, h, w), dtype=dt)
            size = f.readinto(grid)
    if size != expected:
        raise ValueError(
            f"{base}.raw: payload is {size} bytes, dims {dims} require {expected}")
    if header["dtype"] == "f32" and not np.isfinite(grid).all():
        raise ValueError(f"{base}.raw: volume grid contains non-finite values")
    if header["dtype"] == "u8":
        return LabelVolume(grid, spacing)
    return Volume(grid, spacing)


def write_manifest(path, cases, extra=None):
    """Dataset manifest: case ids with split assignment plus dataset-level
    fields (num_classes, spacing, shape...), written through
    ``atomic_write``."""
    doc = {"cases": [{"id": cid, "split": split} for cid, split in cases]}
    doc.update(extra or {})
    with atomic_write(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_manifest(path):
    """Read a dataset manifest; raises ``ValueError`` unless it is an object
    with a 'cases' list of objects with a string 'id' and an optional string
    'split', and its optional 'spacing_mm' and 'num_classes' are valid."""
    doc = read_json(path)
    if not (isinstance(doc, dict) and isinstance(doc.get("cases"), list)):
        raise ValueError(f"{path}: manifest has no 'cases' list")
    for e in doc["cases"]:
        if not (isinstance(e, dict) and isinstance(e.get("id"), str)
                and isinstance(e.get("split", ""), str)):
            raise ValueError(f"{path}: malformed case entry {e!r}")
    for key, valid, want in (("spacing_mm", _is_spacing, "3 positive finite numbers"),
                             ("num_classes", lambda n: type(n) is int and 2 <= n <= MAX_CLASSES,
                              f"an int in [2, {MAX_CLASSES}]")):
        if key in doc and not valid(doc[key]):
            raise ValueError(f"{path}: {key} must be {want}, got {doc[key]!r}")
    return doc


def parse_json(raw, where):
    """The UTF-8 JSON document ``raw`` (bytes); malformed input raises
    ``ValueError`` prefixed by ``where``, the file (and line) it came from."""
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as e:            # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{where}: not valid JSON ({e})") from None


def read_json(path):
    """The JSON document in file ``path``; ``ValueError`` naming the file
    unless it holds UTF-8 JSON."""
    with open(path, "rb") as f:
        return parse_json(f.read(), path)


@contextmanager
def atomic_write(path, mode, **open_kwargs):
    """Write ``path`` through a temporary file beside it: a clean exit syncs
    the file and moves it over ``path`` with one ``os.replace``, an exception
    deletes it.  A reader never sees a partial file, and a failed write
    leaves the previous ``path`` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
