"""Segmentation quality metrics and the training loss.

Overlap metrics (Dice, IoU) work on voxel counts.  Distance metrics
(Hausdorff, surface Dice) extract boundary voxels under 6-connectivity —
a foreground voxel is boundary if any face neighbor is background or lies
outside the volume — and measure Euclidean distances between voxel centers
scaled by the physical spacing.  Undefined values (e.g. distances against an
empty mask) are reported as ``None`` rather than a sentinel number.

Boundary voxels are found on each mask's bounding box, not on the whole
grid.  This is exact: every voxel outside the box is background, as is the
zero padding around the crop, so each voxel keeps its boundary status, and
shifting the integer indices back gives the full grid's points bitwise, in
the same order.  Nearest distances come from a KD-tree of midpoint splits
with leaves of up to 32 points, which is quicker to build and to query than
the default median-split tree; an exact nearest-neighbour search returns the
same minimum whatever the splits and leaf size.  The tree is SciPy's
``cKDTree``, and ``scipy.spatial`` is imported by the first distance query,
not with this module, so training and inference never load it.

The training loss combines a smoothed soft-Dice term over foreground classes
with voxel-wise cross-entropy in one tape node of the tensor engine, whose
backward is the closed-form gradient of both terms.
"""

import csv
import math

import numpy as np

from . import autograd as ag
from .data import LabelVolume, atomic_write

__all__ = [
    "surface_mask",
    "surface_points_mm",
    "dice",
    "hausdorff",
    "surface_dice",
    "evaluate_case",
    "write_report_csv",
    "REPORT_COLUMNS",
    "dice_ce_loss",
]


# ---------------------------------------------------------------------------
# mask plumbing
# ---------------------------------------------------------------------------

def _class_mask(vol, class_id):
    if not isinstance(vol, LabelVolume):
        raise TypeError(f"expected LabelVolume, got {type(vol).__name__}")
    return vol.grid == int(class_id)


def _check_pair(pred, gt, physical):
    if pred.grid.shape != gt.grid.shape:
        raise ValueError(
            f"prediction shape {pred.grid.shape} != reference shape {gt.grid.shape}")
    if physical and pred.spacing_mm != gt.spacing_mm:
        raise ValueError(
            f"prediction spacing {pred.spacing_mm} != reference spacing "
            f"{gt.spacing_mm}")


def surface_mask(mask):
    """Boundary voxels of a boolean mask under 6-connectivity; voxels on the
    volume border with no in-bounds background neighbor still count."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 3:
        raise ValueError(f"mask must be 3D, got shape {m.shape}")
    p = np.pad(m, 1, constant_values=False)
    interior = (p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1]
                & p[1:-1, :-2, 1:-1] & p[1:-1, 2:, 1:-1]
                & p[1:-1, 1:-1, :-2] & p[1:-1, 1:-1, 2:])
    return m & ~interior


def surface_points_mm(mask, spacing_mm):
    """(n, 3) physical coordinates of boundary voxel centers, grid order
    (z, y, x) scaled by (spacing z, y, x), in raster order.

    The boundary is extracted on the mask's bounding box alone.  Every voxel
    outside the box is background, which is also what ``surface_mask`` pads
    the crop with, so each voxel in the box has the same boundary status as
    on the full grid.  Raster order is kept under translation, and the
    integer indices are shifted back before they are scaled, so the points
    are bitwise those of the full grid, in the same order."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 3:
        raise ValueError(f"mask must be 3D, got shape {m.shape}")
    plane = m.any(axis=0)                       # (H, W) shadow of the mask
    box = []
    for profile in (m.any(axis=(1, 2)), plane.any(axis=1), plane.any(axis=0)):
        hits = np.flatnonzero(profile)
        if len(hits) == 0:
            return np.empty((0, 3))
        box.append(slice(hits[0], hits[-1] + 1))
    idx = np.argwhere(surface_mask(m[tuple(box)]))
    idx += [s.start for s in box]
    scale = np.array([spacing_mm[2], spacing_mm[1], spacing_mm[0]])
    return idx.astype(np.float64) * scale[None, :]


def _directed_distances(src_pts, dst_pts):
    """d(s -> D) = min over dst of |s - d|, for every src point.  The tree
    splits each node by the sliding-midpoint rule, with no median search and
    no shrinking of the node boxes to their points, which builds faster; an
    exact search finds the same nearest distance however the tree is split.
    Leaves of up to 32 points make a shallower tree that queries faster.
    ``scipy.spatial`` is imported here, on the first call, so that a process
    that never scores a case does not load it."""
    from scipy.spatial import cKDTree

    tree = cKDTree(dst_pts, leafsize=32, compact_nodes=False, balanced_tree=False)
    dists, _ = tree.query(src_pts, k=1)
    return np.asarray(dists, dtype=np.float64)


# ---------------------------------------------------------------------------
# overlap metrics
# ---------------------------------------------------------------------------

def _class_masks(pred, gt, class_id):
    return _class_mask(pred, class_id), _class_mask(gt, class_id)


def _overlap_metrics(p, g, spacing_mm):
    """Dice, IoU and normalized volume difference of two boolean masks, all
    from one set of voxel counts."""
    n_p, n_g = int(p.sum()), int(g.sum())
    n_pg = int(np.logical_and(p, g).sum())
    voxel_mm3 = math.prod(spacing_mm)
    v_p, v_g = n_p * voxel_mm3, n_g * voxel_mm3
    return {"dice": 2.0 * n_pg / (n_p + n_g) if n_p + n_g else 1.0,
            "iou": n_pg / (n_p + n_g - n_pg) if n_p + n_g - n_pg else 1.0,
            "nvd_percent": 100.0 * abs(v_p - v_g) / v_g if v_g else None}


def dice(pred, gt, class_id):
    """2|P∩G| / (|P|+|G|); 1.0 when both masks are empty."""
    _check_pair(pred, gt, physical=False)
    return _overlap_metrics(*_class_masks(pred, gt, class_id), gt.spacing_mm)["dice"]


# ---------------------------------------------------------------------------
# distance metrics
# ---------------------------------------------------------------------------

def _surface_distances_of(p, g, spacing_mm):
    """Directed surface distances in mm between two masks, (p -> g, g -> p).
    Two empty arrays when both masks are empty; ``None`` when exactly one is."""
    p_pts = surface_points_mm(p, spacing_mm)
    g_pts = surface_points_mm(g, spacing_mm)
    if len(p_pts) == 0 and len(g_pts) == 0:
        return np.empty(0), np.empty(0)
    if len(p_pts) == 0 or len(g_pts) == 0:
        return None
    return _directed_distances(p_pts, g_pts), _directed_distances(g_pts, p_pts)


def _surface_distances(pred, gt, class_id):
    _check_pair(pred, gt, physical=True)
    return _surface_distances_of(*_class_masks(pred, gt, class_id), gt.spacing_mm)


def _hausdorff_of(dists, percentile):
    if percentile not in (95, 100):
        raise ValueError(f"percentile must be 95 or 100, got {percentile}")
    if dists is None or len(dists[0]) == 0:
        return None
    pooled = np.concatenate(dists)
    if percentile == 100:
        return float(pooled.max())
    return float(np.percentile(pooled, 95))


def _surface_dice_of(dists, tolerance_mm):
    if not tolerance_mm >= 0:
        raise ValueError(f"tolerance_mm must be >= 0, got {tolerance_mm}")
    if dists is None:
        return None
    d_pg, d_gp = dists
    if len(d_pg) == 0:
        return 1.0
    hits = int((d_pg <= tolerance_mm).sum()) + int((d_gp <= tolerance_mm).sum())
    return hits / (len(d_pg) + len(d_gp))


def hausdorff(pred, gt, class_id, percentile=95):
    """Percentile (95 or 100) of the pooled directed surface distances in mm,
    both directions pooled together.  ``None`` when either mask is empty."""
    return _hausdorff_of(_surface_distances(pred, gt, class_id), percentile)


def surface_dice(pred, gt, class_id, tolerance_mm):
    """Fraction of pooled surface points lying within ``tolerance_mm`` of the
    other surface.  1.0 when both masks are empty; ``None`` when exactly one
    is empty."""
    return _surface_dice_of(_surface_distances(pred, gt, class_id), tolerance_mm)


# ---------------------------------------------------------------------------
# per-case report
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("case", "class", "dice", "iou", "surface_dice",
                  "nvd_percent", "hausdorff_mm", "error")


def evaluate_case(pred, gt, num_classes, tolerance_mm=1.0, percentile=95):
    """All metrics for every foreground class; one dict per class.  Each
    class's two masks are built once; Dice, IoU and volume difference share one
    set of voxel counts, and surface Dice and Hausdorff one surface extraction and
    one distance query per direction."""
    _check_pair(pred, gt, physical=True)
    rows = []
    for c in range(1, num_classes):
        p, g = _class_masks(pred, gt, c)
        overlap = _overlap_metrics(p, g, gt.spacing_mm)
        dists = _surface_distances_of(p, g, gt.spacing_mm)
        rows.append({
            "class": c,
            "dice": overlap["dice"],
            "iou": overlap["iou"],
            "surface_dice": _surface_dice_of(dists, tolerance_mm),
            "nvd_percent": overlap["nvd_percent"],
            "hausdorff_mm": _hausdorff_of(dists, percentile),
        })
    return rows


def write_report_csv(path, rows):
    """CSV with one row per (case, class) plus a final mean row averaging each
    metric over its defined values.  ``None`` renders as an empty cell; rows
    carrying an ``error`` message contribute no metric values.  The file is
    written atomically."""
    metric_cols = [c for c in REPORT_COLUMNS if c not in ("case", "class", "error")]
    with atomic_write(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=REPORT_COLUMNS, restval="")
        writer.writeheader()
        sums = {c: [] for c in metric_cols}
        for row in rows:
            out = {k: ("" if row.get(k) is None else row.get(k, ""))
                   for k in REPORT_COLUMNS}
            writer.writerow(out)
            if not row.get("error"):
                for c in metric_cols:
                    if row.get(c) is not None:
                        sums[c].append(float(row[c]))
        mean_row = {"case": "mean", "class": "all", "error": ""}
        for c in metric_cols:
            mean_row[c] = (sum(sums[c]) / len(sums[c])) if sums[c] else ""
        writer.writerow(mean_row)


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

# soft-Dice smoothing: keeps the Dice of a class absent from both the
# prediction and the labels defined
_DICE_SMOOTH = 1e-5


def dice_ce_loss(logits, labels):
    """Soft-Dice loss over foreground classes plus mean voxel-wise
    cross-entropy, as one tape node.

    With p the softmax of ``logits`` over axis 1, y the one-hot labels, N the
    number of voxels, w_k = 1/(K-1) for each foreground class and sums over
    batch and space, s = 1e-5, I_k = sum p*y and S_k = sum p + sum y + s:
    loss = 1 - sum_k w_k (2 I_k + s) / S_k - sum y*log p / N.
    The backward is the closed form: with dp = w (2I + s) / S^2 - 2 w y / S,
    dlogits = p * (dp - sum_k p*dp) + (p - y) / N.

    ``logits`` may also be a sequence of batch parts, whose concatenation
    along the batch axis ``labels`` labels.  The node then has one parent
    per part and its backward returns one cotangent per part; the sums still
    run over the whole batch, each part's added in order.
    """
    parts = [logits] if isinstance(logits, ag.Tensor) else list(logits)
    if not parts:
        raise ValueError("dice_ce_loss: no batch parts")
    _, k, *spatial = parts[0].shape
    for z in parts[1:]:
        if z.shape[1:] != parts[0].shape[1:] or z.dtype != parts[0].dtype:
            raise ValueError(f"batch parts differ: {z.shape} {z.dtype} and "
                             f"{parts[0].shape} {parts[0].dtype}")
    b = sum(z.shape[0] for z in parts)
    lab = np.asarray(labels)
    if lab.shape != (b, *spatial):
        raise ValueError(f"labels shape {lab.shape} != expected {(b, *spatial)}")
    if lab.min() < 0 or lab.max() >= k:
        raise ValueError(
            f"label ids must lie in [0, {k}), got range "
            f"[{int(lab.min())}, {int(lab.max())}]")
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    dt = parts[0].dtype
    class_shape = (1, k) + (1,) * len(spatial)
    axes = (0,) + tuple(range(2, 2 + len(spatial)))
    n_vox = lab.size
    ps, ys = [], []
    lo = 0
    for part in parts:
        z = part.data
        m = z.max(axis=1, keepdims=True)
        logp = z - (np.log(np.exp(z - m).sum(axis=1, keepdims=True)) + m)
        p = np.exp(logp)
        y = (lab[lo:lo + len(z), None] == np.arange(k).reshape(class_shape)).astype(dt)
        lo += len(z)
        sums = ((p * y).sum(axis=axes), p.sum(axis=axes), y.sum(axis=axes),
                (logp * y).sum())
        # a single part's sums are the whole batch's, bit for bit
        total = sums if not ps else [t + u for t, u in zip(total, sums)]
        ps.append(p)
        ys.append(y)
    inter, p_sum, y_sum, log_lik = total
    s = _DICE_SMOOTH
    denom = p_sum + y_sum + s
    w = np.full(k, 1.0 / (k - 1), dtype=dt)
    w[0] = 0.0
    dice_fg = ((2.0 * inter + s) / denom * w).sum()
    loss = np.asarray(1.0 - dice_fg - log_lik / n_vox, dtype=dt)
    dp_y = (-2.0 * w / denom).reshape(class_shape)
    dp_0 = (w * (2.0 * inter + s) / (denom * denom)).reshape(class_shape)

    def bk(g):
        grads = []
        for p, y in zip(ps, ys):
            dp = y * dp_y
            dp += dp_0
            dz = dp - (p * dp).sum(axis=1, keepdims=True)
            dz *= p
            dz += (p - y) / n_vox
            dz *= g
            grads.append(dz)
        return grads

    return ag.make_node(loss, parts, "dice_ce_loss", bk)
