"""Segmentation quality metrics and the training loss.

Overlap metrics (Dice, IoU) work on voxel counts.  Distance metrics
(Hausdorff, surface Dice) extract boundary voxels under 6-connectivity —
a foreground voxel is boundary if any face neighbor is background or lies
outside the volume — and measure Euclidean distances between voxel centers
scaled by the physical spacing.  Undefined values (e.g. distances against an
empty mask) are reported as ``None`` rather than a sentinel number.

The training loss combines a smoothed soft-Dice term over foreground classes
with voxel-wise cross-entropy, both differentiable through the tensor engine.
"""

import csv
import math

import numpy as np
from scipy.spatial import cKDTree

from . import autograd as ag
from .data import LabelVolume

__all__ = [
    "surface_mask",
    "surface_points_mm",
    "dice",
    "iou",
    "hausdorff",
    "surface_dice",
    "nvd",
    "evaluate_case",
    "write_report_csv",
    "REPORT_COLUMNS",
    "cross_entropy",
    "soft_dice_loss",
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
    (z, y, x) scaled by (spacing z, y, x)."""
    idx = np.argwhere(surface_mask(mask)).astype(np.float64)
    scale = np.array([spacing_mm[2], spacing_mm[1], spacing_mm[0]])
    return idx * scale[None, :]


def _directed_distances(src_pts, dst_pts):
    """d(s -> D) = min over dst of |s - d|, for every src point."""
    dists, _ = cKDTree(dst_pts).query(src_pts, k=1)
    return np.asarray(dists, dtype=np.float64)


# ---------------------------------------------------------------------------
# overlap metrics
# ---------------------------------------------------------------------------

def dice(pred, gt, class_id):
    """2|P∩G| / (|P|+|G|); 1.0 when both masks are empty."""
    _check_pair(pred, gt, physical=False)
    p = _class_mask(pred, class_id)
    g = _class_mask(gt, class_id)
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(p, g).sum()) / denom


def iou(pred, gt, class_id):
    """|P∩G| / |P∪G|; 1.0 when both masks are empty."""
    _check_pair(pred, gt, physical=False)
    p = _class_mask(pred, class_id)
    g = _class_mask(gt, class_id)
    union = int(np.logical_or(p, g).sum())
    if union == 0:
        return 1.0
    return int(np.logical_and(p, g).sum()) / union


# ---------------------------------------------------------------------------
# distance metrics
# ---------------------------------------------------------------------------

def _surface_distances(pred, gt, class_id):
    """Directed surface distances in mm of one class, (pred -> gt, gt -> pred).
    Two empty arrays when both masks are empty; ``None`` when exactly one is."""
    _check_pair(pred, gt, physical=True)
    p_pts = surface_points_mm(_class_mask(pred, class_id), pred.spacing_mm)
    g_pts = surface_points_mm(_class_mask(gt, class_id), gt.spacing_mm)
    if len(p_pts) == 0 and len(g_pts) == 0:
        return np.empty(0), np.empty(0)
    if len(p_pts) == 0 or len(g_pts) == 0:
        return None
    return _directed_distances(p_pts, g_pts), _directed_distances(g_pts, p_pts)


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
    if tolerance_mm < 0:
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


def nvd(pred, gt, class_id):
    """Normalized volume difference: 100 * |V_pred - V_gt| / V_gt with
    volumes in mm^3.  ``None`` when the reference mask is empty."""
    _check_pair(pred, gt, physical=True)
    voxel_mm3 = math.prod(gt.spacing_mm)
    v_p = int(_class_mask(pred, class_id).sum()) * voxel_mm3
    v_g = int(_class_mask(gt, class_id).sum()) * voxel_mm3
    if v_g == 0:
        return None
    return 100.0 * abs(v_p - v_g) / v_g


# ---------------------------------------------------------------------------
# per-case report
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("case", "class", "dice", "iou", "surface_dice",
                  "nvd_percent", "hausdorff_mm", "error")


def evaluate_case(pred, gt, num_classes, tolerance_mm=1.0, percentile=95):
    """All metrics for every foreground class; one dict per class.  Surface
    Dice and Hausdorff share one surface extraction and one distance query
    per direction."""
    rows = []
    for c in range(1, num_classes):
        dists = _surface_distances(pred, gt, c)
        rows.append({
            "class": c,
            "dice": dice(pred, gt, c),
            "iou": iou(pred, gt, c),
            "surface_dice": _surface_dice_of(dists, tolerance_mm),
            "nvd_percent": nvd(pred, gt, c),
            "hausdorff_mm": _hausdorff_of(dists, percentile),
        })
    return rows


def write_report_csv(path, rows):
    """CSV with one row per (case, class) plus a final mean row averaging each
    metric over its defined values.  ``None`` renders as an empty cell; rows
    carrying an ``error`` message contribute no metric values."""
    metric_cols = [c for c in REPORT_COLUMNS if c not in ("case", "class", "error")]
    with open(path, "w", encoding="utf-8", newline="") as f:
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

def _check_labels(labels, num_classes, batch_shape):
    lab = np.asarray(labels)
    if lab.shape != batch_shape:
        raise ValueError(f"labels shape {lab.shape} != expected {batch_shape}")
    if lab.min() < 0 or lab.max() >= num_classes:
        raise ValueError(
            f"label ids must lie in [0, {num_classes}), got range "
            f"[{int(lab.min())}, {int(lab.max())}]")
    return lab.astype(np.int64)


def _one_hot(labels, num_classes, dtype):
    b, d, h, w = labels.shape
    eye = np.eye(num_classes, dtype=dtype)
    return np.moveaxis(eye[labels.reshape(-1)].reshape(b, d, h, w, num_classes),
                       -1, 1)


def cross_entropy(logits, labels):
    """Mean voxel-wise negative log-likelihood of the true class."""
    b, k, *spatial = logits.shape
    lab = _check_labels(labels, k, (b, *spatial))
    onehot = ag.Tensor(_one_hot(lab, k, logits.dtype), requires_grad=False)
    logp = ag.log_softmax(logits, axis=1)
    n_vox = lab.size
    return ag.scale((logp * onehot).sum(), -1.0 / n_vox)


def soft_dice_loss(logits, labels, smooth=1e-5):
    """1 - mean over foreground classes of the smoothed soft Dice between
    softmax probabilities and the one-hot reference, pooled over batch and
    space."""
    b, k, *spatial = logits.shape
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    lab = _check_labels(labels, k, (b, *spatial))
    onehot_np = _one_hot(lab, k, logits.dtype)
    onehot = ag.Tensor(onehot_np, requires_grad=False)
    probs = ag.log_softmax(logits, axis=1).exp()
    reduce_axes = (0,) + tuple(range(2, logits.data.ndim))
    inter = (probs * onehot).sum(axes=reduce_axes)          # (K,)
    psum = probs.sum(axes=reduce_axes)                      # (K,)
    gsum = ag.Tensor(onehot_np.sum(axis=reduce_axes), requires_grad=False)
    dice_per_class = (ag.scale(inter, 2.0) + float(smooth)) \
        / (psum + gsum + float(smooth))                     # (K,)
    fg_weight = np.zeros(k, dtype=logits.dtype)
    fg_weight[1:] = 1.0 / (k - 1)
    mean_fg = (dice_per_class * ag.Tensor(fg_weight, requires_grad=False)).sum()
    return -mean_fg + 1.0


def dice_ce_loss(logits, labels, smooth=1e-5):
    """Soft-Dice loss over foreground classes plus mean cross-entropy."""
    return soft_dice_loss(logits, labels, smooth) + cross_entropy(logits, labels)
