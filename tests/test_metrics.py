"""Tests for segmentation metrics and the Dice+CE training loss.

Distance metrics are verified against brute-force oracles: surface voxels via
a per-voxel neighbor loop, distances via the all-pairs broadcast minimum.
"""

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from phnet import autograd as ag
from phnet import metrics
from phnet.data import LabelVolume
from phnet.metrics import (
    dice,
    dice_ce_loss,
    evaluate_case,
    hausdorff,
    surface_dice,
    surface_mask,
    surface_points_mm,
    write_report_csv,
)

UNIT = (1.0, 1.0, 1.0)


def lv(grid, spacing=UNIT):
    return LabelVolume(np.asarray(grid, dtype=np.uint8), spacing)


def random_label_pair(rng, shape=(12, 12, 12), p=0.15):
    a = (rng.random(shape) < p).astype(np.uint8)
    b = (rng.random(shape) < p).astype(np.uint8)
    # guarantee non-empty masks so distance metrics stay defined
    a[tuple(rng.integers(0, s) for s in shape)] = 1
    b[tuple(rng.integers(0, s) for s in shape)] = 1
    return lv(a), lv(b)


def class_row(pred, gt, class_id=1):
    """``evaluate_case``'s row of one class: its IoU and volume difference
    are reported there alone."""
    return evaluate_case(pred, gt, num_classes=class_id + 1)[class_id - 1]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_NEIGHBORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def surface_oracle(mask):
    """Per-voxel loop: fg voxel whose any face neighbor is bg or out of bounds."""
    m = np.asarray(mask, bool)
    D, H, W = m.shape
    out = np.zeros_like(m)
    for z, y, x in np.argwhere(m):
        for dz, dy, dx in _NEIGHBORS:
            zz, yy, xx = z + dz, y + dy, x + dx
            if not (0 <= zz < D and 0 <= yy < H and 0 <= xx < W) or not m[zz, yy, xx]:
                out[z, y, x] = True
                break
    return out


def pooled_distances_oracle(pred, gt, class_id):
    scale = np.array(pred.spacing_mm[::-1], dtype=np.float64)
    p_pts = np.argwhere(surface_oracle(pred.grid == class_id)) * scale
    g_pts = np.argwhere(surface_oracle(gt.grid == class_id)) * scale
    if len(p_pts) == 0 or len(g_pts) == 0:
        return None
    d = np.sqrt(((p_pts[:, None, :] - g_pts[None, :, :]) ** 2).sum(-1))
    return np.concatenate([d.min(axis=1), d.min(axis=0)])


# ---------------------------------------------------------------------------
# surface extraction
# ---------------------------------------------------------------------------

class TestSurface:
    def test_single_voxel_is_its_own_surface(self):
        m = np.zeros((5, 5, 5), bool)
        m[2, 2, 2] = True
        assert np.array_equal(surface_mask(m), m)

    def test_cube_surface_excludes_interior(self):
        m = np.zeros((5, 5, 5), bool)
        m[1:4, 1:4, 1:4] = True
        s = surface_mask(m)
        assert s.sum() == 27 - 1
        assert not s[2, 2, 2]

    def test_volume_border_counts_as_surface(self):
        m = np.ones((5, 5, 5), bool)
        s = surface_mask(m)
        assert s.sum() == 5 ** 3 - 3 ** 3
        assert s[0, 2, 2] and not s[2, 2, 2]

    def test_matches_oracle_on_random_masks(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.random((9, 10, 11)) < 0.4
            assert np.array_equal(surface_mask(m), surface_oracle(m))

    def test_points_scaled_by_spacing(self):
        m = np.zeros((4, 4, 4), bool)
        m[1, 2, 3] = True
        pts = surface_points_mm(m, (0.5, 2.0, 4.0))
        # grid (z,y,x)=(1,2,3) scaled by (sz,sy,sx)=(4.0,2.0,0.5)
        assert np.allclose(pts, [[4.0, 4.0, 1.5]])


# ---------------------------------------------------------------------------
# surface points on the bounding box against the full grid
# ---------------------------------------------------------------------------

def full_grid_points(mask, spacing):
    """Surface points as extracted on the whole grid, before the bounding-box
    crop: the oracle's boundary voxels in raster order, then scaled."""
    scale = np.array([spacing[2], spacing[1], spacing[0]])
    return np.argwhere(surface_oracle(mask)).astype(np.float64) * scale


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# anisotropic, and with values that no binary fraction holds exactly
SPACINGS = [UNIT, (0.7, 0.9, 2.5), (0.7, 0.7, 0.7), (3.0, 0.3, 1.1), (0.1, 2.0, 0.7)]


@st.composite
def boxed_masks(draw):
    """A mask of one of three kinds: arbitrary bits (Hypothesis also draws
    all-empty and all-full ones), a solid box anywhere in the volume (it
    touches a face whenever a bound is drawn at the edge), or a few scattered
    voxels; with a spacing."""
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    kind = draw(st.sampled_from(["bits", "box", "islands"]))
    if kind == "bits":
        mask = draw(arrays(bool, shape))
    else:
        mask = np.zeros(shape, bool)
        if kind == "box":
            lo = [draw(st.integers(0, n - 1)) for n in shape]
            hi = [draw(st.integers(a + 1, n)) for a, n in zip(lo, shape)]
            mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
        else:
            for _ in range(draw(st.integers(1, 5))):
                mask[tuple(draw(st.integers(0, n - 1)) for n in shape)] = True
    return mask, draw(st.sampled_from(SPACINGS))


def face_and_corner_masks():
    """A blob touching each face, and a voxel and a 2x2x2 cube in each
    corner, of a (6, 7, 5) volume; plus masks of whole-volume extent."""
    shape = (6, 7, 5)
    out = []
    for axis, end in itertools.product(range(3), (0, -1)):
        m = np.zeros(shape, bool)
        m[2:4, 2:5, 1:4] = True
        face = [slice(2, 4), slice(2, 5), slice(1, 4)]
        face[axis] = end
        m[tuple(face)] = True
        out.append((f"face{axis}{'+' if end else '-'}", m))
    for corner in itertools.product((0, -1), repeat=3):
        voxel, cube = np.zeros(shape, bool), np.zeros(shape, bool)
        voxel[corner] = True
        cube[tuple(slice(0, 2) if c == 0 else slice(-2, None) for c in corner)] = True
        out += [(f"voxel{corner}", voxel), (f"cube{corner}", cube)]
    spread = np.zeros(shape, bool)
    spread[0, 0, 0] = spread[-1, -1, -1] = spread[2, 3, 1] = True
    out += [("empty", np.zeros(shape, bool)), ("full", np.ones(shape, bool)),
            ("islands", spread), ("single", np.eye(1, 6 * 7 * 5, 100, dtype=bool).reshape(shape))]
    return out


class TestSurfacePointsCrop:
    @given(boxed_masks())
    @example((np.zeros((3, 4, 5), bool), (0.7, 0.9, 2.5)))
    @example((np.ones((3, 4, 5), bool), (0.7, 0.9, 2.5)))
    def test_bitwise_equal_to_the_full_grid_path(self, case):
        mask, spacing = case
        assert_bitwise(surface_points_mm(mask, spacing), full_grid_points(mask, spacing))

    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("name,mask", face_and_corner_masks())
    def test_faces_corners_and_extremes_match_the_full_grid_path(self, name, mask, spacing):
        assert_bitwise(surface_points_mm(mask, spacing), full_grid_points(mask, spacing))

    @pytest.mark.parametrize("shape", [(5, 5), (2, 3, 4, 5), ()])
    def test_non_3d_mask_rejected(self, shape):
        with pytest.raises(ValueError, match="3D"):
            surface_points_mm(np.ones(shape, bool), UNIT)


# ---------------------------------------------------------------------------
# nearest-surface distances on the KD-tree
# ---------------------------------------------------------------------------

def brute_force_nearest(src, dst):
    return np.sqrt(((src[:, None, :] - dst[None, :, :]) ** 2).sum(-1)).min(axis=1)


def tree_cases():
    """(name, src, dst) point sets with many equidistant nearest points."""
    out = []
    for spacing in SPACINGS:
        src = full_grid_points(np.ones((5, 6, 4), bool), spacing)     # every voxel
        shell = full_grid_points(np.pad(np.ones((3, 4, 2), bool), 1), spacing)
        corners = np.array([[0, 0, 0], [4, 5, 3]]) * np.array(spacing[::-1])
        sparse = src[::7]
        out += [
            (f"lattice-to-shell{spacing}", src, shell),
            (f"lattice-to-every-7th{spacing}", src, sparse),
            (f"lattice-to-itself{spacing}", src, src),
            (f"duplicates{spacing}", src, np.concatenate([sparse, sparse[::-1], sparse])),
            (f"single-point{spacing}", src, src[17:18]),
            (f"shell-to-opposite-corners{spacing}", shell, corners),
        ]
    return out


def assert_nearest_distances(src, dst):
    """Bitwise the default tree's distances, and the brute-force minimum
    within rounding."""
    got = metrics._directed_distances(src, dst)
    assert_bitwise(got, np.asarray(cKDTree(dst).query(src, k=1)[0], dtype=np.float64))
    np.testing.assert_allclose(got, brute_force_nearest(src, dst), rtol=0, atol=1e-12)


class TestDirectedDistances:
    @pytest.mark.parametrize("name,src,dst", tree_cases())
    def test_equals_the_default_tree_bitwise_and_brute_force(self, name, src, dst):
        assert_nearest_distances(src, dst)

    @given(boxed_masks(), boxed_masks())
    def test_equals_the_default_tree_on_generated_surfaces(self, a, b):
        (ma, spacing), (mb, _) = a, b
        src, dst = full_grid_points(ma, spacing), full_grid_points(mb, spacing)
        if len(src) and len(dst):
            assert_nearest_distances(src, dst)


def full_grid_report_rows(pred, gt, num_classes, tolerance_mm, percentile):
    """``evaluate_case`` rows with the distances of the full-grid path: the
    whole grid's boundary voxels and a default ``cKDTree`` per direction."""
    scale = np.array(gt.spacing_mm[::-1])
    rows = []
    for c in range(1, num_classes):
        p_pts = np.argwhere(surface_mask(pred.grid == c)).astype(np.float64) * scale
        g_pts = np.argwhere(surface_mask(gt.grid == c)).astype(np.float64) * scale
        if len(p_pts) == 0 and len(g_pts) == 0:
            dists = np.empty(0), np.empty(0)
        elif len(p_pts) == 0 or len(g_pts) == 0:
            dists = None
        else:
            dists = (cKDTree(g_pts).query(p_pts, k=1)[0], cKDTree(p_pts).query(g_pts, k=1)[0])
        rows.append({"class": c,
                     **metrics._overlap_metrics(pred.grid == c, gt.grid == c, gt.spacing_mm),
                     "surface_dice": metrics._surface_dice_of(dists, tolerance_mm),
                     "hausdorff_mm": metrics._hausdorff_of(dists, percentile)})
    return rows


def multi_class_case():
    """A (12, 30, 26) case at (0.7, 0.9, 2.5) mm: classes 1-3 are ellipsoids
    in both volumes, shifted between them; class 1 reaches three faces of
    the volume; class 4 lies only in the reference, 5 only in the prediction, and
    6 in neither."""
    z, y, x = np.meshgrid(np.arange(12), np.arange(30), np.arange(26), indexing="ij")
    gt = np.zeros((12, 30, 26), np.uint8)
    pred = np.zeros_like(gt)
    for c, (cz, cy, cx), (rz, ry, rx) in [(1, (2, 3, 20), (4, 6, 7)),
                                          (2, (6, 15, 10), (3, 7, 5)),
                                          (3, (9, 24, 4), (2, 4, 3))]:
        for vol, shift in ((gt, 0), (pred, c)):
            inside = (((z - cz) / rz) ** 2 + ((y - cy - shift) / ry) ** 2
                      + ((x - cx + shift) / rx) ** 2) <= 1
            vol[inside] = c
    gt[10:12, 0:3, 0:2] = 4
    pred[0:2, 27:30, 24:26] = 5
    return lv(pred, (0.7, 0.9, 2.5)), lv(gt, (0.7, 0.9, 2.5))


@pytest.mark.parametrize("percentile", [95, 100])
def test_evaluate_case_rows_equal_the_full_grid_path(percentile):
    pred, gt = multi_class_case()
    rows = evaluate_case(pred, gt, num_classes=7, tolerance_mm=1.0, percentile=percentile)
    assert rows == full_grid_report_rows(pred, gt, 7, 1.0, percentile)
    assert [r["hausdorff_mm"] is None for r in rows] == [False] * 3 + [True] * 3
    assert all(0 < rows[c]["surface_dice"] < 1 for c in (0, 1, 2))


# ---------------------------------------------------------------------------
# overlap metrics
# ---------------------------------------------------------------------------

class TestOverlap:
    def test_identity_is_one(self):
        rng = np.random.default_rng(1)
        a, _ = random_label_pair(rng)
        assert dice(a, a, 1) == 1.0
        assert class_row(a, a)["iou"] == 1.0

    def test_disjoint_is_zero(self):
        a = np.zeros((4, 4, 4)); a[0, 0, 0] = 1
        b = np.zeros((4, 4, 4)); b[3, 3, 3] = 1
        assert dice(lv(a), lv(b), 1) == 0.0
        assert class_row(lv(a), lv(b))["iou"] == 0.0

    def test_hand_counts(self):
        a = np.zeros((1, 1, 6)); a[0, 0, :4] = 1      # |P| = 4
        b = np.zeros((1, 1, 6)); b[0, 0, 2:5] = 1     # |G| = 3, overlap 2
        assert dice(lv(a), lv(b), 1) == pytest.approx(2 * 2 / 7, abs=1e-15)
        assert class_row(lv(a), lv(b))["iou"] == pytest.approx(2 / 5, abs=1e-15)

    def test_both_empty_is_one(self):
        z = lv(np.zeros((3, 3, 3)))
        assert dice(z, z, 1) == 1.0
        assert class_row(z, z)["iou"] == 1.0

    def test_one_empty_is_zero(self):
        a = np.zeros((3, 3, 3)); a[1, 1, 1] = 1
        z = np.zeros((3, 3, 3))
        assert dice(lv(a), lv(z), 1) == 0.0
        assert dice(lv(z), lv(a), 1) == 0.0

    def test_dice_iou_identity_random(self):
        # dice = 2*iou / (1 + iou) must hold to 1e-12 on random masks
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_label_pair(rng)
            d, j = dice(a, b, 1), class_row(a, b)["iou"]
            assert abs(d - 2 * j / (1 + j)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        a = lv(np.zeros((3, 3, 3)))
        b = lv(np.zeros((3, 3, 4)))
        with pytest.raises(ValueError, match="shape"):
            dice(a, b, 1)

    def test_multiclass_masks_are_per_id(self):
        a = np.zeros((2, 2, 2)); a[0, 0, 0] = 1; a[0, 0, 1] = 2
        b = np.zeros((2, 2, 2)); b[0, 0, 0] = 1; b[0, 0, 1] = 1
        assert dice(lv(a), lv(b), 1) == pytest.approx(2 / 3, abs=1e-15)
        assert dice(lv(a), lv(b), 2) == 0.0


# ---------------------------------------------------------------------------
# distance metrics
# ---------------------------------------------------------------------------

class TestHausdorff:
    def test_single_voxel_distance(self):
        a = np.zeros((5, 5, 5)); a[1, 1, 1] = 1
        b = np.zeros((5, 5, 5)); b[1, 1, 4] = 1
        assert hausdorff(lv(a), lv(b), 1, percentile=100) == pytest.approx(3.0)

    def test_spacing_scales_distances(self):
        a = np.zeros((5, 5, 5)); a[1, 1, 1] = 1
        b = np.zeros((5, 5, 5)); b[3, 1, 1] = 1
        d1 = hausdorff(lv(a, UNIT), lv(b, UNIT), 1, percentile=100)
        d4 = hausdorff(lv(a, (1, 1, 4)), lv(b, (1, 1, 4)), 1, percentile=100)
        assert d1 == pytest.approx(2.0)
        assert d4 == pytest.approx(8.0)

    def test_identical_masks_zero(self):
        rng = np.random.default_rng(3)
        a, _ = random_label_pair(rng)
        assert hausdorff(a, a, 1, percentile=100) == 0.0
        assert hausdorff(a, a, 1, percentile=95) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b = random_label_pair(rng)
            for pct in (95, 100):
                assert hausdorff(a, b, 1, pct) == hausdorff(b, a, 1, pct)

    def test_empty_mask_undefined(self):
        a = np.zeros((3, 3, 3)); a[0, 0, 0] = 1
        z = np.zeros((3, 3, 3))
        assert hausdorff(lv(a), lv(z), 1) is None
        assert hausdorff(lv(z), lv(a), 1) is None
        assert hausdorff(lv(z), lv(z), 1) is None

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            a, b = random_label_pair(rng, shape=(10, 11, 9))
            pooled = pooled_distances_oracle(a, b, 1)
            assert hausdorff(a, b, 1, 100) == pytest.approx(pooled.max(), abs=1e-9)
            assert hausdorff(a, b, 1, 95) == pytest.approx(
                np.percentile(pooled, 95), abs=1e-9)

    def test_percentile_95_below_max(self):
        rng = np.random.default_rng(6)
        a, b = random_label_pair(rng)
        assert hausdorff(a, b, 1, 95) <= hausdorff(a, b, 1, 100)

    def test_bad_percentile_rejected(self):
        a = lv(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="percentile"):
            hausdorff(a, a, 1, percentile=50)

    def test_spacing_mismatch_rejected(self):
        a = lv(np.zeros((3, 3, 3)), (1, 1, 1))
        b = lv(np.zeros((3, 3, 3)), (1, 1, 2))
        with pytest.raises(ValueError, match="spacing"):
            hausdorff(a, b, 1)

    def test_anisotropic_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = (rng.random((6, 10, 10)) < 0.2).astype(np.uint8)
            b = (rng.random((6, 10, 10)) < 0.2).astype(np.uint8)
            a[0, 0, 0] = b[0, 0, 0] = 1
            av, bv = lv(a, (0.7, 1.3, 5.0)), lv(b, (0.7, 1.3, 5.0))
            pooled = pooled_distances_oracle(av, bv, 1)
            assert hausdorff(av, bv, 1, 100) == pytest.approx(pooled.max(), abs=1e-9)


class TestSurfaceDice:
    def test_identical_is_one_at_zero_tolerance(self):
        rng = np.random.default_rng(8)
        a, _ = random_label_pair(rng)
        assert surface_dice(a, a, 1, 0.0) == 1.0

    def test_parallel_planes(self):
        a = np.zeros((6, 4, 4)); a[2, :, :] = 1
        b = np.zeros((6, 4, 4)); b[3, :, :] = 1
        # every surface point sits exactly 1 mm from the other surface
        assert surface_dice(lv(a), lv(b), 1, 1.0) == 1.0
        assert surface_dice(lv(a), lv(b), 1, 0.9) == 0.0

    def test_weighted_pooling(self):
        # P is one voxel at distance 2 from a 3-voxel G segment end; pooled
        # hits = (d_pg=[2] <= 2) + (d_gp=[2,3,4] <= 2) = 1 + 1 of 4 points
        a = np.zeros((1, 1, 8)); a[0, 0, 0] = 1
        b = np.zeros((1, 1, 8)); b[0, 0, 2:5] = 1
        assert surface_dice(lv(a), lv(b), 1, 2.0) == pytest.approx(2 / 4)

    def test_both_empty_is_one(self):
        z = lv(np.zeros((3, 3, 3)))
        assert surface_dice(z, z, 1, 1.0) == 1.0

    def test_one_empty_undefined(self):
        a = np.zeros((3, 3, 3)); a[1, 1, 1] = 1
        z = np.zeros((3, 3, 3))
        assert surface_dice(lv(a), lv(z), 1, 1.0) is None
        assert surface_dice(lv(z), lv(a), 1, 1.0) is None

    def test_negative_tolerance_rejected(self):
        z = lv(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="tolerance"):
            surface_dice(z, z, 1, -0.1)

    def test_matches_oracle_fraction(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_label_pair(rng, shape=(8, 9, 10))
            pooled = pooled_distances_oracle(a, b, 1)
            tol = float(rng.uniform(0.0, 3.0))
            want = float((pooled <= tol).mean())
            assert surface_dice(a, b, 1, tol) == pytest.approx(want, abs=1e-12)

    def test_tolerance_monotone(self):
        rng = np.random.default_rng(10)
        a, b = random_label_pair(rng)
        vals = [surface_dice(a, b, 1, t) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


class TestNVD:
    def test_hand_case(self):
        a = np.zeros((4, 4, 4)); a.reshape(-1)[:10] = 0
        a[0, 0, :2] = 1; a[1, 0, :4] = 1; a[2, 0, :4] = 1   # 10 voxels
        b = np.zeros((4, 4, 4)); b[0, 1, :4] = 1; b[1, 1, :4] = 1  # 8 voxels
        # voxel volume cancels: 100 * |10-8| / 8 = 25
        assert class_row(lv(a, (1, 1, 4)), lv(b, (1, 1, 4)))["nvd_percent"] == pytest.approx(25.0)

    def test_identical_is_zero(self):
        rng = np.random.default_rng(11)
        a, _ = random_label_pair(rng)
        assert class_row(a, a)["nvd_percent"] == 0.0

    def test_empty_reference_undefined(self):
        a = np.zeros((3, 3, 3)); a[0, 0, 0] = 1
        z = np.zeros((3, 3, 3))
        assert class_row(lv(a), lv(z))["nvd_percent"] is None

    def test_empty_prediction_is_100(self):
        a = np.zeros((3, 3, 3)); a[0, 0, 0] = 1
        z = np.zeros((3, 3, 3))
        assert class_row(lv(z), lv(a))["nvd_percent"] == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# per-case report
# ---------------------------------------------------------------------------

class TestReport:
    def test_evaluate_case_rows(self):
        rng = np.random.default_rng(12)
        a, b = random_label_pair(rng)
        rows = evaluate_case(a, b, num_classes=3)
        assert [r["class"] for r in rows] == [1, 2]
        assert rows[0]["dice"] == dice(a, b, 1)
        # class 2 absent from both masks: overlap metrics 1, distances None
        assert rows[1]["dice"] == 1.0
        assert rows[1]["hausdorff_mm"] is None

    @pytest.mark.parametrize("percentile", [95, 100])
    def test_shared_surface_path_matches_standalone_metrics(self, percentile):
        # classes 1-2 in both masks, 3 only in the reference, 4 only in the
        # prediction, 5 in neither
        rng = np.random.default_rng(14)
        spacing = (0.7, 0.9, 2.5)
        shape = (6, 14, 12)
        pred = rng.integers(0, 3, size=shape).astype(np.uint8)
        ref = rng.integers(0, 3, size=shape).astype(np.uint8)
        ref[1:3, 2:6, 3:7] = 3
        pred[3:5, 8:12, 1:4] = 4
        a, b = lv(pred, spacing), lv(ref, spacing)
        rows = evaluate_case(a, b, num_classes=6, tolerance_mm=1.2,
                             percentile=percentile)
        for r in rows:
            c = r["class"]
            assert r["dice"] == dice(a, b, c)
            # IoU and volume difference from the class's voxel counts
            p, g = pred == c, ref == c
            inter, union, n_p, n_g = (int(m.sum()) for m in (p & g, p | g, p, g))
            assert r["iou"] == (inter / union if union else 1.0)
            assert r["nvd_percent"] == (None if n_g == 0 else
                                        pytest.approx(100.0 * abs(n_p - n_g) / n_g, rel=1e-12))
            assert r["surface_dice"] == surface_dice(a, b, c, 1.2)
            assert r["hausdorff_mm"] == hausdorff(a, b, c, percentile)
        by_class = {r["class"]: r for r in rows}
        assert all(isinstance(by_class[c]["hausdorff_mm"], float) for c in (1, 2))
        for c in (3, 4):
            assert by_class[c]["surface_dice"] is None
            assert by_class[c]["hausdorff_mm"] is None
        assert by_class[5]["surface_dice"] == 1.0
        assert by_class[5]["hausdorff_mm"] is None

    def test_evaluate_case_rejects_bad_arguments(self):
        a, b = random_label_pair(np.random.default_rng(15))
        with pytest.raises(ValueError, match="tolerance"):
            evaluate_case(a, b, num_classes=2, tolerance_mm=-0.5)
        with pytest.raises(ValueError, match="percentile"):
            evaluate_case(a, b, num_classes=2, percentile=90)
        with pytest.raises(ValueError, match="spacing"):
            evaluate_case(a, lv(b.grid, (1.0, 1.0, 2.0)), num_classes=2)

    def test_csv_layout_and_mean_row(self, tmp_path):
        rows = [
            {"case": "case_000", "class": 1, "dice": 0.8, "iou": 0.5,
             "surface_dice": 0.9, "nvd_percent": 10.0, "hausdorff_mm": 2.0},
            {"case": "case_001", "class": 1, "dice": 0.6, "iou": 0.5,
             "surface_dice": None, "nvd_percent": 30.0, "hausdorff_mm": None},
            {"case": "case_002", "class": 1, "error": "patch larger than case"},
        ]
        path = tmp_path / "report.csv"
        write_report_csv(path, rows)
        with open(path) as f:
            got = list(csv.DictReader(f))
        assert len(got) == 4
        assert got[0]["dice"] == "0.8"
        assert got[1]["surface_dice"] == ""        # undefined renders empty
        assert got[2]["error"] == "patch larger than case"
        assert got[2]["dice"] == ""
        mean = got[3]
        assert mean["case"] == "mean" and mean["class"] == "all"
        assert float(mean["dice"]) == pytest.approx(0.7)
        assert float(mean["surface_dice"]) == pytest.approx(0.9)
        assert float(mean["hausdorff_mm"]) == pytest.approx(2.0)

    def test_failed_write_keeps_the_previous_report(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [{"case": "case_000", "class": 1, "dice": 0.8}])
        before = path.read_bytes()
        # the second row's dice is no number: the writer fails after the
        # header and the first row are written
        rows = [{"case": "case_000", "class": 1, "dice": 0.5},
                {"case": "case_001", "class": 1, "dice": "n/a"}]
        with pytest.raises(ValueError):
            write_report_csv(path, rows)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

def rand_logits(rng, shape, dtype=np.float64):
    return ag.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)


def loss_oracle(x, labels, smooth=1e-5):
    """(soft-Dice term, cross-entropy term) of the Dice+CE loss in float64,
    class by class: 1 - mean over foreground classes c of
    (2 sum p_c y_c + s) / (sum p_c + sum y_c + s), and the mean over voxels of
    -log p of the true class."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    ce = -np.log(np.take_along_axis(p, labels[:, None], axis=1)).mean()
    dices = []
    for c in range(1, x.shape[1]):
        pc, yc = p[:, c], (labels == c).astype(np.float64)
        dices.append((2.0 * (pc * yc).sum() + smooth) / (pc.sum() + yc.sum() + smooth))
    return 1.0 - float(np.mean(dices)), float(ce)


def uniform_dice_term(labels, k, smooth=1e-5):
    """Hand value of the soft-Dice term for uniform probabilities 1/k: class
    c with n_c of N voxels has Dice (2 n_c / k + s) / (N / k + n_c + s)."""
    n = labels.size
    return 1.0 - np.mean([(2.0 * (labels == c).sum() / k + smooth)
                          / (n / k + (labels == c).sum() + smooth)
                          for c in range(1, k)])


class TestLoss:
    def test_uniform_two_class_ce_is_ln2(self):
        logits = ag.Tensor(np.zeros((2, 2, 3, 4, 4), dtype=np.float64))
        labels = np.random.default_rng(0).integers(0, 2, size=(2, 3, 4, 4))
        total = dice_ce_loss(logits, labels).item()
        assert abs(total - (math.log(2.0) + uniform_dice_term(labels, 2))) <= 1e-9
        assert abs(total - sum(loss_oracle(logits.data, labels))) <= 1e-12

    def test_uniform_k_class_ce_is_lnk(self):
        for k in (3, 5):
            logits = ag.Tensor(np.zeros((1, k, 2, 2, 2), dtype=np.float64))
            labels = np.random.default_rng(1).integers(0, k, size=(1, 2, 2, 2))
            total = dice_ce_loss(logits, labels).item()
            assert abs(total - (math.log(k) + uniform_dice_term(labels, k))) <= 1e-9
            assert abs(total - sum(loss_oracle(logits.data, labels))) <= 1e-12

    def test_ce_matches_manual(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 2, 2, 2))
        labels = rng.integers(0, 3, size=(2, 2, 2, 2))
        total = dice_ce_loss(ag.Tensor(x), labels).item()
        e = np.exp(x - x.max(axis=1, keepdims=True))
        logp = np.log(e / e.sum(axis=1, keepdims=True))
        want = -np.take_along_axis(logp, labels[:, None], axis=1).mean()
        dice_term, _ = loss_oracle(x, labels)
        assert total - dice_term == pytest.approx(float(want), abs=1e-12)

    def test_confident_correct_prediction_near_zero(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=(1, 4, 4, 4))
        labels.reshape(-1)[:8] = 1                     # ensure some foreground
        onehot = np.moveaxis(np.eye(2)[labels], -1, 1)
        logits = ag.Tensor(onehot * 10.0)              # +10 logit margin
        assert dice_ce_loss(logits, labels).item() < 0.01

    def test_wrong_prediction_is_large(self):
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        labels[0, 0, 0, 0] = 1
        onehot = np.moveaxis(np.eye(2)[1 - labels], -1, 1)
        logits = ag.Tensor(onehot * 10.0)
        assert dice_ce_loss(logits, labels).item() > 1.0

    def test_absent_class_near_zero_loss(self):
        # all-background labels with confident all-background prediction:
        # smoothed dice for the absent class is s/(psum+s) with
        # psum = 8 * sigmoid(-20), so the Dice term is psum/(psum+s); the
        # cross-entropy is -log sigmoid(20) = log1p(exp(-20)) at every voxel
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        onehot = np.moveaxis(np.eye(2)[labels], -1, 1)
        logits = ag.Tensor(onehot * 20.0)
        psum = 8.0 / (1.0 + math.exp(20.0))
        want = psum / (psum + 1e-5) + math.log1p(math.exp(-20.0))
        got = dice_ce_loss(logits, labels).item()
        assert got == pytest.approx(want, rel=1e-9)
        assert abs(got - sum(loss_oracle(logits.data, labels))) <= 1e-12
        assert got < 0.01

    def test_soft_dice_uniform_hand_value(self):
        # uniform 2-class probs (0.5 everywhere), n fg of N voxels:
        # dice_1 = (2*0.5*n + s) / (0.5*N + n + s); the cross-entropy is ln 2
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        labels[0, 0, 0, :] = 1                         # n=2 of N=8
        logits = ag.Tensor(np.zeros((1, 2, 2, 2, 2), dtype=np.float64))
        s = 1e-5
        want = 1.0 - (2 * 0.5 * 2 + s) / (0.5 * 8 + 2 + s) + math.log(2.0)
        got = dice_ce_loss(logits, labels).item()
        assert got == pytest.approx(want, abs=1e-12)
        assert abs(got - sum(loss_oracle(logits.data, labels))) <= 1e-12

    def test_total_is_sum_of_parts(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 4):
            x = rand_logits(rng, (2, k, 2, 3, 3))
            labels = rng.integers(0, k, size=(2, 2, 3, 3))
            total = dice_ce_loss(x, labels).item()
            dice_term, ce_term = loss_oracle(x.data, labels)
            assert total == pytest.approx(dice_term + ce_term, abs=1e-12)

    def test_label_out_of_range_rejected(self):
        logits = ag.Tensor(np.zeros((1, 2, 2, 2, 2)))
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        labels[0, 0, 0, 0] = 2
        with pytest.raises(ValueError, match="label ids"):
            dice_ce_loss(logits, labels)

    def test_label_shape_mismatch_rejected(self):
        logits = ag.Tensor(np.zeros((1, 2, 2, 2, 2)))
        with pytest.raises(ValueError, match="labels shape"):
            dice_ce_loss(logits, np.zeros((1, 2, 2, 3), dtype=np.int64))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=(2, 2, 3, 3))
        x = rng.normal(size=(2, 3, 2, 3, 3))
        err = ag.grad_check(lambda t: dice_ce_loss(t, labels), ag.Tensor(x))
        assert err < 1e-5

    def test_loss_decreases_along_negative_gradient(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            labels = rng.integers(0, 2, size=(1, 2, 3, 3))
            x = ag.Tensor(rng.normal(size=(1, 2, 2, 3, 3)), requires_grad=True)
            loss = dice_ce_loss(x, labels)
            ag.backward(loss)
            stepped = ag.Tensor(x.data - 1e-3 * x.grad)
            assert dice_ce_loss(stepped, labels).item() < loss.item()

    def test_float32_logits_supported(self):
        rng = np.random.default_rng(7)
        x = ag.Tensor(rng.normal(size=(1, 2, 2, 2, 2)).astype(np.float32),
                      requires_grad=True)
        labels = rng.integers(0, 2, size=(1, 2, 2, 2))
        loss = dice_ce_loss(x, labels)
        assert loss.data.dtype == np.float32
        ag.backward(loss)
        assert x.grad is not None and np.isfinite(x.grad).all()


def single_tensor_loss(x, labels, smooth=1e-5):
    """(loss, dlogits) of ``dice_ce_loss`` on one batch tensor, as the node
    computed them before it took batch parts: the bitwise reference."""
    z = np.asarray(x)
    b, k, *spatial = z.shape
    dt = z.dtype
    class_shape = (1, k) + (1,) * len(spatial)
    m = z.max(axis=1, keepdims=True)
    logp = z - (np.log(np.exp(z - m).sum(axis=1, keepdims=True)) + m)
    p = np.exp(logp)
    y = (labels[:, None] == np.arange(k).reshape(class_shape)).astype(dt)
    n_vox = labels.size
    axes = (0,) + tuple(range(2, z.ndim))
    s = float(smooth)
    inter = (p * y).sum(axis=axes)
    denom = p.sum(axis=axes) + y.sum(axis=axes) + s
    w = np.full(k, 1.0 / (k - 1), dtype=dt)
    w[0] = 0.0
    dice_fg = ((2.0 * inter + s) / denom * w).sum()
    loss = np.asarray(1.0 - dice_fg - (logp * y).sum() / n_vox, dtype=dt)
    dp = y * (-2.0 * w / denom).reshape(class_shape)
    dp += (w * (2.0 * inter + s) / (denom * denom)).reshape(class_shape)
    dz = dp - (p * dp).sum(axis=1, keepdims=True)
    dz *= p
    dz += (p - y) / n_vox
    dz *= np.ones_like(loss)
    return loss, dz


def loss_over_parts(x, labels, sizes):
    """(loss, cotangent of each part) of ``dice_ce_loss`` over ``x`` cut
    along the batch into parts of ``sizes``."""
    cuts = np.cumsum(sizes)[:-1]
    parts = [ag.Tensor(p, requires_grad=True) for p in np.split(x, cuts)]
    loss = dice_ce_loss(parts, labels)
    assert loss._op == "dice_ce_loss" and loss._parents == tuple(parts)
    ag.backward(loss)
    return loss.item(), [p.grad for p in parts]


def assert_parts_match_joined(x, labels, sizes):
    """The loss over batch parts equals the loss of the joined batch, and
    each part's cotangent the joined cotangent's rows, in float64."""
    want, want_dz = single_tensor_loss(x, labels)
    got, dzs = loss_over_parts(x, labels, sizes)
    assert got == pytest.approx(float(want), rel=1e-13, abs=1e-13)
    assert [len(dz) for dz in dzs] == list(sizes)
    np.testing.assert_allclose(np.concatenate(dzs), want_dz, rtol=1e-11, atol=1e-15)


class TestLossOverBatchParts:
    @pytest.mark.parametrize("sizes", [(2, 2), (2, 1), (1, 1, 1), (3,)],
                             ids=["halves", "uneven", "three", "one"])
    def test_parts_match_the_joined_batch(self, sizes):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(sum(sizes), 3, 2, 3, 4))
        labels = rng.integers(0, 3, size=(sum(sizes), 2, 3, 4))
        assert_parts_match_joined(x, labels, sizes)

    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           k=st.integers(2, 4), spatial=st.tuples(st.integers(1, 3), st.integers(1, 4)),
           seed=st.integers(0, 2 ** 16))
    def test_generated_parts_match_the_joined_batch(self, sizes, k, spatial, seed):
        rng = np.random.default_rng(seed)
        b = sum(sizes)
        x = 3.0 * rng.normal(size=(b, k, *spatial))
        labels = rng.integers(0, k, size=(b, *spatial))
        assert_parts_match_joined(x, labels, sizes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_single_tensor_is_bitwise_the_single_batch_loss(self, dtype):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 2, 3, 4)).astype(dtype)
        labels = rng.integers(0, 3, size=(2, 2, 3, 4))
        want, want_dz = single_tensor_loss(x, labels)
        for arg in (lambda t: t, lambda t: [t]):
            t = ag.Tensor(x, requires_grad=True)
            loss = dice_ce_loss(arg(t), labels)
            assert loss.data.dtype == dtype and loss.data.tobytes() == want.tobytes()
            ag.backward(loss)
            assert t.grad.tobytes() == want_dz.tobytes()

    def test_mismatched_parts_rejected(self):
        labels = np.zeros((2, 2, 2, 2), dtype=np.int64)
        a = ag.Tensor(np.zeros((1, 2, 2, 2, 2)))
        with pytest.raises(ValueError, match="batch parts differ"):
            dice_ce_loss([a, ag.Tensor(np.zeros((1, 3, 2, 2, 2)))], labels)
        with pytest.raises(ValueError, match="batch parts differ"):
            dice_ce_loss([a, ag.Tensor(np.zeros((1, 2, 2, 2, 2), np.float32))], labels)
        with pytest.raises(ValueError, match="labels shape"):
            dice_ce_loss([a, a, a], labels)
        with pytest.raises(ValueError, match="no batch parts"):
            dice_ce_loss([], labels)
