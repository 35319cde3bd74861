"""Tests for synthetic generation, resampling, patch sampling, and file I/O.

Resampling is checked against a scalar triple-loop oracle; synthetic cases are
checked for determinism, foreground-fraction sanity across seeds, and correct
anisotropic rendering (physical second moments survive isotropic resampling).
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from phnet.data import (
    MAX_CLASSES,
    LabelVolume,
    SyntheticSpec,
    Volume,
    generate_synthetic_case,
    read_manifest,
    read_volume,
    resample_to_grid,
    resample_to_spacing,
    sample_patches,
    write_manifest,
    write_volume,
    zscore,
)


# ---------------------------------------------------------------------------
# oracle: scalar trilinear / nearest resampling
# ---------------------------------------------------------------------------

def resample_oracle(grid, src_sp, dst_dims, dst_sp, nearest=False):
    """Direct scalar implementation: center-aligned mapping, clamp-to-edge."""
    D, H, W = grid.shape
    out = np.zeros(dst_dims, dtype=np.float64)
    for k in range(dst_dims[0]):
        for j in range(dst_dims[1]):
            for i in range(dst_dims[2]):
                z = (k + 0.5) * dst_sp[2] / src_sp[2] - 0.5
                y = (j + 0.5) * dst_sp[1] / src_sp[1] - 0.5
                x = (i + 0.5) * dst_sp[0] / src_sp[0] - 0.5
                if nearest:
                    zz = min(max(int(math.floor(z + 0.5)), 0), D - 1)
                    yy = min(max(int(math.floor(y + 0.5)), 0), H - 1)
                    xx = min(max(int(math.floor(x + 0.5)), 0), W - 1)
                    out[k, j, i] = grid[zz, yy, xx]
                    continue
                z0, y0, x0 = math.floor(z), math.floor(y), math.floor(x)
                fz, fy, fx = z - z0, y - y0, x - x0
                acc = 0.0
                for bz in (0, 1):
                    for by in (0, 1):
                        for bx in (0, 1):
                            zz = min(max(z0 + bz, 0), D - 1)
                            yy = min(max(y0 + by, 0), H - 1)
                            xx = min(max(x0 + bx, 0), W - 1)
                            w = ((fz if bz else 1 - fz)
                                 * (fy if by else 1 - fy)
                                 * (fx if bx else 1 - fx))
                            acc += w * float(grid[zz, yy, xx])
                out[k, j, i] = acc
    return out


# ---------------------------------------------------------------------------
# synthetic cases
# ---------------------------------------------------------------------------

class TestSynthetic:
    def test_shapes_and_types(self):
        vol, lab = generate_synthetic_case(SyntheticSpec(seed=3))
        assert vol.grid.shape == (32, 64, 64)
        assert vol.grid.dtype == np.float32
        assert lab.grid.shape == (32, 64, 64)
        assert lab.grid.dtype == np.uint8
        assert vol.spacing_mm == lab.spacing_mm == (1.0, 1.0, 4.0)

    def test_deterministic_per_seed(self):
        a_vol, a_lab = generate_synthetic_case(SyntheticSpec(seed=11))
        b_vol, b_lab = generate_synthetic_case(SyntheticSpec(seed=11))
        assert np.array_equal(a_vol.grid, b_vol.grid)
        assert np.array_equal(a_lab.grid, b_lab.grid)
        c_vol, _ = generate_synthetic_case(SyntheticSpec(seed=12))
        assert not np.array_equal(a_vol.grid, c_vol.grid)

    def test_label_ids_in_range(self):
        _, lab = generate_synthetic_case(SyntheticSpec(num_classes=4, seed=5))
        assert set(np.unique(lab.grid)) <= {0, 1, 2, 3}
        assert lab.grid.max() >= 1  # at least one foreground blob rendered

    def test_foreground_fraction_band_over_seeds(self):
        # every seed must land in the documented [0.5%, 30%] foreground band
        for seed in range(20):
            _, lab = generate_synthetic_case(SyntheticSpec(seed=seed))
            frac = float((lab.grid > 0).mean())
            assert 0.005 <= frac <= 0.30, f"seed {seed}: fg fraction {frac:.4f}"

    def test_blob_too_large_is_refused_by_the_spec(self):
        with pytest.raises(ValueError, match=re.escape(
                "radius_range_mm: blobs of radius up to 40.0 mm do not fit the volume "
                "extent (16.0, 16.0, 8.0) mm (x, y, z)")):
            SyntheticSpec(shape=(8, 16, 16), spacing_mm=(1.0, 1.0, 1.0),
                          radius_range_mm=(30.0, 40.0), seed=0)

    def test_intensity_means_separate_classes(self):
        spec = SyntheticSpec(noise_sigma=0.01, seed=2)
        vol, lab = generate_synthetic_case(spec)
        bg = vol.grid[lab.grid == 0]
        fg = vol.grid[lab.grid == 1]
        assert abs(float(bg.mean()) - 0.0) < 0.05
        assert abs(float(fg.mean()) - 1.0) < 0.05

    def test_later_class_wins_on_overlap(self):
        # force two classes of maximal blobs in a small volume so overlap is
        # near-certain, then check any overlap region carries the later id
        spec = SyntheticSpec(shape=(16, 32, 32), spacing_mm=(1.0, 1.0, 1.0),
                             num_classes=3, blobs_per_class=(3, 3),
                             radius_range_mm=(7.0, 7.9), seed=1)
        _, lab = generate_synthetic_case(spec)
        assert 2 in np.unique(lab.grid)

    def test_anisotropic_blob_is_round_in_mm(self):
        # with 4 mm slices, a sphere's voxel footprint must be ~4x flatter in
        # z; second moments in mm of the fg mask should be nearly isotropic
        spec = SyntheticSpec(shape=(32, 96, 96), spacing_mm=(1.0, 1.0, 4.0),
                             blobs_per_class=(1, 1),
                             radius_range_mm=(14.0, 14.01), seed=7)
        _, lab = generate_synthetic_case(spec)
        zz, yy, xx = np.nonzero(lab.grid)
        sz = np.std(zz * 4.0)
        sy = np.std(yy * 1.0)
        sx = np.std(xx * 1.0)
        assert abs(sz / sy - 1.0) < 0.15
        assert abs(sx / sy - 1.0) < 0.05

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="num_classes"):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError, match="num_classes"):
            SyntheticSpec(num_classes=MAX_CLASSES + 1)
        with pytest.raises(ValueError, match="radii"):
            SyntheticSpec(radius_range_mm=(0.0, 5.0))

    @pytest.mark.parametrize("field,value", [
        ("blobs_per_class", (2, 1)),
        ("blobs_per_class", (-1, 0)),
        ("radius_range_mm", (5.0, 3.0)),
        ("noise_sigma", -1.0),
        ("noise_sigma", float("nan")),
        ("seed", -1),
        ("shape", (0, 4, 4)),
        ("shape", (4, -4, 8)),
        ("shape", (8, 16)),
        ("shape", (8, 16, 16.0)),
    ])
    def test_bad_range_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            SyntheticSpec(**{field: value})

    def test_range_edges_accepted(self):
        spec = SyntheticSpec(shape=(8, 16, 16), spacing_mm=(1.0, 1.0, 2.0),
                             blobs_per_class=(0, 0), radius_range_mm=(3.0, 3.0),
                             noise_sigma=0.0)
        vol, lab = generate_synthetic_case(spec)
        assert not lab.grid.any() and not vol.grid.any()


class TestZScore:
    def test_moments(self):
        rng = np.random.default_rng(0)
        g = rng.normal(5.0, 3.0, size=(8, 9, 10)).astype(np.float32)
        z = zscore(g)
        assert abs(float(z.mean())) < 1e-6
        assert abs(float(z.std()) - 1.0) < 1e-5

    def test_constant_volume_is_safe(self):
        z = zscore(np.full((4, 4, 4), 7.0, dtype=np.float32))
        assert np.all(z == 0.0)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

class TestResample:
    def test_identity_is_bitwise(self):
        rng = np.random.default_rng(0)
        v = Volume(rng.normal(size=(5, 7, 6)).astype(np.float32), (0.7, 1.3, 2.9))
        out = resample_to_spacing(v, (0.7, 1.3, 2.9))
        assert out.grid.shape == v.grid.shape
        assert np.array_equal(out.grid, v.grid)

    def test_identity_labels_bitwise(self):
        rng = np.random.default_rng(1)
        lab = LabelVolume(rng.integers(0, 4, size=(4, 6, 5)).astype(np.uint8),
                          (1.0, 1.0, 3.0))
        out = resample_to_spacing(lab, (1.0, 1.0, 3.0))
        assert np.array_equal(out.grid, lab.grid)

    @given(st.data())
    def test_generated_equal_spacing_is_identity(self, data):
        dims = tuple(data.draw(st.integers(1, 6)) for _ in range(3))
        spacing = tuple(data.draw(st.floats(0.05, 20.0)) for _ in range(3))
        image = data.draw(arrays(np.float32, dims, elements=st.floats(
            allow_nan=False, allow_infinity=False, width=32)))
        labels = data.draw(arrays(np.uint8, dims))
        for v in (Volume(image, spacing), LabelVolume(labels, spacing)):
            out = resample_to_spacing(v, spacing)
            assert out.grid.dtype == v.grid.dtype and out.spacing_mm == v.spacing_mm
            # not bytes: the trilinear sum adds +0.0 terms, which turn -0.0
            # into 0.0
            assert np.array_equal(out.grid, v.grid)

    def test_output_dims_round_rule(self):
        v = Volume(np.zeros((10, 20, 30), np.float32), (1.0, 1.0, 4.0))
        out = resample_to_spacing(v, (2.0, 2.0, 2.0))
        # dims: z 10*4/2=20, y 20*1/2=10, x 30*1/2=15
        assert out.grid.shape == (20, 10, 15)
        assert out.spacing_mm == (2.0, 2.0, 2.0)

    def test_degenerate_dims_rejected(self):
        v = Volume(np.zeros((2, 20, 30), np.float32), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="degenerate"):
            resample_to_spacing(v, (1.0, 1.0, 50.0))

    def test_trilinear_matches_oracle_upsample(self):
        rng = np.random.default_rng(2)
        v = Volume(rng.normal(size=(4, 5, 6)).astype(np.float32), (2.0, 2.0, 4.0))
        out = resample_to_spacing(v, (1.0, 1.0, 2.0))
        want = resample_oracle(v.grid, v.spacing_mm, out.grid.shape, (1.0, 1.0, 2.0))
        assert out.grid.shape == (8, 10, 12)
        np.testing.assert_allclose(out.grid, want, rtol=0, atol=1e-5)

    def test_trilinear_matches_oracle_downsample_aniso(self):
        rng = np.random.default_rng(3)
        v = Volume(rng.normal(size=(8, 12, 10)).astype(np.float32), (1.0, 1.5, 1.0))
        target = (2.0, 2.0, 3.0)
        out = resample_to_spacing(v, target)
        want = resample_oracle(v.grid, v.spacing_mm, out.grid.shape, target)
        np.testing.assert_allclose(out.grid, want, rtol=0, atol=1e-5)

    def test_nearest_matches_oracle(self):
        rng = np.random.default_rng(4)
        lab = LabelVolume(rng.integers(0, 5, size=(6, 7, 8)).astype(np.uint8),
                          (1.0, 2.0, 3.0))
        target = (1.5, 1.0, 2.0)
        out = resample_to_spacing(lab, target)
        want = resample_oracle(lab.grid.astype(np.float64), lab.spacing_mm,
                               out.grid.shape, target, nearest=True)
        assert np.array_equal(out.grid, want.astype(np.uint8))

    def test_linear_ramp_preserved(self):
        # f(x) = x along each axis: trilinear interpolation reproduces the
        # ramp exactly away from the clamped borders
        D, H, W = 8, 8, 16
        z, y, x = np.meshgrid(np.arange(D), np.arange(H), np.arange(W),
                              indexing="ij")
        g = (x + 10 * y + 100 * z).astype(np.float32)
        v = Volume(g, (2.0, 2.0, 2.0))
        out = resample_to_spacing(v, (1.0, 1.0, 1.0))
        oz, oy, ox = np.meshgrid(np.arange(16), np.arange(16), np.arange(32),
                                 indexing="ij")
        want = ((ox + 0.5) / 2 - 0.5) + 10 * ((oy + 0.5) / 2 - 0.5) \
            + 100 * ((oz + 0.5) / 2 - 0.5)
        interior = (slice(1, -1),) * 3
        np.testing.assert_allclose(out.grid[interior], want[interior],
                                   rtol=0, atol=1e-5)

    def test_labels_never_invent_ids(self):
        rng = np.random.default_rng(5)
        ids = np.array([0, 3, 7, 9], dtype=np.uint8)
        lab = LabelVolume(ids[rng.integers(0, 4, size=(5, 6, 7))], (1.0, 1.0, 4.0))
        out = resample_to_spacing(lab, (0.7, 0.9, 1.1))
        assert set(np.unique(out.grid)) <= set(ids.tolist())
        assert out.grid.dtype == np.uint8

    def test_second_moments_survive_isotropic_resample(self):
        # physical shape statistics of a blob must be preserved (within 5%)
        # when moving from anisotropic to isotropic spacing
        spec = SyntheticSpec(shape=(32, 96, 96), spacing_mm=(1.0, 1.0, 4.0),
                             blobs_per_class=(1, 1),
                             radius_range_mm=(14.0, 14.01), seed=9)
        _, lab = generate_synthetic_case(spec)
        iso = resample_to_spacing(lab, (1.0, 1.0, 1.0))

        def moments(grid, sp):
            zz, yy, xx = np.nonzero(grid)
            return (np.std(zz * sp[2]), np.std(yy * sp[1]), np.std(xx * sp[0]))
        m0 = moments(lab.grid, lab.spacing_mm)
        m1 = moments(iso.grid, iso.spacing_mm)
        for a, b in zip(m0, m1):
            assert abs(a / b - 1.0) < 0.05

    def test_resample_to_grid_explicit_dims(self):
        rng = np.random.default_rng(6)
        v = Volume(rng.normal(size=(4, 6, 8)).astype(np.float32), (1.0, 1.0, 2.0))
        out = resample_to_grid(v, (8, 6, 8), (1.0, 1.0, 1.0))
        assert out.grid.shape == (8, 6, 8)
        want = resample_oracle(v.grid, v.spacing_mm, (8, 6, 8), (1.0, 1.0, 1.0))
        np.testing.assert_allclose(out.grid, want, rtol=0, atol=1e-5)

    def test_bad_target_spacing(self):
        v = Volume(np.zeros((4, 4, 4), np.float32), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="spacing"):
            resample_to_spacing(v, (1.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# patch sampling
# ---------------------------------------------------------------------------

def _toy_case():
    grid = np.zeros((8, 16, 16), np.float32)
    lab = np.zeros((8, 16, 16), np.uint8)
    lab[2:4, 3:6, 10:13] = 1     # one small foreground block
    grid[lab == 1] = 1.0
    return Volume(grid, (1.0, 1.0, 1.0)), LabelVolume(lab, (1.0, 1.0, 1.0))


class TestSamplePatches:
    def test_shapes_and_alignment(self):
        vol, lab = _toy_case()
        rng = np.random.default_rng(0)
        patches = sample_patches(vol, lab, (4, 8, 8), 5, 0.5, rng)
        assert len(patches) == 5
        for img, lb in patches:
            assert img.shape == (4, 8, 8) and lb.shape == (4, 8, 8)
            # image was built from labels, so alignment means exact agreement
            assert np.array_equal(img > 0.5, lb == 1)

    def test_fg_bias_one_always_hits_foreground(self):
        vol, lab = _toy_case()
        rng = np.random.default_rng(1)
        for img, lb in sample_patches(vol, lab, (4, 6, 6), 50, 1.0, rng):
            assert (lb > 0).any()

    def test_fg_bias_zero_is_uniform(self):
        vol, lab = _toy_case()
        rng = np.random.default_rng(2)
        hits = sum((lb > 0).any()
                   for _, lb in sample_patches(vol, lab, (2, 4, 4), 200, 0.0, rng))
        # fg block is tiny; uniform sampling must miss it most of the time
        assert hits < 120

    def test_deterministic_under_seed(self):
        vol, lab = _toy_case()
        a = sample_patches(vol, lab, (4, 8, 8), 6, 0.7, np.random.default_rng(9))
        b = sample_patches(vol, lab, (4, 8, 8), 6, 0.7, np.random.default_rng(9))
        for (ia, la), (ib, lbb) in zip(a, b):
            assert np.array_equal(ia, ib) and np.array_equal(la, lbb)

    def test_patch_equal_to_volume(self):
        vol, lab = _toy_case()
        (img, lb), = sample_patches(vol, lab, (8, 16, 16), 1, 1.0,
                                    np.random.default_rng(0))
        assert np.array_equal(img, vol.grid)
        assert np.array_equal(lb, lab.grid)

    def test_oversized_patch_rejected(self):
        vol, lab = _toy_case()
        with pytest.raises(ValueError, match="larger than volume"):
            sample_patches(vol, lab, (16, 16, 16), 1, 0.0,
                           np.random.default_rng(0))

    def test_mismatched_shapes_rejected(self):
        vol, _ = _toy_case()
        bad = LabelVolume(np.zeros((4, 16, 16), np.uint8), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="differ"):
            sample_patches(vol, bad, (2, 4, 4), 1, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

class TestVolumeIO:
    def test_image_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        v = Volume(rng.normal(size=(3, 5, 4)).astype(np.float32), (0.7, 1.1, 3.0))
        base = tmp_path / "case_000_img"
        write_volume(base, v)
        back = read_volume(base)
        assert isinstance(back, Volume)
        assert np.array_equal(back.grid, v.grid)
        assert back.spacing_mm == v.spacing_mm

    def test_label_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        lab = LabelVolume(rng.integers(0, 6, size=(4, 3, 5)).astype(np.uint8),
                          (1.0, 1.0, 4.0))
        base = tmp_path / "case_000_lbl"
        write_volume(base, lab)
        back = read_volume(base)
        assert isinstance(back, LabelVolume)
        assert np.array_equal(back.grid, lab.grid)
        assert back.spacing_mm == lab.spacing_mm

    def test_header_is_json_with_xyz_dims(self, tmp_path):
        v = Volume(np.zeros((2, 3, 4), np.float32), (0.5, 1.0, 2.0))
        base = tmp_path / "vol"
        write_volume(base, v)
        header = json.loads((tmp_path / "vol.hdr").read_text())
        # dims quoted [x, y, z] = grid shape reversed
        assert header["dims"] == [4, 3, 2]
        assert header["spacing_mm"] == [0.5, 1.0, 2.0]
        assert header["dtype"] == "f32"
        assert header["byte_order"] == "little"

    def test_payload_is_x_fastest(self, tmp_path):
        g = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        base = tmp_path / "vol"
        write_volume(base, Volume(g, (1.0, 1.0, 1.0)))
        raw = np.frombuffer((tmp_path / "vol.raw").read_bytes(), dtype="<f4")
        # first 4 scalars walk x at y=z=0
        assert np.array_equal(raw[:4], g[0, 0, :])
        # next 4 walk x at y=1
        assert np.array_equal(raw[4:8], g[0, 1, :])

    def test_truncated_payload_rejected(self, tmp_path):
        v = Volume(np.zeros((2, 3, 4), np.float32), (1.0, 1.0, 1.0))
        base = tmp_path / "vol"
        write_volume(base, v)
        raw = (tmp_path / "vol.raw").read_bytes()
        (tmp_path / "vol.raw").write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="bytes"):
            read_volume(base)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_rejected_naming_the_file(self, tmp_path, value):
        v = Volume(np.zeros((2, 3, 4), np.float32), (1.0, 1.0, 1.0))
        base = tmp_path / "vol"
        write_volume(base, v)
        raw = bytearray((tmp_path / "vol.raw").read_bytes())
        raw[20:24] = np.array([value], dtype="<f4").tobytes()
        (tmp_path / "vol.raw").write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            read_volume(base)
        assert str(info.value) == f"{base}.raw: volume grid contains non-finite values"

    def test_an_f32_grid_is_scanned_once(self, tmp_path, monkeypatch):
        write_volume(tmp_path / "vol", Volume(np.zeros((2, 3, 4), np.float32), (1.0, 1.0, 1.0)))
        scanned, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scanned.append(np.shape(a)) or isfinite(a))
        read_volume(tmp_path / "vol")
        assert scanned == [(2, 3, 4)]

    def test_bad_header_fields_rejected(self, tmp_path):
        v = Volume(np.zeros((2, 3, 4), np.float32), (1.0, 1.0, 1.0))
        base = tmp_path / "vol"
        write_volume(base, v)
        header = json.loads((tmp_path / "vol.hdr").read_text())

        bad = dict(header)
        bad["byte_order"] = "big"
        (tmp_path / "vol.hdr").write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="byte_order"):
            read_volume(base)

        bad = dict(header)
        bad["dtype"] = "f64"
        (tmp_path / "vol.hdr").write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="dtype"):
            read_volume(base)

        bad = dict(header)
        del bad["dims"]
        (tmp_path / "vol.hdr").write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="dims"):
            read_volume(base)

        (tmp_path / "vol.hdr").write_text(json.dumps([header]))
        with pytest.raises(ValueError, match="object"):
            read_volume(base)

        for field, value in (("dims", 24), ("dims", {"x": 4}), ("dims", [4, 3]),
                             ("dims", [4.0, 3, 2]), ("dims", ["4", "3", "2"]),
                             ("dims", [4, 3, True]), ("dims", [4, 3, 0]),
                             ("spacing_mm", 4.0), ("spacing_mm", [1.0, 1.0]),
                             ("spacing_mm", ["1", 1.0, 1.0]), ("spacing_mm", None),
                             ("dtype", ["f32"])):
            (tmp_path / "vol.hdr").write_text(json.dumps({**header, field: value}))
            with pytest.raises(ValueError, match=field):
                read_volume(base)

    @pytest.mark.parametrize("spacing", [[0.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1, 1, 0],
                                         [1.0, float("nan"), 1.0], [1.0, 1.0, float("inf")]])
    def test_non_positive_or_non_finite_spacing_rejected_naming_the_file(self, tmp_path,
                                                                         spacing):
        base = tmp_path / "vol"
        write_volume(base, LabelVolume(np.zeros((2, 3, 4), np.uint8), (1.0, 1.0, 1.0)))
        header = json.loads((tmp_path / "vol.hdr").read_text())
        (tmp_path / "vol.hdr").write_text(json.dumps({**header, "spacing_mm": spacing}))
        with pytest.raises(ValueError) as info:
            read_volume(base)
        assert str(info.value).startswith(f"{base}.hdr: spacing_mm must be 3 positive")

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        cases = [("case_000", "train"), ("case_001", "val")]
        write_manifest(path, cases, extra={"num_classes": 3})
        doc = read_manifest(path)
        assert doc["cases"] == [{"id": "case_000", "split": "train"},
                                {"id": "case_001", "split": "val"}]
        assert doc["num_classes"] == 3

    @pytest.mark.parametrize("field,value", [
        ("spacing_mm", ["1", "1", "4"]), ("spacing_mm", [1.0, 1.0]), ("spacing_mm", 4.0),
        ("spacing_mm", [1.0, 0.0, 4.0]), ("spacing_mm", [1.0, 1.0, float("nan")]),
        ("spacing_mm", [True, 1.0, 4.0]), ("spacing_mm", None),
        ("num_classes", 1), ("num_classes", 2.0), ("num_classes", "3"),
        ("num_classes", True), ("num_classes", None), ("num_classes", 257)])
    def test_manifest_dataset_fields_rejected_naming_file_and_field(self, tmp_path,
                                                                    field, value):
        path = tmp_path / "manifest.json"
        write_manifest(path, [("case_000", "train")], extra={field: value})
        with pytest.raises(ValueError) as info:
            read_manifest(path)
        assert str(info.value).startswith(f"{path}: {field} must be")

    def test_manifest_dataset_fields_accepted(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, [("case_000", "train")],
                       extra={"spacing_mm": [0.7, 1, 2.5], "num_classes": 14})
        assert read_manifest(path)["spacing_mm"] == [0.7, 1, 2.5]
        # uint8 labels hold class ids 0-255
        write_manifest(path, [("case_000", "train")], extra={"num_classes": 256})
        assert read_manifest(path)["num_classes"] == 256

    @pytest.mark.parametrize("splits", [("train", "train"), ("train", "val")])
    def test_manifest_repeated_id_rejected_naming_the_id_and_file(self, tmp_path, splits):
        path = tmp_path / "manifest.json"
        write_manifest(path, [("case_000", splits[0]), ("case_001", "train"),
                              ("case_000", splits[1])])
        with pytest.raises(ValueError) as info:
            read_manifest(path)
        assert str(info.value) == f"{path}: case id 'case_000' is listed more than once"

    def test_manifest_missing_cases_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="cases"):
            read_manifest(path)

    @pytest.mark.parametrize("name", ["manifest.json", "vol.hdr"])
    def test_truncated_json_rejected_naming_the_file(self, tmp_path, name):
        write_manifest(tmp_path / "manifest.json", [("case_000", "train")])
        write_volume(tmp_path / "vol", Volume(np.zeros((2, 3, 4), np.float32), (1.0, 1.0, 1.0)))
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:17])
        with pytest.raises(ValueError) as info:
            read_manifest(path) if name == "manifest.json" else read_volume(tmp_path / "vol")
        assert str(info.value).startswith(f"{path}: not valid JSON (")


# ---------------------------------------------------------------------------
# oracles: the forms that the memory-lean reads and resamples replaced
# ---------------------------------------------------------------------------

def read_payload_oracle(base):
    """A volume payload read whole into ``bytes``, then copied out of a
    ``frombuffer`` view: ``read_volume``'s earlier form."""
    with open(f"{base}.hdr", encoding="utf-8") as f:
        header = json.load(f)
    w, h, d = header["dims"]
    dt = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}[header["dtype"]]
    with open(f"{base}.raw", "rb") as f:
        payload = f.read()
    return np.frombuffer(payload, dtype=dt).reshape(d, h, w).copy()


def trilinear_float64_copy_oracle(v, dst_dims, dst_spacing):
    """``resample_to_grid``'s trilinear branch in its earlier form, which
    gathered the corners from a float64 copy of the whole grid."""
    grid = v.grid
    maps = [(np.arange(dst_dims[a]) + 0.5) * (dst_spacing[2 - a] / v.spacing_mm[2 - a]) - 0.5
            for a in range(3)]
    lo = [np.floor(m).astype(np.int64) for m in maps]
    frac = [m - i0 for m, i0 in zip(maps, lo)]
    out = np.zeros(tuple(dst_dims), dtype=np.float64)
    src = grid.astype(np.float64)
    for bz in (0, 1):
        wz = (1.0 - frac[0]) if bz == 0 else frac[0]
        iz = np.clip(lo[0] + bz, 0, grid.shape[0] - 1)
        for by in (0, 1):
            wy = (1.0 - frac[1]) if by == 0 else frac[1]
            iy = np.clip(lo[1] + by, 0, grid.shape[1] - 1)
            for bx in (0, 1):
                wx = (1.0 - frac[2]) if bx == 0 else frac[2]
                ix = np.clip(lo[2] + bx, 0, grid.shape[2] - 1)
                w = wz[:, None, None] * wy[None, :, None] * wx[None, None, :]
                out += w * src[np.ix_(iz, iy, ix)]
    return out.astype(np.float32)


@given(st.data())
def test_generated_payload_read_is_bitwise_the_whole_file_copy(tmp_path_factory, data):
    dims = tuple(data.draw(st.integers(1, 6)) for _ in range(3))
    spacing = tuple(data.draw(st.floats(0.05, 20.0)) for _ in range(3))
    if data.draw(st.booleans()):
        v = Volume(data.draw(arrays(np.float32, dims, elements=st.floats(
            allow_nan=False, allow_infinity=False, width=32))), spacing)
    else:
        v = LabelVolume(data.draw(arrays(np.uint8, dims)), spacing)
    base = tmp_path_factory.mktemp("payload") / "vol"
    write_volume(base, v)
    got, want = read_volume(base).grid, read_payload_oracle(base)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.flags.c_contiguous


@given(st.data())
def test_generated_trilinear_is_bitwise_the_float64_copy_form(data):
    dims = tuple(data.draw(st.integers(1, 7)) for _ in range(3))
    dst_dims = tuple(data.draw(st.integers(1, 9)) for _ in range(3))
    spacing = tuple(data.draw(st.floats(0.05, 20.0)) for _ in range(3))
    dst_spacing = tuple(data.draw(st.floats(0.05, 20.0)) for _ in range(3))
    v = Volume(data.draw(arrays(np.float32, dims, elements=st.floats(
        -1e6, 1e6, allow_nan=False, width=32))), spacing)
    got = resample_to_grid(v, dst_dims, dst_spacing).grid
    assert got.tobytes() == trilinear_float64_copy_oracle(v, dst_dims, dst_spacing).tobytes()


def ix_gather_oracle(v, dst_dims, dst_spacing):
    """``resample_to_grid`` in its earlier form, which gathered the labels
    and each trilinear corner with one ``np.ix_`` index of the three axes."""
    grid = v.grid
    maps = [(np.arange(dst_dims[a]) + 0.5) * (dst_spacing[2 - a] / v.spacing_mm[2 - a]) - 0.5
            for a in range(3)]
    if isinstance(v, LabelVolume):
        idx = [np.clip(np.floor(m + 0.5).astype(np.int64), 0, grid.shape[a] - 1)
               for a, m in enumerate(maps)]
        return grid[np.ix_(*idx)]
    lo = [np.floor(m).astype(np.int64) for m in maps]
    frac = [m - i0 for m, i0 in zip(maps, lo)]
    out = np.zeros(tuple(dst_dims), dtype=np.float64)
    for bz in (0, 1):
        wz = (1.0 - frac[0]) if bz == 0 else frac[0]
        iz = np.clip(lo[0] + bz, 0, grid.shape[0] - 1)
        for by in (0, 1):
            wy = (1.0 - frac[1]) if by == 0 else frac[1]
            iy = np.clip(lo[1] + by, 0, grid.shape[1] - 1)
            for bx in (0, 1):
                wx = (1.0 - frac[2]) if bx == 0 else frac[2]
                ix = np.clip(lo[2] + bx, 0, grid.shape[2] - 1)
                w = wz[:, None, None] * wy[None, :, None] * wx[None, None, :]
                out += w * grid[np.ix_(iz, iy, ix)]
    return out.astype(np.float32)


def assert_gather_is_the_ix_form(v, dst_dims, dst_spacing):
    got = resample_to_grid(v, dst_dims, dst_spacing)
    want = ix_gather_oracle(v, dst_dims, dst_spacing)
    assert type(got) is type(v)
    assert got.grid.dtype == want.dtype and got.grid.shape == want.shape
    assert got.grid.tobytes() == want.tobytes()


# (source dims, source spacing (x, y, z), destination dims, destination
# spacing): the evaluate geometry both ways, non-dyadic ratios, destinations
# reaching past the source (clamped corners) and extents of 1
GATHER_GEOMETRIES = [
    ((8, 16, 16), (0.5, 0.5, 2.0), (4, 8, 8), (1.0, 1.0, 4.0)),
    ((4, 8, 8), (1.0, 1.0, 4.0), (8, 16, 16), (0.5, 0.5, 2.0)),
    ((5, 7, 6), (0.7, 1.3, 2.9), (7, 5, 9), (1.1, 0.9, 1.7)),
    ((3, 4, 5), (1.0, 1.0, 1.0), (9, 11, 13), (0.35, 0.35, 0.35)),
    ((1, 6, 1), (1.0, 1.0, 1.0), (3, 2, 4), (0.5, 3.0, 0.25)),
    ((4, 5, 6), (1.0, 1.0, 1.0), (1, 1, 1), (7.0, 7.0, 7.0)),
]


@pytest.mark.parametrize("labels", [True, False], ids=["labels", "image"])
@pytest.mark.parametrize("src_dims,spacing,dst_dims,dst_spacing", GATHER_GEOMETRIES)
def test_gather_is_bitwise_the_ix_form(labels, src_dims, spacing, dst_dims, dst_spacing):
    rng = np.random.default_rng(sum(src_dims) + sum(dst_dims))
    if labels:
        v = LabelVolume(rng.integers(0, 5, size=src_dims).astype(np.uint8), spacing)
    else:
        v = Volume(rng.normal(size=src_dims).astype(np.float32), spacing)
    assert_gather_is_the_ix_form(v, dst_dims, dst_spacing)


@given(st.data())
def test_generated_gather_is_bitwise_the_ix_form(data):
    dims = tuple(data.draw(st.integers(1, 7)) for _ in range(3))
    spacing = tuple(data.draw(st.floats(0.05, 20.0)) for _ in range(3))
    # per axis: a drawn spacing ratio, so one volume may be upsampled along
    # one axis and downsampled along another; the destination may cover
    # less or more than the source, and clamped corners then repeat an edge
    ratios = [data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.1, 4.0))
              for _ in range(3)]
    dst_spacing = tuple(s * r for s, r in zip(spacing, ratios))
    dst_dims = tuple(data.draw(st.integers(1, 9)) for _ in range(3))
    if data.draw(st.booleans()):
        v = LabelVolume(data.draw(arrays(np.uint8, dims)), spacing)
    else:
        v = Volume(data.draw(arrays(np.float32, dims, elements=st.floats(
            -1e6, 1e6, allow_nan=False, width=32))), spacing)
    assert_gather_is_the_ix_form(v, dst_dims, dst_spacing)


def test_blob_misfit_message_prints_plain_floats():
    # NumPy scalars in the spec, as a caller computing the fields would pass
    with pytest.raises(ValueError, match="radius_range_mm") as info:
        SyntheticSpec(shape=tuple(np.int64(n) for n in (8, 16, 16)),
                      spacing_mm=(1.0, 1.0, 1.0),
                      radius_range_mm=(np.float64(30.0), np.float64(40.0)), seed=0)
    assert "np." not in str(info.value)
