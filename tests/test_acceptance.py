"""Acceptance gate: one test per numbered release criterion.

Each test prints exactly one ``[criterion NN] PASS|FAIL`` line straight to the
terminal (bypassing pytest capture) with the measured values and the pinned
tolerances, then asserts.  Under ``pytest -v`` the test name itself gives a
second pass/fail line per criterion.

The numeric thresholds of the end-to-end training criterion (10) were frozen
from a calibration run of the exact configuration used here: best validation
Dice 0.9856 against the 0.85 floor, overfit loss first below 0.1 at step 143
of the 200-step budget, 369 s of wall time against the 900 s cap.
"""

import math
import time

import numpy as np
import pytest

from phnet.autograd import Parameter, Tensor, backward, no_grad
from phnet.data import (
    LabelVolume,
    SyntheticSpec,
    generate_synthetic_case,
    write_manifest,
    write_volume,
)
from phnet.harness import (
    TrainConfig,
    evaluate,
    grad_check_suite,
    read_runlog,
    sliding_window_logits,
    train,
)
from phnet.layers import conv_nd, conv_output_extent, conv_transpose_nd, linear
from phnet.metrics import dice, evaluate_case, hausdorff, surface_dice
from phnet.mlpp import AAMLP, IPMLP, TPMLP, residual_attention_fuse
from phnet.model import PHNet, PHNetConfig, count_params, plan_stages
from phnet.optim import AdamW, lr_for_batch

from closed_form_flops import ip_mlp_flops, vanilla_token_mixing_flops

SPACING = (1.0, 1.0, 4.0)


def _report(capfd, num, label, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capfd.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def _zero_fcs(module):
    with no_grad():
        for name, p in module.named_parameters():
            if ".fc" in name or name.startswith("fc"):
                p.data[...] = 0.0


def _identity_fc(fc):
    with no_grad():
        fc.weight.data[...] = np.eye(fc.out_features)
        fc.bias.data[...] = 0.0


def _write_cases(root, specs_and_splits, num_classes=2):
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (spec, split) in enumerate(specs_and_splits):
        vol, lab = generate_synthetic_case(spec)
        cid = f"case_{i:03d}"
        write_volume(root / f"{cid}_img", vol)
        write_volume(root / f"{cid}_lbl", lab)
        entries.append((cid, split))
    write_manifest(root / "manifest.json", entries,
                   extra={"num_classes": num_classes,
                          "spacing_mm": list(SPACING)})


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient checks
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_checks(capfd):
    t0 = time.perf_counter()
    records = grad_check_suite(seed=0)
    elapsed = time.perf_counter() - t0
    by_name = {r["name"]: r for r in records}
    blocks = [
        "conv3d_input", "conv3d_kernel", "conv_transpose_input",
        "mix_input", "mix_weight", "mix_bias", "mix_summed_skip",
        "attention_fuse", "conv_norm_skip_relu",
        "channel_norm_input", "residual_block_input",
        "separable_block_input", "mlpp_block_input",
    ]
    covered = all(n in by_name for n in blocks) and "network_end_to_end" in by_name
    worst_block = max(by_name[n]["max_rel_err"] for n in blocks) if covered else math.inf
    e2e = by_name["network_end_to_end"]["max_rel_err"] if covered else math.inf
    ok = (covered and worst_block < 1e-5 and e2e < 1e-4
          and all(r["passed"] for r in records) and elapsed < 120.0)
    _report(capfd, 1, "finite-difference gradient checks", ok,
            f"worst block rel err {worst_block:.2e} < 1e-5, "
            f"end-to-end {e2e:.2e} < 1e-4, "
            f"{len(records)} checks in {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 2: brute-force numeric oracles
# ---------------------------------------------------------------------------

def _matmul_oracle(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def _conv_oracle(x, k, stride, padding):
    b, ci, *sp = x.shape
    co = k.shape[0]
    ks = k.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    osp = [(n + 2 * p - kk) // s + 1
           for n, kk, s, p in zip(sp, ks, stride, padding)]
    out = np.zeros((b, co) + tuple(osp), dtype=np.float64)
    for bi in range(b):
        for coi in range(co):
            for z in range(osp[0]):
                for y in range(osp[1]):
                    for xo in range(osp[2]):
                        z0, y0, x0 = (z * stride[0], y * stride[1],
                                      xo * stride[2])
                        win = xp[bi, :, z0:z0 + ks[0], y0:y0 + ks[1],
                                 x0:x0 + ks[2]]
                        out[bi, coi, z, y, xo] = float((win * k[coi]).sum())
    return out


def _stitch_oracle(shape, windows):
    k = windows[0][1].shape[0]
    out = np.zeros((k,) + tuple(shape), dtype=np.float64)
    for z in range(shape[0]):
        for y in range(shape[1]):
            for x in range(shape[2]):
                vals = [w[:, z - z0, y - y0, x - x0]
                        for (z0, y0, x0), w in windows
                        if z0 <= z < z0 + w.shape[1]
                        and y0 <= y < y0 + w.shape[2]
                        and x0 <= x < x0 + w.shape[3]]
                out[:, z, y, x] = np.mean(vals, axis=0)
    return out


class _SpyNet:
    """A float64 stand-in net for a grid whose voxels hold their flat index:
    each window's first voxel names its start, which is recorded with the
    random logits returned for the window."""

    dtype = np.dtype(np.float64)

    def __init__(self, shape, k, rng):
        self.shape, self.k, self.rng = shape, k, rng
        self.windows = []

    def __call__(self, t):
        x = t.data
        z, rem = divmod(int(x[0, 0, 0, 0, 0]), self.shape[1] * self.shape[2])
        logits = self.rng.normal(size=(self.k,) + x.shape[2:])
        self.windows.append(((z,) + divmod(rem, self.shape[2]), logits))
        return Tensor(logits[None])


def test_criterion_02_brute_force_oracles(capfd):
    rng = np.random.default_rng(20)

    mm_err = 0.0
    for _ in range(10):
        m, k, n = rng.integers(1, 17, size=3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        got = linear(a, b.T, np.zeros(n))
        mm_err = max(mm_err, float(np.abs(got - _matmul_oracle(a, b)).max()))

    conv_err = 0.0
    conv_cases = [
        ((1, 2, 1, 9, 8), (3, 2, 1, 3, 3), (1, 2, 2), (0, 1, 1)),   # planar
        ((2, 2, 5, 6, 7), (3, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1)),   # volumetric
        ((1, 3, 4, 5, 5), (2, 3, 3, 3, 3), (1, 1, 1), (0, 0, 0)),   # valid
    ]
    for xs, kshape, st, pd in conv_cases:
        x = rng.normal(size=xs)
        k = rng.normal(size=kshape)
        got = conv_nd(Tensor(x), Tensor(k), st, pd).data
        conv_err = max(conv_err,
                       float(np.abs(got - _conv_oracle(x, k, st, pd)).max()))

    adj_err = 0.0
    for ks, st, pd, xsp in [((2, 2, 2), (2, 2, 2), (0, 0, 0), (4, 4, 6)),
                            ((3, 3, 3), (1, 1, 1), (1, 1, 1), (4, 4, 4)),
                            ((1, 2, 2), (1, 2, 2), (0, 0, 0), (3, 4, 4))]:
        k = rng.normal(size=(2, 3) + ks)
        v = rng.normal(size=(2, 3) + xsp)
        ysp = tuple(conv_output_extent(n, kk, s, p)
                    for n, kk, s, p in zip(xsp, ks, st, pd))
        y = rng.normal(size=(2, 2) + ysp)
        vt = Tensor(v, requires_grad=True)
        loss = (conv_nd(vt, Tensor(k), st, pd) * Tensor(y)).sum()
        lhs = loss.item()
        if ks == st and pd == (0, 0, 0):
            adjoint = conv_transpose_nd(Tensor(y), Tensor(k)).data
        else:
            # a padded conv: the adjoint applied to y is its input gradient
            backward(loss)
            adjoint = vt.grad
        rhs = float((v * adjoint).sum())
        adj_err = max(adj_err, abs(lhs - rhs) / max(1.0, abs(lhs)))

    aa = AAMLP(2, rng=np.random.default_rng(21), dtype=np.float64)
    x = rng.normal(size=(2, 3, 2, 4, 6))
    got = aa(Tensor(x)).data
    wmat, bias = aa.fc.weight.data, aa.fc.bias.data
    want = np.zeros_like(x)
    for b in range(2):
        for c in range(3):
            for d in range(2):
                for hs in range(2):
                    for ws in range(3):
                        win = x[b, c, d, hs * 2:hs * 2 + 2, ws * 2:ws * 2 + 2]
                        want[b, c, d, hs * 2:hs * 2 + 2, ws * 2:ws * 2 + 2] = \
                            (wmat @ win.reshape(4) + bias).reshape(2, 2)
    aa_err = float(np.abs(got - want).max())

    # the stitching inference runs, fed by a net that records its windows
    shape, patch = (8, 12, 10), (4, 6, 5)
    spy = _SpyNet(shape, 3, rng)
    got = sliding_window_logits(spy, np.arange(math.prod(shape), dtype=np.float64)
                                .reshape(shape), patch)
    stitch_err = float(np.abs(got - _stitch_oracle(shape, spy.windows)).max())

    ok = (mm_err <= 1e-12 and conv_err <= 1e-10 and adj_err <= 1e-10
          and aa_err <= 1e-10 and stitch_err <= 1e-6)
    _report(capfd, 2, "brute-force numeric oracles", ok,
            f"linear {mm_err:.1e} <= 1e-12, conv {conv_err:.1e} <= 1e-10, "
            f"transpose adjoint {adj_err:.1e} <= 1e-10, "
            f"window mixing {aa_err:.1e} <= 1e-10, "
            f"stitching {stitch_err:.1e} <= 1e-6")


# ---------------------------------------------------------------------------
# criterion 3: fusion and pathway identities
# ---------------------------------------------------------------------------

def test_criterion_03_pathway_identities(capfd):
    rng = np.random.default_rng(30)

    y_ip = rng.normal(size=(2, 3, 2, 4, 4))
    zeros = Tensor(np.zeros_like(y_ip))
    fused = residual_attention_fuse(Tensor(y_ip), zeros, zeros)
    ok_fuse = np.array_equal(fused.data, y_ip)

    ip = IPMLP(4, 2, dtype=np.float64)
    _zero_fcs(ip)
    _identity_fc(ip.fc_c)
    _identity_fc(ip.fc_fuse)
    x = rng.normal(size=(2, 4, 2, 4, 4))
    ok_channel = np.array_equal(ip(Tensor(x)).data, x)

    h = w = c = seg = 4  # one horizontal segment per row, one channel per group
    row_ip = IPMLP(c, seg, rng=np.random.default_rng(31), dtype=np.float64)
    _zero_fcs(row_ip)
    wmat = rng.normal(size=(c, c))
    bias = rng.normal(size=c)
    with no_grad():
        row_ip.fc_w.weight.data[...] = wmat
        row_ip.fc_w.bias.data[...] = bias
    _identity_fc(row_ip.fc_fuse)
    xr = rng.normal(size=(1, c, 2, h, w))
    got = row_ip(Tensor(xr)).data
    want = np.zeros_like(xr)
    for d in range(2):
        for hi in range(h):
            for ci in range(c):
                want[0, ci, d, hi, :] = wmat @ xr[0, ci, d, hi, :] + bias
    row_err = float(np.abs(got - want).max())

    ok = ok_fuse and ok_channel and row_err <= 1e-10
    _report(capfd, 3, "fusion and pathway identities", ok,
            f"zero-attention fuse bitwise={ok_fuse}, "
            f"channel-identity pathway bitwise={ok_channel}, "
            f"full-width row pathway vs dense per-row map {row_err:.1e} <= 1e-10")


# ---------------------------------------------------------------------------
# criterion 4: segment locality
# ---------------------------------------------------------------------------

def test_criterion_04_segment_locality(capfd):
    c, seg = 4, 2
    ip = IPMLP(c, seg, rng=np.random.default_rng(40), dtype=np.float64)
    tp = TPMLP(c, seg, rng=np.random.default_rng(41), dtype=np.float64)
    rng = np.random.default_rng(42)

    leaks = 0
    touched = 0

    x = rng.normal(size=(1, c, 2, 8, 8))
    base = ip(Tensor(x)).data
    for _ in range(25):
        d0 = int(rng.integers(0, 2))
        h0 = int(rng.integers(0, 8))
        w0 = int(rng.integers(0, 8))
        c0 = int(rng.integers(0, c))
        pert = x.copy()
        pert[0, c0, d0, h0, w0] += 0.5 + float(rng.random())
        out = ip(Tensor(pert)).data
        allowed = np.zeros(x.shape, dtype=bool)
        hs, ws = (h0 // seg) * seg, (w0 // seg) * seg
        allowed[0, :, d0, hs:hs + seg, w0] = True   # column segment of h0
        allowed[0, :, d0, h0, ws:ws + seg] = True   # row segment of w0
        diff = out != base
        leaks += int(np.count_nonzero(diff & ~allowed))
        touched += int(diff.any())

    xt = rng.normal(size=(1, c, 8, 3, 3))
    base_t = tp(Tensor(xt)).data
    for _ in range(25):
        d0 = int(rng.integers(0, 8))
        h0 = int(rng.integers(0, 3))
        w0 = int(rng.integers(0, 3))
        c0 = int(rng.integers(0, c))
        pert = xt.copy()
        pert[0, c0, d0, h0, w0] += 0.5 + float(rng.random())
        out = tp(Tensor(pert)).data
        allowed = np.zeros(xt.shape, dtype=bool)
        ds = (d0 // seg) * seg
        allowed[0, :, ds:ds + seg, h0, w0] = True   # depth segment of d0
        diff = out != base_t
        leaks += int(np.count_nonzero(diff & ~allowed))
        touched += int(diff.any())

    ok = leaks == 0 and touched == 50
    _report(capfd, 4, "segment locality", ok,
            f"50 single-voxel probes, {touched} changed their own segment, "
            f"{leaks} voxels changed outside the segment (exact-zero required)")


# ---------------------------------------------------------------------------
# criterion 5: cost-model scaling law
# ---------------------------------------------------------------------------

def test_criterion_05_flop_scaling(capfd):
    t0 = time.perf_counter()
    ok = True
    for h, w, c in [(32, 48, 16), (64, 64, 320), (8, 24, 40), (96, 80, 64)]:
        ok = ok and ip_mlp_flops(2 * h, w, c) == 2 * ip_mlp_flops(h, w, c)
        ok = ok and (vanilla_token_mixing_flops(2 * h, w, c)
                     == 4 * vanilla_token_mixing_flops(h, w, c))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(capfd, 5, "cost-model scaling", ok,
            "doubling H exactly doubles segmented mixing cost and exactly "
            f"quadruples dense token mixing cost ({elapsed * 1e3:.0f}ms < 1s)")


# ---------------------------------------------------------------------------
# criterion 6: resolution-insensitive weights
# ---------------------------------------------------------------------------

def test_criterion_06_resolution_insensitive_weights(capfd):
    cfg = PHNetConfig(num_stages=4, base_channels=8, max_channels=320,
                      num_classes=2, voxel_spacing_mm=SPACING,
                      patch_size=(64, 64, 16), blocks_per_stage=1,
                      mlpp_num_layers=1)
    net = PHNet(cfg, seed=6)
    before = [p.data.copy() for p in net.parameters()]
    n_params = count_params(net)

    rng = np.random.default_rng(60)
    ok = True
    tried = []
    with no_grad():
        for d, h, w in [(16, 64, 64), (16, 96, 96), (32, 64, 64)]:
            x = Tensor(rng.normal(size=(1, 1, d, h, w)).astype(np.float32))
            y = net(x)
            ok = ok and y.shape == (1, 2, d, h, w)
            tried.append(f"{(d, h, w)}->{y.shape[2:]}")

    same = all(np.array_equal(p.data, b)
               for p, b in zip(net.parameters(), before))
    ok = ok and same and count_params(net) == n_params
    _report(capfd, 6, "resolution-insensitive weights", ok,
            f"one weight set ({n_params} params, built for 64x64x16) ran at "
            f"{'; '.join(tried)} with params bitwise unchanged={same}")


# ---------------------------------------------------------------------------
# criterion 7: spacing-driven stage planning
# ---------------------------------------------------------------------------

def test_criterion_07_spacing_driven_planning(capfd):
    aniso = plan_stages(PHNetConfig(num_stages=5,
                                    voxel_spacing_mm=(0.74, 0.74, 5.00)))
    iso = plan_stages(PHNetConfig(num_stages=5,
                                  voxel_spacing_mm=(1.0, 1.0, 1.0)))
    planar = [s.stride == (1, 2, 2) and s.kernel[0] == 1 for s in aniso]
    ok = (planar == [True, True, True, False, False]
          and all(s.stride == (2, 2, 2) for s in iso))
    _report(capfd, 7, "spacing-driven stage planning", ok,
            f"spacing (0.74, 0.74, 5.00) plans {sum(planar)} leading in-plane "
            f"stages of 5 (expected 3); isotropic spacing plans 0")


# ---------------------------------------------------------------------------
# criterion 8: segmentation metrics vs brute force
# ---------------------------------------------------------------------------

def _surface_oracle(m):
    out = np.zeros_like(m, dtype=bool)
    dz, dy, dx = m.shape
    for z in range(dz):
        for y in range(dy):
            for x in range(dx):
                if not m[z, y, x]:
                    continue
                for oz, oy, ox in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nz, ny, nx = z + oz, y + oy, x + ox
                    if (not (0 <= nz < dz and 0 <= ny < dy and 0 <= nx < dx)
                            or not m[nz, ny, nx]):
                        out[z, y, x] = True
                        break
    return out


def _points_mm_oracle(m, spacing):
    scale = np.array([spacing[2], spacing[1], spacing[0]])
    return np.argwhere(_surface_oracle(m)).astype(np.float64) * scale


def _directed_oracle(src, dst):
    return np.array([np.sqrt(((dst - s) ** 2).sum(axis=1)).min() for s in src])


def test_criterion_08_metric_oracles(capfd):
    def vol(arr, spacing=SPACING):
        return LabelVolume(np.asarray(arr, dtype=np.uint8), spacing)

    def iou(pred, gt):
        return evaluate_case(pred, gt, 2)[0]["iou"]

    def nvd(pred, gt):
        return evaluate_case(pred, gt, 2)[0]["nvd_percent"]

    cube = np.zeros((4, 4, 4), np.uint8)
    cube[1:3, 1:3, 1:3] = 1
    far = np.zeros((4, 4, 4), np.uint8)
    far[0, 0, 0] = 1
    empty = np.zeros((4, 4, 4), np.uint8)
    p1 = np.zeros((4, 4, 4), np.uint8)
    p1[0, 0, 0] = 1
    p2 = np.zeros((4, 4, 4), np.uint8)
    p2[2, 0, 0] = 1
    five = np.zeros((4, 4, 4), np.uint8)
    five[0, 0, :] = 1
    five[0, 1, 0] = 1
    four = np.zeros((4, 4, 4), np.uint8)
    four[0, 0, :] = 1

    ok_trivial = (
        dice(vol(cube), vol(cube), 1) == 1.0
        and iou(vol(cube), vol(cube)) == 1.0
        and dice(vol(cube), vol(far), 1) == 0.0
        and dice(vol(empty), vol(empty), 1) == 1.0
        and hausdorff(vol(empty), vol(cube), 1) is None
        and surface_dice(vol(empty), vol(cube), 1, 1.0) is None
        and surface_dice(vol(empty), vol(empty), 1, 1.0) == 1.0
        and nvd(vol(cube), vol(empty)) is None
        # two single voxels two z-steps apart: distance 2 * 4.0 mm
        and hausdorff(vol(p1), vol(p2), 1, percentile=100) == 8.0
        # 5 vs 4 foreground voxels: 100 * |5-4| / 4
        and nvd(vol(five), vol(four)) == 25.0
    )

    rng = np.random.default_rng(80)
    spc = (0.8, 1.1, 2.5)
    worst = {"dice": 0.0, "iou": 0.0, "link": 0.0, "hd": 0.0,
             "sd": 0.0, "nvd": 0.0}
    nvd_nones = dist_nones = 0
    for trial in range(50):
        shape = tuple(int(s) for s in rng.integers(4, 9, size=3))
        pa = rng.random(shape) < 0.3
        ga = rng.random(shape) < 0.3
        if trial < 2:
            ga[:] = False  # exercise the undefined-metric contract
        pv, gv = vol(pa, spc), vol(ga, spc)

        d = dice(pv, gv, 1)
        i = iou(pv, gv)
        inter = int(np.logical_and(pa, ga).sum())
        union = int(np.logical_or(pa, ga).sum())
        total = int(pa.sum()) + int(ga.sum())
        want_d = 1.0 if total == 0 else 2.0 * inter / total
        want_i = 1.0 if union == 0 else inter / union
        worst["dice"] = max(worst["dice"], abs(d - want_d))
        worst["iou"] = max(worst["iou"], abs(i - want_i))
        worst["link"] = max(worst["link"], abs(d - 2.0 * i / (1.0 + i)))

        v_g = int(ga.sum()) * math.prod(spc)
        got_nvd = nvd(pv, gv)
        if v_g == 0:
            nvd_nones += got_nvd is None
        else:
            want_nvd = 100.0 * abs(int(pa.sum()) * math.prod(spc) - v_g) / v_g
            worst["nvd"] = max(worst["nvd"], abs(got_nvd - want_nvd))

        got_hd = hausdorff(pv, gv, 1, percentile=95)
        got_sd = surface_dice(pv, gv, 1, tolerance_mm=2.0)
        pp = _points_mm_oracle(pa, spc)
        gp = _points_mm_oracle(ga, spc)
        if len(pp) == 0 or len(gp) == 0:
            dist_nones += (got_hd is None) and (got_sd is None)
            continue
        pooled = np.concatenate([_directed_oracle(pp, gp),
                                 _directed_oracle(gp, pp)])
        worst["hd"] = max(worst["hd"],
                          abs(got_hd - float(np.percentile(pooled, 95))))
        worst["sd"] = max(worst["sd"],
                          abs(got_sd - float((pooled <= 2.0).mean())))

    ok = (ok_trivial and worst["dice"] <= 1e-12 and worst["iou"] <= 1e-12
          and worst["link"] <= 1e-12 and worst["hd"] <= 1e-9
          and worst["sd"] <= 1e-12 and worst["nvd"] <= 1e-9
          and nvd_nones == 2 and dist_nones == 2)
    _report(capfd, 8, "segmentation metrics vs brute force", ok,
            f"analytic cases pass={ok_trivial}; 50 random pairs: "
            f"dice {worst['dice']:.1e} <= 1e-12, iou {worst['iou']:.1e} <= 1e-12, "
            f"dice==2*iou/(1+iou) {worst['link']:.1e} <= 1e-12, "
            f"hausdorff {worst['hd']:.1e} <= 1e-9, "
            f"surface dice {worst['sd']:.1e} <= 1e-12, "
            f"volume diff {worst['nvd']:.1e} <= 1e-9")


# ---------------------------------------------------------------------------
# criterion 9: optimizer contracts
# ---------------------------------------------------------------------------

def test_criterion_09_optimizer_contracts(capfd):
    ok_lr = lr_for_batch(1024) == 1e-3 and lr_for_batch(2) == 1.953125e-6

    lr, b1, b2, eps, wd = 2e-3, 0.9, 0.999, 1e-8, 1e-2
    rng = np.random.default_rng(90)
    init = [rng.normal(size=(3,)), rng.normal(size=(2, 2))]
    params = [Parameter(v.copy()) for v in init]
    opt = AdamW(params, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)

    ref = [v.copy() for v in init]
    m = [np.zeros_like(v) for v in init]
    s = [np.zeros_like(v) for v in init]
    max_err = 0.0
    for t in range(1, 101):
        grads = [np.sin(0.1 * t + np.arange(v.size).reshape(v.shape) + j)
                 for j, v in enumerate(init)]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for j, g in enumerate(grads):
            m[j] = b1 * m[j] + (1.0 - b1) * g
            s[j] = b2 * s[j] + (1.0 - b2) * g * g
            m_hat = m[j] / (1.0 - b1 ** t)
            s_hat = s[j] / (1.0 - b2 ** t)
            ref[j] = ref[j] * (1.0 - lr * wd) - lr * m_hat / (np.sqrt(s_hat) + eps)
        max_err = max(max_err,
                      max(float(np.abs(p.data - r).max())
                          for p, r in zip(params, ref)))

    ok = ok_lr and max_err <= 1e-12
    _report(capfd, 9, "optimizer contracts", ok,
            f"lr(1024)==1e-3 and lr(2)==1.953125e-6 exact={ok_lr}; "
            f"100 AdamW steps vs hand oracle {max_err:.1e} <= 1e-12")


# ---------------------------------------------------------------------------
# criterion 10: end-to-end training on synthetic data
# ---------------------------------------------------------------------------

def test_criterion_10_end_to_end_training(capfd, tmp_path_factory):
    t0 = time.perf_counter()
    base = tmp_path_factory.mktemp("accept_train")

    data = base / "data"
    _write_cases(data, [
        (SyntheticSpec(shape=(32, 64, 64), spacing_mm=SPACING, seed=i),
         "train" if i < 16 else "val")
        for i in range(20)
    ])
    cfg = TrainConfig(data_dir=str(data), out_dir=str(base / "run"),
                      epochs=50, batch_size=4, patches_per_case=1,
                      patch_size=(64, 64, 32), fg_bias=0.7, val_interval=5,
                      seed=0, lr=3e-3, num_stages=4, base_channels=8,
                      max_channels=320, blocks_per_stage=2, mlpp_num_layers=2)
    result = train(cfg)
    rows = evaluate(result["checkpoint"], str(data), split="val")
    dices = [r["dice"] for r in rows if r.get("class") == 1 and not r.get("error")]
    mean_dice = float(np.mean(dices)) if dices else 0.0

    odata = base / "overfit_data"
    _write_cases(odata, [(SyntheticSpec(shape=(32, 64, 64), spacing_mm=SPACING,
                                        seed=123), "train")])
    ocfg = TrainConfig(data_dir=str(odata), out_dir=str(base / "overfit_run"),
                       epochs=200, batch_size=1, patches_per_case=1,
                       patch_size=(64, 64, 32), fg_bias=1.0, val_interval=1000,
                       seed=0, lr=3e-3, num_stages=4, base_channels=8,
                       max_channels=320, blocks_per_stage=2, mlpp_num_layers=2)
    ores = train(ocfg)
    losses = [r["loss"] for r in read_runlog(ores["runlog"])
              if r["kind"] == "step"]
    below = next((i + 1 for i, l in enumerate(losses) if l < 0.1), None)

    elapsed = time.perf_counter() - t0
    ok = (result["steps"] == 200 and len(dices) == 4 and mean_dice >= 0.85
          and len(losses) == 200 and below is not None and elapsed < 900.0)
    _report(capfd, 10, "end-to-end training", ok,
            f"held-out mean Dice {mean_dice:.4f} >= 0.85 over {len(dices)} "
            f"cases (200 steps), overfit loss first < 0.1 at step {below} "
            f"of 200 (final {losses[-1]:.4f}), wall time {elapsed:.0f}s < 900s")


# ---------------------------------------------------------------------------
# criterion 11: determinism
# ---------------------------------------------------------------------------

def _tiny_train_cfg(data_dir, out_dir):
    return TrainConfig(data_dir=str(data_dir), out_dir=str(out_dir), epochs=2,
                       batch_size=2, patches_per_case=2, patch_size=(16, 16, 8),
                       fg_bias=0.7, val_interval=1, seed=1, num_stages=2,
                       base_channels=4, max_channels=8, blocks_per_stage=1,
                       mlpp_num_layers=1)


def test_criterion_11_determinism(capfd, tmp_path_factory):
    base = tmp_path_factory.mktemp("accept_det")

    spec = SyntheticSpec(shape=(8, 16, 16), spacing_mm=SPACING,
                         blobs_per_class=(1, 2), radius_range_mm=(3.0, 5.0),
                         seed=5)
    va, la = generate_synthetic_case(spec)
    vb, lb = generate_synthetic_case(spec)
    ok_gen = np.array_equal(va.grid, vb.grid) and np.array_equal(la.grid, lb.grid)

    data = base / "data"
    _write_cases(data, [
        (SyntheticSpec(shape=(8, 16, 16), spacing_mm=SPACING,
                       blobs_per_class=(1, 2), radius_range_mm=(3.0, 5.0),
                       seed=100 + i),
         "train" if i < 3 else "val")
        for i in range(4)
    ])
    r1 = train(_tiny_train_cfg(data, base / "run1"))
    r2 = train(_tiny_train_cfg(data, base / "run2"))
    l1 = [r["loss"] for r in read_runlog(r1["runlog"]) if r["kind"] == "step"]
    l2 = [r["loss"] for r in read_runlog(r2["runlog"]) if r["kind"] == "step"]
    ok_train = l1 == l2 and len(l1) == 6
    ok_train = ok_train and r1["best_val_dice"] == r2["best_val_dice"]

    # parameter payload after the JSON header line must match byte for byte
    with open(r1["checkpoint"], "rb") as f:
        pay1 = f.read().split(b"\n", 1)[1]
    with open(r2["checkpoint"], "rb") as f:
        pay2 = f.read().split(b"\n", 1)[1]
    ok_ckpt = pay1 == pay2

    rows_a = evaluate(r1["checkpoint"], str(data), split="val")
    rows_b = evaluate(r1["checkpoint"], str(data), split="val")
    rows_c = evaluate(r2["checkpoint"], str(data), split="val")
    ok_eval = rows_a == rows_b == rows_c

    ok = ok_gen and ok_train and ok_ckpt and ok_eval
    _report(capfd, 11, "determinism", ok,
            f"synthetic volumes bitwise={ok_gen}, loss sequences identical "
            f"over {len(l1)} steps={ok_train}, checkpoint payloads "
            f"byte-identical={ok_ckpt}, evaluation rows identical={ok_eval}")
