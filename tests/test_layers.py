import itertools
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import scipy
from scipy.linalg.blas import get_blas_funcs

from phnet import layers
from phnet.autograd import Tensor, Parameter, backward, grad_check, make_node, no_grad
from phnet.layers import (
    ChannelNorm,
    Conv,
    ConvNormAct,
    ConvTranspose,
    InstanceNorm,
    Linear,
    ResidualConvBlock,
    SeparableConvBlock,
    affine_norm,
    conv_nd,
    conv_output_extent,
    conv_transpose_nd,
    linear,
    same_padding,
)
from phnet.mlpp import mix


def conv_oracle(x, k, stride, padding, bias=None):
    """Six-deep nested-loop direct convolution; the reference semantics."""
    B, Ci, D, H, W = x.shape
    Co = k.shape[0]
    kd, kh, kw = k.shape[2:]
    sd, sh, sw = stride
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    Do = (D + 2 * pd - kd) // sd + 1
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, Co, Do, Ho, Wo), dtype=x.dtype)
    for b in range(B):
        for co in range(Co):
            for z in range(Do):
                for y in range(Ho):
                    for xx in range(Wo):
                        acc = 0.0
                        for ci in range(Ci):
                            for dz in range(kd):
                                for dy in range(kh):
                                    for dx in range(kw):
                                        acc += (xp[b, ci, z * sd + dz, y * sh + dy, xx * sw + dx]
                                                * k[co, ci, dz, dy, dx])
                        out[b, co, z, y, xx] = acc
            if bias is not None:
                out[b, co] += bias[co]
    return out


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


# ---------------------------------------------------------------------------
# conv_nd
# ---------------------------------------------------------------------------

def test_conv_delta_kernel_identity():
    x = rand((1, 1, 3, 4, 5), seed=0)
    k = np.ones((1, 1, 1, 1, 1))
    out = conv_nd(Tensor(x), Tensor(k), 1, 0)
    np.testing.assert_array_equal(out.data, x)


def test_conv_2d_ones_kernel_counts_overlap():
    # k_d = 1, 3x3 all-ones kernel, pad (0,1,1), constant input 1:
    # interior positions see 9 ones, corners see 4
    x = np.ones((1, 1, 1, 5, 5))
    k = np.ones((1, 1, 1, 3, 3))
    out = conv_nd(Tensor(x), Tensor(k), 1, (0, 1, 1)).data[0, 0, 0]
    assert out[2, 2] == 9.0
    assert out[0, 0] == 4.0 and out[0, 4] == 4.0 and out[4, 0] == 4.0 and out[4, 4] == 4.0


def test_conv_random_3d_matches_nested_loop_oracle():
    x = rand((2, 3, 5, 6, 7), seed=1)
    k = rand((4, 3, 3, 3, 3), seed=2)
    got = conv_nd(Tensor(x), Tensor(k), (1, 2, 1), (1, 1, 0)).data
    want = conv_oracle(x, k, (1, 2, 1), (1, 1, 0))
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("p", [0, 1])
def test_conv_oracle_sweep(k, s, p):
    x = rand((2, 3, 5, 6, 7), seed=10 * k + s)
    kern = rand((2, 3, k, k, k), seed=100 + 10 * k + p)
    got = conv_nd(Tensor(x), Tensor(kern), s, p).data
    np.testing.assert_allclose(got, conv_oracle(x, kern, (s,) * 3, (p,) * 3), atol=1e-10)


def test_conv_anisotropic_kernel_oracle():
    x = rand((1, 2, 4, 6, 6), seed=3)
    k = rand((3, 2, 1, 3, 3), seed=4)
    got = conv_nd(Tensor(x), Tensor(k), (1, 2, 2), (0, 1, 1)).data
    np.testing.assert_allclose(got, conv_oracle(x, k, (1, 2, 2), (0, 1, 1)), atol=1e-10)


def test_conv_bias_added_per_channel():
    x = rand((1, 2, 3, 3, 3), seed=5)
    k = rand((2, 2, 1, 1, 1), seed=6)
    b = np.array([1.0, -2.0])
    got = conv_nd(Tensor(x), Tensor(k), 1, 0, Tensor(b)).data
    np.testing.assert_allclose(got, conv_oracle(x, k, (1, 1, 1), (0, 0, 0), b), atol=1e-12)


def test_conv_output_extent_formula():
    assert conv_output_extent(8, 3, 1, 1) == 8
    assert conv_output_extent(8, 3, 2, 1) == 4
    assert conv_output_extent(5, 2, 2, 0) == 2


def test_conv_channel_mismatch():
    with pytest.raises(ValueError):
        conv_nd(Tensor(np.zeros((1, 3, 4, 4, 4))), Tensor(np.zeros((2, 2, 1, 1, 1))), 1, 0)


def test_conv_kernel_larger_than_padded_input():
    with pytest.raises(ValueError):
        conv_nd(Tensor(np.zeros((1, 1, 2, 2, 2))), Tensor(np.zeros((1, 1, 3, 3, 3))), 1, 0)


def test_conv_rejects_bad_stride_and_padding():
    x = Tensor(np.zeros((1, 1, 4, 4, 4)))
    k = Tensor(np.zeros((1, 1, 3, 3, 3)))
    with pytest.raises(ValueError):
        conv_nd(x, k, 0, 1)
    with pytest.raises(ValueError):
        conv_nd(x, k, 1, -1)


def test_conv_gradients_finite_differences():
    rng = np.random.default_rng(7)
    kern = rng.normal(size=(2, 2, 3, 3, 3))

    def f_x(x):
        return conv_nd(x, Tensor(kern), (1, 2, 2), 1).sum()

    assert grad_check(f_x, Tensor(rng.normal(size=(1, 2, 4, 6, 6))), h=1e-5) < 1e-6

    xfix = rng.normal(size=(1, 2, 4, 6, 6))

    def f_k(k):
        return conv_nd(Tensor(xfix), k, (1, 2, 2), 1).sum()

    assert grad_check(f_k, Tensor(kern), h=1e-5) < 1e-6


def test_conv_grad_nonlinear_objective():
    # squared objective exercises the adjoint with a non-constant cotangent
    rng = np.random.default_rng(8)
    kern = rng.normal(size=(2, 3, 2, 2, 2))

    def f(x):
        y = conv_nd(x, Tensor(kern), 2, 1)
        return (y * y).sum()

    assert grad_check(f, Tensor(rng.normal(size=(2, 3, 4, 5, 5))), h=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# conv_transpose_nd
# ---------------------------------------------------------------------------

def test_transpose_geometry_doubles_extent():
    x = Tensor(rand((1, 2, 4, 4, 4), seed=9))
    k = Tensor(rand((2, 3, 2, 2, 2), seed=10))
    assert conv_transpose_nd(x, k).shape == (1, 3, 8, 8, 8)


def test_transpose_zero_input():
    k = Tensor(rand((2, 3, 2, 2, 2), seed=11))
    out = conv_transpose_nd(Tensor(np.zeros((1, 2, 3, 3, 3))), k)
    np.testing.assert_array_equal(out.data, np.zeros((1, 3, 6, 6, 6)))


@pytest.mark.parametrize("ks,xsp", [
    ((2, 2, 2), (4, 4, 6)),
    ((3, 1, 2), (6, 5, 4)),
    ((1, 2, 2), (3, 4, 4)),
])
def test_transpose_is_exact_adjoint(ks, xsp):
    # <conv(v), y> == <v, conv_transpose(y)> for random v, y, where the conv
    # has the stride of the transpose: its kernel extents
    rng = np.random.default_rng(12)
    ci, co = 3, 2
    k = rng.normal(size=(co, ci) + ks)
    v = rng.normal(size=(2, ci) + xsp)
    y = rng.normal(size=(2, co) + tuple(n // kk for n, kk in zip(xsp, ks)))
    lhs = float((conv_nd(Tensor(v), Tensor(k), ks, 0).data * y).sum())
    # adjoint maps y-space back to v-space; kernel seen from the transpose
    # side is (C_in=co, C_out=ci)
    vt = conv_transpose_nd(Tensor(y), Tensor(k)).data
    assert vt.shape == v.shape
    rhs = float((v * vt).sum())
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_transpose_gradients_finite_differences():
    rng = np.random.default_rng(13)
    kern = rng.normal(size=(3, 2, 2, 2, 2))

    def f_x(x):
        y = conv_transpose_nd(x, Tensor(kern))
        return (y * y).sum()

    assert grad_check(f_x, Tensor(rng.normal(size=(1, 3, 3, 3, 3))), h=1e-5) < 1e-6

    xfix = rng.normal(size=(1, 3, 3, 3, 3))

    def f_k(k):
        y = conv_transpose_nd(Tensor(xfix), k)
        return (y * y).sum()

    assert grad_check(f_k, Tensor(kern), h=1e-5) < 1e-6


def test_transpose_channel_mismatch():
    with pytest.raises(ValueError):
        conv_transpose_nd(Tensor(np.zeros((1, 3, 4, 4, 4))),
                          Tensor(np.zeros((2, 3, 2, 2, 2))))


@pytest.mark.parametrize("x_shape,k_shape", [
    ((1, 2, 4, 4, 4), (2, 3, 2, 2)),            # rank-4 kernel
    ((2, 4, 4, 4), (2, 3, 2, 2, 2)),            # rank-4 input
    ((1, 2, 4, 4, 4), (2, 3, 2, 0, 2)),         # a zero kernel extent
    ((1, 2, 4, 0, 4), (2, 3, 2, 2, 2)),         # an empty input axis
])
def test_transpose_rejects_bad_geometry(x_shape, k_shape):
    with pytest.raises(ValueError, match="conv"):
        conv_transpose_nd(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)))


def upsampler_oracle(x, k, g):
    """Brute-force upsampler: input voxel (z, y, x) of batch item b writes
    ``x[b, :, z, y, x] @ k[:, :, a, b', c]`` at (z*kd + a, y*kh + b', x*kw + c),
    its own kernel-sized block.  Returns the output and the gradients of
    <output, g> with respect to x and k, taken block by block."""
    B, _, D, H, W = x.shape
    kd, kh, kw = k.shape[2:]
    out = np.zeros((B, k.shape[1], D * kd, H * kh, W * kw), x.dtype)
    dx, dk = np.zeros_like(x), np.zeros_like(k)
    for b, z, y, xx in itertools.product(range(B), range(D), range(H), range(W)):
        block = (b, slice(None), slice(z * kd, z * kd + kd), slice(y * kh, y * kh + kh),
                 slice(xx * kw, xx * kw + kw))
        out[block] = np.tensordot(x[b, :, z, y, xx], k, axes=1)
        dx[b, :, z, y, xx] = np.tensordot(k, g[block], axes=4)
        dk += np.multiply.outer(x[b, :, z, y, xx], g[block])
    return out, dx, dk


# (input shape, kernel shape, GEMM chunks of the phase rows): two of the demo
# config's upsampling kernels on small inputs, an odd kernel, and 32 -> 32
# channels over 2366 rows, which split into chunks of at most 976
UPSAMPLINGS = [
    ((1, 64, 4, 2, 2), (64, 32, 2, 2, 2), 1),
    ((1, 16, 8, 4, 4), (16, 8, 1, 2, 2), 1),
    ((2, 3, 4, 5, 3), (3, 2, 3, 1, 2), 1),
    ((2, 32, 7, 13, 13), (32, 32, 2, 2, 2), 3),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,chunks", UPSAMPLINGS)
def test_transpose_matches_block_write_oracle(x_shape, k_shape, chunks, dtype):
    rng = np.random.default_rng(k_shape[0])
    x = rng.normal(size=x_shape).astype(dtype)
    k = rng.normal(size=k_shape).astype(dtype)
    out_shape = (x_shape[0], k_shape[1]) + tuple(n * kk for n, kk in zip(x_shape[2:], k_shape[2:]))
    assert layers._phase_layout(out_shape, k_shape, k_shape[2:], (0, 0, 0))[2] == chunks
    g = rng.normal(size=out_shape).astype(dtype)
    xt, kt = Tensor(x, requires_grad=True), Parameter(k)
    up = conv_transpose_nd(xt, kt)
    backward((up * Tensor(g)).sum())
    # the oracle sums in float64; each result is within its dtype's rounding
    want = upsampler_oracle(x.astype(np.float64), k.astype(np.float64), g.astype(np.float64))
    for got, w in zip((up.data, xt.grad, kt.grad), want):
        assert_close(got, w.astype(dtype))


# ---------------------------------------------------------------------------
# conv kernels: generated geometries
# ---------------------------------------------------------------------------

@st.composite
def conv_geometries(draw):
    """(kernel, stride, padding, spatial, batch, c_in, c_out, seed) with every
    spatial extent large enough for the padded kernel."""
    ks = tuple(draw(st.integers(1, 3)) for _ in range(3))
    stride = tuple(draw(st.integers(1, 3)) for _ in range(3))
    padding = tuple(draw(st.integers(0, k)) for k in ks)
    spatial = tuple(draw(st.integers(max(1, k - 2 * p), 8)) for k, p in zip(ks, padding))
    return (ks, stride, padding, spatial, draw(st.integers(1, 2)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16)))


# padded extents 7, 8 and 8 are no multiple of strides 2, 3 and 3
PADDED_NOT_MULTIPLE = ((3, 3, 2), (2, 3, 3), (1, 1, 0), (5, 6, 8), 2, 2, 3, 1)
# the strided 1x1x1 skip projection of a downsampling residual block
KERNEL_BELOW_STRIDE = ((1, 1, 1), (1, 2, 2), (0, 0, 0), (3, 8, 7), 2, 3, 2, 2)
# the decoder's transposed-conv upsampler
KERNEL_EQUALS_STRIDE = ((1, 2, 2), (1, 2, 2), (0, 0, 0), (3, 6, 8), 1, 2, 3, 3)


@st.composite
def upsampler_geometries(draw):
    """``conv_geometries`` with the stride equal to the kernel and no
    padding, the geometry of ``conv_transpose_nd``; each spatial extent is a
    whole number of kernel extents."""
    ks = tuple(draw(st.integers(1, 3)) for _ in range(3))
    spatial = tuple(k * draw(st.integers(1, 3)) for k in ks)
    return (ks, ks, (0, 0, 0), spatial, draw(st.integers(1, 2)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16)))


def geometry_arrays(geom, dtype=np.float64):
    """Random input, kernel and output-space cotangent for ``geom``."""
    ks, stride, padding, spatial, b, ci, co, seed = geom
    rng = np.random.default_rng(seed)
    out_sp = tuple(conv_output_extent(n, k, s, p)
                   for n, k, s, p in zip(spatial, ks, stride, padding))
    return (rng.normal(size=(b, ci) + spatial).astype(dtype),
            rng.normal(size=(co, ci) + ks).astype(dtype),
            rng.normal(size=(b, co) + out_sp).astype(dtype))


@given(conv_geometries())
@example(PADDED_NOT_MULTIPLE)
@example(KERNEL_BELOW_STRIDE)
@example(KERNEL_EQUALS_STRIDE)
def test_conv_matches_oracle_on_generated_geometries(geom):
    stride, padding = geom[1:3]
    x, k, _ = geometry_arrays(geom)
    got = conv_nd(Tensor(x), Tensor(k), stride, padding).data
    np.testing.assert_allclose(got, conv_oracle(x, k, stride, padding), rtol=0, atol=1e-10)


@given(upsampler_geometries())
@example(KERNEL_EQUALS_STRIDE)
def test_conv_transpose_is_adjoint_on_generated_geometries(geom):
    # v takes the extents the transpose produces from y, n * k
    ks, stride, padding, spatial, b, ci = geom[:6]
    _, k, y = geometry_arrays(geom)
    v = np.random.default_rng(geom[-1] + 1).normal(size=(b, ci) + spatial)
    lhs = float((conv_nd(Tensor(v), Tensor(k), stride, padding).data * y).sum())
    vt = conv_transpose_nd(Tensor(y), Tensor(k)).data
    assert vt.shape == v.shape
    assert abs(lhs - float((v * vt).sum())) <= 1e-10 * max(1.0, abs(lhs))


@given(conv_geometries())
@example(PADDED_NOT_MULTIPLE)
@example(KERNEL_BELOW_STRIDE)
@example(KERNEL_EQUALS_STRIDE)
def test_conv_gradients_satisfy_bilinear_identities_on_generated_geometries(geom):
    # L = <conv(x; k), y> is linear in x and in k, so <k, dL/dk> and
    # <x, dL/dx> both equal L
    stride, padding = geom[1:3]
    x, k, y = geometry_arrays(geom)
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    loss = (conv_nd(xt, kt, stride, padding) * Tensor(y)).sum()
    backward(loss)
    lhs = loss.item()
    assert abs(lhs - float((k * kt.grad).sum())) <= 1e-10 * max(1.0, abs(lhs))
    assert abs(lhs - float((x * xt.grad).sum())) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("geom,op", [
    (PADDED_NOT_MULTIPLE, conv_nd),
    (KERNEL_BELOW_STRIDE, conv_nd),
    (KERNEL_EQUALS_STRIDE, conv_nd),
    (KERNEL_EQUALS_STRIDE, conv_transpose_nd),
])
def test_conv_float32_values_and_gradients_stay_float32(geom, op):
    stride, padding = geom[1:3]
    x, k, y = geometry_arrays(geom, np.float32)
    inp = x if op is conv_nd else y
    results = []
    for dtype in (np.float32, np.float64):
        it = Tensor(inp.astype(dtype), requires_grad=True)
        kt = Tensor(k.astype(dtype), requires_grad=True)
        out = (conv_nd(it, kt, stride, padding) if op is conv_nd
               else conv_transpose_nd(it, kt))
        probe = np.random.default_rng(geom[-1]).normal(size=out.shape).astype(dtype)
        backward((out * Tensor(probe)).sum())
        assert out.dtype == it.grad.dtype == kt.grad.dtype == dtype
        results.append((out.data, it.grad, kt.grad))
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# conv kernels against the per-call channels-last kernels
# ---------------------------------------------------------------------------

# Reference copies of the earlier channels-last stride-phase kernels: each
# builds its own (rows, C) phase rows from NCDHW arrays and runs one GEMM per
# kernel tap over all rows.  The chunked channel-major kernels must give the
# same bits for the conv values and input gradients.  Their kernel gradient
# sums the rows chunk by chunk, so it is compared at a tolerance set by the
# dtype.

def per_call_layout(spatial, ks, stride, padding):
    q = tuple(-(-(n + 2 * p) // s) for n, p, s in zip(spatial, padding, stride))
    sd, sh, sw = stride
    taps = [((dz % sd * sh + dy % sh) * sw + dx % sw,
             ((dz // sd) * q[1] + dy // sh) * q[2] + dx // sw)
            for dz in range(ks[0]) for dy in range(ks[1]) for dx in range(ks[2])]
    return q, taps


def per_call_phase_slices(spatial, stride, padding):
    per_axis = []
    for n, s, p in zip(spatial, stride, padding):
        pairs = []
        for a in range(s):
            lo, hi = -(-(p - a) // s), -(-(p + n - a) // s)
            pairs.append((slice(lo, hi), slice(lo * s + a - p, n, s)))
        per_axis.append(pairs)
    for pairs in itertools.product(*per_axis):
        yield ((slice(None),) + tuple(g for g, _ in pairs),
               (slice(None),) + tuple(v for _, v in pairs))


def per_call_to_rows(x, stride, padding, q):
    B, C = x.shape[:2]
    rows = np.zeros((math.prod(stride), B) + q + (C,), dtype=x.dtype)
    xl = x.transpose(0, 2, 3, 4, 1)
    for ph, (gi, xi) in enumerate(per_call_phase_slices(x.shape[2:], stride, padding)):
        rows[ph][gi] = xl[xi]
    return rows.reshape(rows.shape[0], -1, C)


def per_call_from_rows(rows, stride, padding, q, shape):
    out = np.empty(shape, dtype=rows.dtype)
    ol = out.transpose(0, 2, 3, 4, 1)
    rows = rows.reshape((rows.shape[0], shape[0]) + q + (shape[1],))
    for ph, (gi, xi) in enumerate(per_call_phase_slices(shape[2:], stride, padding)):
        ol[xi] = rows[ph][gi]
    return out


def per_call_output_rows(y, q):
    return per_call_to_rows(y, (1, 1, 1), (0, 0, 0), q)[0]


def per_call_fwd(x, k, stride, padding):
    co, ci = k.shape[:2]
    out_sp = tuple(conv_output_extent(n, kk, s, p)
                   for n, kk, s, p in zip(x.shape[2:], k.shape[2:], stride, padding))
    q, taps = per_call_layout(x.shape[2:], k.shape[2:], stride, padding)
    xr = per_call_to_rows(x, stride, padding, q)
    n = xr.shape[1] - taps[-1][1]
    kt = np.ascontiguousarray(k.reshape(co, ci, -1).transpose(2, 1, 0), dtype=x.dtype)
    acc = np.zeros((xr.shape[1], co), dtype=x.dtype)
    gemm = get_blas_funcs("gemm", dtype=x.dtype)
    for t, (ph, off) in enumerate(taps):
        gemm(1.0, kt[t].T, xr[ph, off:off + n].T, beta=1.0, c=acc[:n].T, overwrite_c=True)
    acc = acc.reshape((x.shape[0],) + q + (co,))[:, :out_sp[0], :out_sp[1], :out_sp[2]]
    return np.ascontiguousarray(acc.transpose(0, 4, 1, 2, 3))


def per_call_adjoint(y, k, stride, padding, out_spatial):
    co, ci = k.shape[:2]
    q, taps = per_call_layout(out_spatial, k.shape[2:], stride, padding)
    g = per_call_output_rows(y, q)
    n = g.shape[0] - taps[-1][1]
    kt = np.ascontiguousarray(k.reshape(co, ci, -1).transpose(2, 0, 1), dtype=y.dtype)
    canvas = np.zeros((math.prod(stride),) + g.shape[:1] + (ci,), dtype=y.dtype)
    gemm = get_blas_funcs("gemm", dtype=y.dtype)
    for t, (ph, off) in enumerate(taps):
        gemm(1.0, kt[t].T, g[:n].T, beta=1.0, c=canvas[ph, off:off + n].T, overwrite_c=True)
    return per_call_from_rows(canvas, stride, padding, q, (y.shape[0], ci) + out_spatial)


def per_call_kernel_grad(x, gy, k_shape, stride, padding):
    co, ci = k_shape[:2]
    q, taps = per_call_layout(x.shape[2:], k_shape[2:], stride, padding)
    xr = per_call_to_rows(x, stride, padding, q)
    g = per_call_output_rows(gy, q)
    n = g.shape[0] - taps[-1][1]
    gk = np.zeros((len(taps), ci, co), dtype=x.dtype)
    gemm = get_blas_funcs("gemm", dtype=x.dtype)
    for t, (ph, off) in enumerate(taps):
        gemm(1.0, g[:n].T, xr[ph, off:off + n].T, trans_b=True, c=gk[t].T, overwrite_c=True)
    return np.ascontiguousarray(gk.transpose(2, 1, 0)).reshape(k_shape)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# tolerance, relative to the largest entry, where the sums are the same but
# their order may differ
ROUNDING_RTOL = {np.float32: 1e-5, np.float64: 1e-12}


def assert_close(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    rtol = ROUNDING_RTOL[got.dtype.type]
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * float(np.abs(want).max()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_conv_kernels_on_shared_rows_match_per_call_rows_bitwise(k, s, dtype):
    rng = np.random.default_rng(10 * k + s)
    ks, stride, padding = (k, k, 3 - k + 1), (s, 1, s), (k // 2, k - 1, 0)
    x = rng.normal(size=(2, 3, 5, 7, 6)).astype(dtype)
    check_kernels_match_per_call_kernels_bitwise(x, rng.normal(size=(4, 3) + ks).astype(dtype),
                                                 stride, padding, rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [(1, 2, 2), (2, 2, 2)])
def test_strided_1x1x1_conv_matches_per_call_kernels_bitwise(stride, dtype):
    # the skip projection of a downsampling residual block reads phase 0 of
    # the 4 or 8 stride phases
    rng = np.random.default_rng(sum(stride))
    x = rng.normal(size=(2, 3, 5, 8, 7)).astype(dtype)
    kern = rng.normal(size=(4, 3, 1, 1, 1)).astype(dtype)
    check_kernels_match_per_call_kernels_bitwise(x, kern, stride, (0, 0, 0), rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ks", [(1, 2, 2), (2, 2, 2), (3, 1, 2)])
def test_kernel_equals_stride_matches_per_call_kernels_bitwise(ks, dtype):
    # the decoder's upsampling geometry, in the conv and in its transpose
    rng = np.random.default_rng(sum(ks))
    x = rng.normal(size=(2, 3) + tuple(3 * k for k in ks)).astype(dtype)
    check_kernels_match_per_call_kernels_bitwise(x, rng.normal(size=(4, 3) + ks).astype(dtype),
                                                 ks, (0, 0, 0), rng)


def check_kernels_match_per_call_kernels_bitwise(x, kern, stride, padding, rng):
    """Conv values and input gradients bitwise equal to the per-call kernels,
    kernel gradients within rounding; the same for the upsampler of this
    stride (``conv_transpose_nd`` with a kernel equal to the stride)."""
    dtype = x.dtype
    bias = rng.normal(size=kern.shape[0]).astype(dtype)
    xt, kt, bt = Tensor(x, requires_grad=True), Parameter(kern), Parameter(bias)
    out = conv_nd(xt, kt, stride, padding, bias=bt)
    y = rng.normal(size=out.shape).astype(dtype)
    backward((out * Tensor(y)).sum())
    assert_bitwise(out.data, per_call_fwd(x, kern, stride, padding) + bias.reshape(1, -1, 1, 1, 1))
    assert_bitwise(xt.grad, per_call_adjoint(y, kern, stride, padding, x.shape[2:]))
    assert_close(kt.grad, per_call_kernel_grad(x, y, kern.shape, stride, padding))
    assert_bitwise(bt.grad, y.sum(axis=(0, 2, 3, 4)))

    # the upsampler: (B, 4, ...) -> (B, 3, ...), kernel equal to the stride
    ku = rng.normal(size=kern.shape[:2] + tuple(stride)).astype(dtype)
    v = rng.normal(size=out.shape).astype(dtype)
    vt, kt = Tensor(v, requires_grad=True), Parameter(ku)
    up = conv_transpose_nd(vt, kt)
    w = rng.normal(size=up.shape).astype(dtype)
    backward((up * Tensor(w)).sum())
    assert_bitwise(up.data, per_call_adjoint(v, ku, stride, (0, 0, 0), up.shape[2:]))
    assert_bitwise(vt.grad, per_call_fwd(w, ku, stride, (0, 0, 0)))
    assert_close(kt.grad, per_call_kernel_grad(w, v, ku.shape, stride, (0, 0, 0)))


# (c_in, c_out, kernel, stride, padding, spatial) whose phase rows split into
# three GEMM chunks, the last one shorter: 32 -> 32 channels give chunks of at
# most 976 rows, 1 -> 32 channels chunks of at most 31250, 16 -> 2 channels
# chunks of at most 31250, and the 8 -> 2 head conv chunks of at most 62500;
# the kernel-equals-stride entry is the upsampler's geometry, whose transpose
# has the same phase rows
MULTI_CHUNK = [
    (32, 32, (3, 3, 3), (1, 1, 1), (1, 1, 1), (5, 11, 9)),
    (32, 32, (3, 3, 3), (2, 2, 2), (1, 1, 1), (7, 25, 25)),
    (32, 32, (2, 2, 2), (2, 2, 2), (0, 0, 0), (14, 26, 26)),
    (32, 32, (1, 3, 3), (1, 2, 2), (0, 1, 1), (5, 25, 25)),
    (1, 32, (3, 3, 3), (1, 1, 1), (1, 1, 1), (15, 41, 41)),
    (16, 2, (3, 3, 3), (1, 1, 1), (1, 1, 1), (15, 41, 41)),
    (8, 2, (1, 1, 1), (1, 1, 1), (0, 0, 0), (17, 61, 61)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co,ks,stride,padding,spatial", MULTI_CHUNK)
def test_conv_kernels_across_gemm_chunks_match_per_call_kernels(ci, co, ks, stride, padding,
                                                                 spatial, dtype):
    rng = np.random.default_rng(ci + stride[-1])
    x = rng.normal(size=(2, ci) + spatial).astype(dtype)
    kern = rng.normal(size=(co, ci) + ks).astype(dtype)
    q, _, nch, L = layers._phase_layout(x.shape, kern.shape, stride, padding)
    rows = x.shape[0] * math.prod(q)
    assert nch >= 3 and rows - (nch - 1) * L < L
    # compared at a tolerance: the chunked and the per-call GEMMs may run
    # different BLAS kernels, which sum each channel dot product in their own
    # order

    xt, kt = Tensor(x, requires_grad=True), Parameter(kern)
    out = conv_nd(xt, kt, stride, padding)
    y = rng.normal(size=out.shape).astype(dtype)
    backward((out * Tensor(y)).sum())
    assert_close(out.data, per_call_fwd(x, kern, stride, padding))
    assert_close(xt.grad, per_call_adjoint(y, kern, stride, padding, x.shape[2:]))
    assert_close(kt.grad, per_call_kernel_grad(x, y, kern.shape, stride, padding))

    # the upsampler of this stride: kernel equal to the stride
    ku = rng.normal(size=(co, ci) + stride).astype(dtype)
    vt, kt = Tensor(y, requires_grad=True), Parameter(ku)
    up = conv_transpose_nd(vt, kt)
    w = rng.normal(size=up.shape).astype(dtype)
    backward((up * Tensor(w)).sum())
    assert_close(up.data, per_call_adjoint(y, ku, stride, (0, 0, 0), up.shape[2:]))
    assert_close(vt.grad, per_call_fwd(w, ku, stride, (0, 0, 0)))
    assert_close(kt.grad, per_call_kernel_grad(w, y, ku.shape, stride, (0, 0, 0)))


def test_conv_skips_the_input_adjoint_when_the_input_needs_no_grad(monkeypatch):
    calls = []
    adjoint = layers._conv_adjoint
    monkeypatch.setattr(layers, "_conv_adjoint",
                        lambda *args: calls.append(1) or adjoint(*args))
    stride, padding = PADDED_NOT_MULTIPLE[1:3]
    x, k, y = geometry_arrays(PADDED_NOT_MULTIPLE, np.float32)
    bias = np.arange(k.shape[0], dtype=np.float32)
    grads = []
    for input_grad in (False, True):
        calls.clear()
        xt, kt, bt = Tensor(x, requires_grad=input_grad), Parameter(k), Parameter(bias)
        backward((conv_nd(xt, kt, stride, padding, bias=bt) * Tensor(y)).sum())
        assert len(calls) == int(input_grad)
        assert (xt.grad is not None) == input_grad
        grads.append((kt.grad, bt.grad))
    for got, want in zip(*grads):
        assert_bitwise(got, want)


def gemm_operands(dtype=np.float32):
    """A 2 x 2 x 3 conv's layout with its phase rows, tap matrices and
    embedded cotangent rows, all exactly as wide as the GEMMs read."""
    stride, padding = (1, 2, 2), (0, 1, 1)
    x, k, y = geometry_arrays(((2, 2, 3), stride, padding, (4, 7, 9), 2, 3, 2, 5), dtype)
    q, taps, nch, L = layers._phase_layout(x.shape, k.shape, stride, padding)
    width = nch * L + taps[-1][1]
    xr = layers._to_rows((x,), stride, padding, q, width)
    kt = np.ascontiguousarray(k.reshape(2, 3, -1).transpose(2, 0, 1))
    g = np.zeros((2, nch * L), dtype)
    g[:, :y.size // 2] = y.transpose(1, 0, 2, 3, 4).reshape(2, -1)
    return xr, kt, g, k.shape, taps, nch, L


def no_gemm(*args):
    raise AssertionError("a BLAS call was bound for rows that failed their check")


def narrower(rows):
    """``rows`` one row narrower, in a fresh array that ends where they end."""
    return np.ascontiguousarray(rows[..., :-1])


def strided(rows):
    """The same values as ``rows`` on every other element of a wider array."""
    wide = np.zeros(rows.shape[:-1] + (2 * rows.shape[-1],), rows.dtype)
    wide[..., ::2] = rows
    return wide[..., ::2]


def channel_strided(rows):
    """The same values with a gap between channels: rows whose last axis is
    contiguous but whose channels are not adjacent."""
    wide = np.zeros(rows.shape[:1] + (2 * rows.shape[1],) + rows.shape[2:], rows.dtype)
    wide[:, ::2] = rows
    return wide[:, ::2]


def reversed_rows(rows):
    """The rows in reverse order: a negative leading stride."""
    return rows[::-1]


def test_cython_blas_reuses_the_imported_module():
    assert layers._cython_blas() is sys.modules["scipy.linalg.cython_blas"]


def test_cython_blas_missing_file_raises_naming_the_directory(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_blas")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        layers._cython_blas()


KD_TREE_MODULE = "scipy.spatial._ckdtree"


def test_kd_tree_module_reuses_the_imported_module(monkeypatch):
    assert layers._scipy_extension(KD_TREE_MODULE) is sys.modules[KD_TREE_MODULE]
    stand_in = object()
    monkeypatch.setitem(sys.modules, KD_TREE_MODULE, stand_in)
    assert layers._scipy_extension(KD_TREE_MODULE) is stand_in


def test_kd_tree_module_missing_file_raises_naming_the_directory(tmp_path, monkeypatch):
    layers._scipy_extension(KD_TREE_MODULE)
    monkeypatch.delitem(sys.modules, KD_TREE_MODULE)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "spatial"))):
        layers._scipy_extension(KD_TREE_MODULE)


def test_kd_tree_module_is_registered_when_loaded(monkeypatch):
    """A module loaded from its file goes into ``sys.modules``, so a later
    ``import scipy.spatial`` finds the same ``cKDTree`` class.  The
    extension is already in the process here, and loading it again hands
    back the same module without registering it."""
    tree_class = layers._scipy_extension(KD_TREE_MODULE).cKDTree
    monkeypatch.delitem(sys.modules, KD_TREE_MODULE)
    module = layers._scipy_extension(KD_TREE_MODULE)
    assert sys.modules[KD_TREE_MODULE] is module
    assert module.cKDTree is tree_class


def test_threads_asking_first_load_the_module_once(monkeypatch):
    """Four threads (more than a 2-CPU runner has) ask for an unloaded
    module at once; the slowed module creation lets them all pass the
    unlocked ``sys.modules`` check before the first one registers it."""
    layers._scipy_extension(KD_TREE_MODULE)
    monkeypatch.delitem(sys.modules, KD_TREE_MODULE)
    made = []
    module_from_spec = layers.importlib.util.module_from_spec

    def slow_module_from_spec(spec):
        made.append(spec.name)
        time.sleep(0.05)
        return module_from_spec(spec)

    monkeypatch.setattr(layers.importlib.util, "module_from_spec", slow_module_from_spec)
    start = threading.Barrier(4, timeout=30)

    def load(_):
        start.wait()
        return layers._scipy_extension(KD_TREE_MODULE)

    with ThreadPoolExecutor(4) as pool:
        loaded = list(pool.map(load, range(4), timeout=60))
    assert made == [KD_TREE_MODULE]
    assert all(module is sys.modules[KD_TREE_MODULE] for module in loaded)


def test_gemm_operands_pass_the_checks_as_built():
    xr, kt, g, k_shape, taps, nch, L = gemm_operands()
    reads = [(ph, off, 0) for ph, off in taps]
    assert xr.shape[2] == nch * L + max(off for _, off in taps)
    assert layers._tap_gemms(xr, kt, reads, 1, nch, L).shape == (1, 2, nch * L)
    assert layers._conv_kernel_grad(xr, g, k_shape, taps, nch, L).shape == k_shape


@pytest.mark.parametrize("damage", [narrower, strided, channel_strided, reversed_rows])
def test_tap_gemms_reject_rows_they_would_read_past(damage, monkeypatch):
    xr, kt, _, _, taps, nch, L = gemm_operands()
    monkeypatch.setattr(layers, "_bound_gemm", no_gemm)
    with pytest.raises(ValueError, match="tap gemms"):
        layers._tap_gemms(damage(xr), kt, [(ph, off, 0) for ph, off in taps], 1, nch, L)


@pytest.mark.parametrize("damage", [narrower, strided, channel_strided, reversed_rows])
def test_kernel_grad_rejects_rows_it_would_read_past(damage, monkeypatch):
    xr, _, g, k_shape, taps, nch, L = gemm_operands()
    monkeypatch.setattr(layers, "_bound_gemm", no_gemm)
    with pytest.raises(ValueError, match="kernel grad"):
        layers._conv_kernel_grad(damage(xr), g, k_shape, taps, nch, L)
    if damage is not channel_strided:           # a cotangent row gap is a leading dimension
        with pytest.raises(ValueError, match="kernel grad"):
            layers._conv_kernel_grad(xr, damage(g), k_shape, taps, nch, L)


def test_gemm_entry_points_reject_mixed_dtypes(monkeypatch):
    xr, kt, g, k_shape, taps, nch, L = gemm_operands()
    monkeypatch.setattr(layers, "_bound_gemm", no_gemm)
    with pytest.raises(ValueError, match="tap gemms"):
        layers._tap_gemms(xr, kt.astype(np.float64), [(ph, off, 0) for ph, off in taps],
                          1, nch, L)
    with pytest.raises(ValueError, match="kernel grad"):
        layers._conv_kernel_grad(xr, g.astype(np.float64), k_shape, taps, nch, L)


# ---------------------------------------------------------------------------
# phase rows: every row written once
# ---------------------------------------------------------------------------

def zero_filled_rows(x, stride, padding, width, lead):
    """Phase rows from a zero-filled array: pad ``x`` with zeros to whole
    strides, then take every stride-th sample of each phase, in phase
    order."""
    B, C = x.shape[:2]
    q = tuple(-(-(n + 2 * p) // s) for n, p, s in zip(x.shape[2:], padding, stride))
    padded = np.zeros((C, B) + tuple(n * s for n, s in zip(q, stride)), x.dtype)
    padded[(Ellipsis,) + tuple(slice(p, p + n) for p, n in zip(padding, x.shape[2:]))] = \
        x.transpose(1, 0, 2, 3, 4)
    rows = np.zeros((math.prod(stride), C, width), x.dtype)
    for i, (a, b, c) in enumerate(itertools.product(*map(range, stride))):
        rows[i, :, lead:lead + B * math.prod(q)] = \
            padded[..., a::stride[0], b::stride[1], c::stride[2]].reshape(C, -1)
    return rows


@st.composite
def row_layouts(draw):
    """(shape, stride, padding, lead, tail rows, seed, channel split: the
    input comes as two parts joined at this channel, or as one part when it
    is C)."""
    stride = tuple(draw(st.integers(1, 3)) for _ in range(3))
    padding = tuple(draw(st.integers(0, 2)) for _ in range(3))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3))) + tuple(
        draw(st.integers(1, 6)) for _ in range(3))
    return (shape, stride, padding, draw(st.integers(1, 4)), draw(st.integers(0, 4)),
            draw(st.integers(0, 2 ** 16)), draw(st.integers(1, shape[1])))


@given(row_layouts())
@example(((2, 3, 5, 6, 8), (2, 3, 3), (1, 1, 0), 3, 0, 1, 3))
@example(((2, 3, 5, 6, 8), (2, 3, 3), (1, 1, 0), 3, 0, 1, 1))
def test_to_rows_writes_every_row_of_uninitialized_memory(layout):
    # rows from the parts of a split input are bitwise the rows of the whole
    shape, stride, padding, lead, tail, seed, cut = layout
    x = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    parts = (x,) if cut == shape[1] else (x[:, :cut], x[:, cut:])
    q = tuple(-(-(n + 2 * p) // s) for n, p, s in zip(shape[2:], padding, stride))
    width = lead + shape[0] * math.prod(q) + tail
    want = zero_filled_rows(x, stride, padding, width, lead)
    empty = np.empty

    def nan_filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "empty", nan_filled)
        got = layers._to_rows(parts, stride, padding, q, width, lead=lead)
    assert_bitwise(got, want)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_identity_weight():
    x = rand((3, 4), seed=14)
    np.testing.assert_array_equal(linear(x, np.eye(4), np.zeros(4)), x)


def test_linear_zero_weight_gives_bias():
    b = np.array([1.0, 2.0])
    out = linear(rand((5, 3), seed=15), np.zeros((2, 3)), b)
    np.testing.assert_array_equal(out, np.tile(b, (5, 1)))


def test_linear_matches_matmul_plus_bias_oracle():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(8, 5))
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=(3,))
    out = linear(x, w, b)
    np.testing.assert_allclose(out, x @ w.T + b, rtol=0, atol=1e-12)
    assert out.shape == (8, 3)


def test_linear_dim_mismatch():
    with pytest.raises(ValueError, match="rows"):
        linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))
    with pytest.raises(ValueError, match="rows"):
        linear(np.zeros((2, 2, 5)), np.zeros((4, 5)), np.zeros(4))
    with pytest.raises(ValueError, match="bias"):
        linear(np.zeros((2, 5)), np.zeros((4, 5)), np.zeros(5))


def test_linear_module_maps_rows_with_its_parameters():
    rng = np.random.default_rng(17)
    lin = Linear(6, 4, rng=rng, dtype=np.float64)
    assert lin.weight.shape == (4, 6) and lin.bias.shape == (4,)
    rows = rng.normal(size=(3, 6))
    out = lin(rows)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, linear(rows, lin.weight.data, lin.bias.data))


def grad_check_each_input(fn, inputs, rng):
    """Finite-difference check of ``(fn(*inputs) * probe).sum()`` with a random
    probe, once per input with the others held constant; worst relative error."""
    probe = Tensor(rng.normal(size=fn(*map(Tensor, inputs)).shape))
    errs = []
    for i in range(len(inputs)):
        def f(t, i=i):
            args = [t if j == i else Tensor(v) for j, v in enumerate(inputs)]
            return (fn(*args) * probe).sum()

        errs.append(grad_check(f, Tensor(inputs[i]), h=1e-5))
    return max(errs)


# ---------------------------------------------------------------------------
# instance / channel norm
# ---------------------------------------------------------------------------

def test_instance_norm_constant_input_is_zero():
    norm = InstanceNorm(3, dtype=np.float64)
    out = norm(Tensor(np.full((2, 3, 4, 4, 4), 7.0)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_instance_norm_moments():
    norm = InstanceNorm(2, dtype=np.float64)
    x = rand((2, 2, 6, 8, 8), seed=18)
    out = norm(Tensor(x)).data
    for b in range(2):
        for c in range(2):
            assert abs(out[b, c].mean()) <= 1e-6
            assert abs(out[b, c].var() - 1.0) <= 1e-3


def test_instance_norm_affine_collapse():
    norm = InstanceNorm(2, dtype=np.float64)
    with no_grad():
        norm.gamma.data[:] = 0.0
        norm.beta.data[:] = 3.5
    out = norm(Tensor(rand((1, 2, 3, 3, 3), seed=19)))
    np.testing.assert_allclose(out.data, 3.5, atol=1e-12)


def test_instance_norm_shift_scale_invariance():
    norm = InstanceNorm(2, dtype=np.float64)
    x = rand((1, 2, 4, 5, 5), seed=20)
    base = norm(Tensor(x)).data
    shifted = norm(Tensor(2.0 * x + 1.0)).data
    np.testing.assert_allclose(shifted, base, atol=1e-4)


def test_instance_norm_channel_mismatch():
    with pytest.raises(ValueError):
        InstanceNorm(3)(Tensor(np.zeros((1, 2, 4, 4, 4))))


def test_instance_norm_grad():
    rng = np.random.default_rng(21)
    norm = InstanceNorm(2, dtype=np.float64)

    def f(x):
        y = norm(x)
        return (y * y * y).sum()

    assert grad_check(f, Tensor(rng.normal(size=(1, 2, 3, 4, 4))), h=1e-5) < 1e-5


def test_channel_norm_normalizes_channel_axis():
    norm = ChannelNorm(4, dtype=np.float64)
    x = rand((2, 4, 3, 3, 3), seed=22)
    out = norm(Tensor(x)).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-3)


NORM_AXES = pytest.mark.parametrize("axes", [(2, 3, 4), (1,)], ids=["instance", "channel"])


@NORM_AXES
def test_affine_norm_matches_numpy(axes):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 4, 3, 4, 5))
    gamma, beta = rng.normal(size=4), rng.normal(size=4)
    out = affine_norm(Tensor(x), Tensor(gamma), Tensor(beta), axes).data
    c = (1, -1, 1, 1, 1)
    want = (gamma.reshape(c) * (x - x.mean(axes, keepdims=True))
            / np.sqrt(x.var(axes, keepdims=True) + 1e-5) + beta.reshape(c))
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


@NORM_AXES
def test_affine_norm_grad_of_input_gamma_and_beta(axes):
    # 4 channels: channel norm over 2 is sign-like and FD-degenerate
    rng = np.random.default_rng(31)
    inputs = [rng.normal(size=(2, 4, 2, 3, 3)), rng.normal(size=4), rng.normal(size=4)]
    assert grad_check_each_input(lambda x, g, b: affine_norm(x, g, b, axes),
                                 inputs, rng) < 1e-5


def norm_oracle(x, gamma, beta, axes, g):
    """The value and the (x, gamma, beta) grads of ``affine_norm`` against
    cotangent ``g``, in the closed form that builds every product at full
    size before reducing it."""
    xhat = x - x.mean(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=axes, keepdims=True) + 1e-5)
    xhat = xhat * inv_std
    gd = gamma.reshape(1, -1, 1, 1, 1)
    h = g * gd
    dx = (h - h.mean(axis=axes, keepdims=True)
          - xhat * (h * xhat).mean(axis=axes, keepdims=True)) * inv_std
    return (xhat * gd + beta.reshape(1, -1, 1, 1, 1), dx,
            (g * xhat).sum(axis=(0, 2, 3, 4)), g.sum(axis=(0, 2, 3, 4)))


def norm_value_and_grads(x, gamma, beta, axes, g):
    xt, gt, bt = Tensor(x, requires_grad=True), Parameter(gamma), Parameter(beta)
    out = affine_norm(xt, gt, bt, axes)
    backward((out * Tensor(g)).sum())
    return out.data, xt.grad, gt.grad, bt.grad


@NORM_AXES
def test_affine_norm_value_and_grads_match_the_full_size_closed_form(axes):
    rng = np.random.default_rng(37)
    x = 3.0 * rng.normal(size=(2, 5, 3, 4, 6)) + 1.5
    gamma, beta, g = rng.normal(size=5), rng.normal(size=5), rng.normal(size=x.shape)
    got = norm_value_and_grads(x, gamma, beta, axes, g)
    for got_, want in zip(got, norm_oracle(x, gamma, beta, axes, g)):
        assert got_.dtype == np.float64 and got_.shape == want.shape
        np.testing.assert_allclose(got_, want, rtol=0, atol=1e-12)


@NORM_AXES
def test_affine_norm_float32_value_and_grads_stay_float32(axes):
    rng = np.random.default_rng(41)
    x, g = (rng.normal(size=(2, 5, 3, 4, 6)).astype(np.float32) for _ in range(2))
    gamma, beta = (rng.normal(size=5).astype(np.float32) for _ in range(2))
    got = norm_value_and_grads(x, gamma, beta, axes, g)
    want = norm_oracle(*(a.astype(np.float64) for a in (x, gamma, beta)), axes,
                       g.astype(np.float64))
    for got_, want_ in zip(got, want):
        assert got_.dtype == np.float32
        np.testing.assert_allclose(got_, want_, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# conv_nd with its norm epilogue: relu(IN(conv(x)) + skip) in one node
# ---------------------------------------------------------------------------

def relu_node(t):
    """A ReLU node of its own, as the oracle composition needs one."""
    x = t.data
    return make_node(np.maximum(x, 0.0), (t,), "relu", lambda g: (g * (x > 0),))


def add_node(a, b):
    """``a + b`` as a node of its own, as the oracle composition needs one."""
    return make_node(a.data + b.data, (a, b), "add", lambda g: (g, g))


def composed_epilogue(x, k, stride, gamma, beta, skip=None, relu=False):
    """The oracle: conv_nd -> affine_norm -> (+ skip) -> relu, one node each."""
    h = affine_norm(conv_nd(x, k, stride, same_padding(k.shape[2:])), gamma, beta, (2, 3, 4))
    if skip is not None:
        h = add_node(h, skip)
    return relu_node(h) if relu else h


def fused_epilogue(x, k, stride, gamma, beta, skip=None, relu=False):
    return conv_nd(x, k, stride, same_padding(k.shape[2:]), norm=(gamma, beta), skip=skip,
                   relu=relu)


def epilogue_inputs(ks, stride, with_skip, x_shape=(2, 3, 4, 6, 5), co=4, seed=0,
                    dtype=np.float64):
    """x, kernel, gamma, beta and (if ``with_skip``) skip, then a cotangent."""
    rng = np.random.default_rng(seed)
    out_shape = (x_shape[0], co) + tuple(
        conv_output_extent(n, kk, s, (kk - 1) // 2)
        for n, kk, s in zip(x_shape[2:], ks, stride))
    arrays = [rng.normal(size=x_shape), rng.normal(size=(co, x_shape[1]) + ks),
              1.0 + 0.5 * rng.normal(size=co), rng.normal(size=co)]
    if with_skip:
        arrays.append(rng.normal(size=out_shape))
    return [a.astype(dtype) for a in arrays], rng.normal(size=out_shape).astype(dtype)


def epilogue_value_and_grads(fn, arrays, g, stride, relu):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(tensors[0], tensors[1], stride, *tensors[2:4],
             skip=tensors[4] if len(tensors) > 4 else None, relu=relu)
    backward((out * Tensor(g)).sum())
    return [out.data] + [t.grad for t in tensors]


EPILOGUE_KERNELS = pytest.mark.parametrize(
    "ks", [(1, 1, 1), (1, 3, 3), (3, 1, 1), (3, 3, 3)], ids=lambda k: "x".join(map(str, k)))
EPILOGUE_VARIANTS = pytest.mark.parametrize(
    "with_skip,relu", [(False, False), (False, True), (True, False), (True, True)],
    ids=["norm", "norm-relu", "norm-skip", "norm-skip-relu"])


@EPILOGUE_VARIANTS
@pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2), (2, 2, 2)],
                         ids=lambda s: "s" + "".join(map(str, s)))
@EPILOGUE_KERNELS
def test_conv_norm_epilogue_matches_the_composition(ks, stride, with_skip, relu):
    arrays, g = epilogue_inputs(ks, stride, with_skip, seed=sum(ks) + stride[0])
    got = epilogue_value_and_grads(fused_epilogue, arrays, g, stride, relu)
    want = epilogue_value_and_grads(composed_epilogue, arrays, g, stride, relu)
    # value, then the grads of x, kernel, gamma, beta and skip
    assert len(got) == len(arrays) + 1
    for got_, want_ in zip(got, want):
        assert got_.dtype == np.float64 and got_.shape == want_.shape
        np.testing.assert_allclose(got_, want_, rtol=0, atol=1e-10)


@EPILOGUE_VARIANTS
@EPILOGUE_KERNELS
def test_conv_norm_epilogue_gradients_match_finite_differences(ks, with_skip, relu):
    rng = np.random.default_rng(sum(ks))
    arrays, _ = epilogue_inputs(ks, (1, 2, 2), with_skip, x_shape=(1, 2, 3, 4, 4), co=3,
                                seed=sum(ks) + 7)

    def fn(x, k, gamma, beta, skip=None):
        return fused_epilogue(x, k, (1, 2, 2), gamma, beta, skip=skip, relu=relu)

    assert grad_check_each_input(fn, arrays, rng) < 1e-5


@EPILOGUE_VARIANTS
@EPILOGUE_KERNELS
def test_conv_norm_epilogue_float32_values_and_grads_stay_float32(ks, with_skip, relu):
    arrays, g = epilogue_inputs(ks, (1, 2, 2), with_skip, seed=sum(ks) + 11, dtype=np.float32)
    got = epilogue_value_and_grads(fused_epilogue, arrays, g, (1, 2, 2), relu)
    want = epilogue_value_and_grads(composed_epilogue, [a.astype(np.float64) for a in arrays],
                                    g.astype(np.float64), (1, 2, 2), relu)
    for got_, want_ in zip(got, want):
        assert got_.dtype == np.float32
        np.testing.assert_allclose(got_, want_, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@EPILOGUE_VARIANTS
def test_conv_norm_epilogue_unrecorded_output_is_bitwise_the_recorded_one(with_skip, relu,
                                                                          dtype):
    arrays, _ = epilogue_inputs((3, 3, 3), (1, 2, 2), with_skip, seed=5, dtype=dtype)
    recorded = [Tensor(a, requires_grad=True) for a in arrays]
    args = lambda ts: (ts[0], ts[1], (1, 2, 2), ts[2], ts[3])
    skip = lambda ts: ts[4] if with_skip else None
    want = fused_epilogue(*args(recorded), skip=skip(recorded), relu=relu)
    assert want._op == "conv_nd" and want._backward is not None
    with no_grad():
        under_no_grad = fused_epilogue(*args(recorded), skip=skip(recorded), relu=relu)
    plain = [Tensor(a) for a in arrays]
    no_parent_grad = fused_epilogue(*args(plain), skip=skip(plain), relu=relu)
    for got in (under_no_grad, no_parent_grad):
        assert got._backward is None
        assert_bitwise(got.data, want.data)


def test_conv_norm_epilogue_rejects_bad_arguments():
    arrays, _ = epilogue_inputs((1, 3, 3), (1, 1, 1), True)
    x, k, gamma, beta, skip = map(Tensor, arrays)
    with pytest.raises(ValueError, match="bias"):
        conv_nd(x, k, 1, (0, 1, 1), bias=beta, norm=(gamma, beta))
    for kwargs in ({"skip": skip}, {"relu": True}):
        with pytest.raises(ValueError, match="norm"):
            conv_nd(x, k, 1, (0, 1, 1), **kwargs)
    with pytest.raises(ValueError, match="skip shape"):
        conv_nd(x, k, (1, 2, 2), (0, 1, 1), norm=(gamma, beta), skip=skip)
    with pytest.raises(ValueError, match="gamma and beta"):
        conv_nd(x, k, 1, (0, 1, 1), norm=(Tensor(arrays[2][:2]), beta))


# besides its row buffers, the fused norm conv's backward allocates per-channel
# statistics, tap matrices, the kernel gradient and small Python objects
# (about 12 kB on the map below, against row buffers of 8.9 MB)
BACKWARD_SLACK_BYTES = 64 * 1024


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller keeps each argument alive until "
                           "the call returns, so the adjoint cannot free the cotangent rows")
def test_fused_norm_conv_backward_holds_at_most_two_row_buffers():
    # a half-batch of the README demo's full-resolution (1, 3, 3) norm conv:
    # each buffer the backward allocates is freed at its last use, so the
    # cotangent rows meet at most one other row buffer (the input rows of the
    # kernel gradient, then the adjoint's rows) and the input gradient is
    # built after the cotangent rows are gone
    shape, padding = (2, 8, 32, 64, 64), (0, 1, 1)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    kernel = Parameter(rng.normal(size=(8, 8, 1, 3, 3)).astype(np.float32))
    gamma = Parameter(np.ones(8, dtype=np.float32))
    beta = Parameter(np.zeros(8, dtype=np.float32))
    out = conv_nd(x, kernel, 1, padding, norm=(gamma, beta), relu=True)
    g = rng.normal(size=out.shape).astype(np.float32)
    loss = make_node(np.zeros((), dtype=np.float32), (out,), "probe", lambda _: (g,))
    _, taps, nch, L = layers._phase_layout(shape, kernel.shape, (1, 1, 1), padding)
    row_bytes = shape[1] * (nch * L + taps[-1][1]) * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad.shape == shape
    assert peak <= 2 * row_bytes + BACKWARD_SLACK_BYTES, (peak, row_bytes)


def conv_closure_case(case):
    """The output of a recorded conv node of kind ``case`` and a cotangent
    for it: the fused norm conv with or without its ReLU, the plain conv
    with or without a bias, or the transpose conv."""
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 3, 4, 6, 5)), requires_grad=True)
    if case == "transpose":
        out = conv_transpose_nd(x, Parameter(rng.normal(size=(3, 2, 1, 2, 2))))
    else:
        kernel = Parameter(rng.normal(size=(4, 3, 1, 3, 3)))
        channels = [Parameter(rng.normal(size=4)) for _ in range(2)]
        kwargs = ({"norm": tuple(channels), "relu": case == "norm-relu"}
                  if case.startswith("norm")
                  else {"bias": channels[0]} if case == "plain-bias" else {})
        out = conv_nd(x, kernel, 1, (0, 1, 1), **kwargs)
    return out, rng.normal(size=out.shape)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller keeps each argument alive until "
                           "the call returns, so the closure cannot free its cotangent")
@pytest.mark.parametrize("case", ["norm", "norm-relu", "plain", "plain-bias", "transpose"])
def test_conv_closures_free_their_cotangent_and_xhat_before_the_kernel_grad(monkeypatch, case):
    out, g = conv_closure_case(case)
    refs = {"cotangent": weakref.ref(g)}
    if case.startswith("norm"):
        closure = out._backward
        cells = dict(zip(closure.__code__.co_freevars,
                         (c.cell_contents for c in closure.__closure__)))
        refs["xhat"] = weakref.ref(cells["xhat"])
        del closure, cells
    handed = [g]
    del g
    loss = make_node(np.zeros((), dtype=out.dtype), (out,), "probe", lambda _: (handed.pop(),))
    alive = []
    kernel_grad = layers._conv_kernel_grad
    monkeypatch.setattr(layers, "_conv_kernel_grad", lambda *args: alive.append(
        sorted(name for name, ref in refs.items() if ref() is not None)) or kernel_grad(*args))
    backward(loss)
    assert alive == [[]]


# ---------------------------------------------------------------------------
# conv_nd with a concat input: conv(join(x, concat)) without the join
# ---------------------------------------------------------------------------

# (kernel, stride, padding, epilogue): the decoder's 1x1x1 projection with and
# without a bias, a padded strided 3x3x3 conv, and the full norm epilogue
CONCAT_CASES = {
    "decoder-1x1x1": ((1, 1, 1), (1, 1, 1), (0, 0, 0), None),
    "decoder-1x1x1-bias": ((1, 1, 1), (1, 1, 1), (0, 0, 0), "bias"),
    "padded-strided-3x3x3": ((3, 3, 3), (2, 2, 2), (1, 1, 1), None),
    "norm-skip-relu": ((1, 3, 3), (1, 2, 2), (0, 1, 1), "norm"),
}


def concat_conv_inputs(case, dtype, x_channels=3, c_channels=2, seed=0):
    """x, concat, kernel, the epilogue's arrays (bias, or gamma, beta and
    skip) and a cotangent for ``CONCAT_CASES[case]``."""
    ks, stride, padding, epilogue = CONCAT_CASES[case]
    rng = np.random.default_rng(seed)
    spatial = (5, 6, 7)
    co = 4
    out_shape = (2, co) + tuple(conv_output_extent(n, k, s, p)
                                for n, k, s, p in zip(spatial, ks, stride, padding))
    extra = {None: [], "bias": [rng.normal(size=co)],
             "norm": [1.0 + 0.5 * rng.normal(size=co), rng.normal(size=co),
                      rng.normal(size=out_shape)]}[epilogue]
    arrays = [rng.normal(size=(2, x_channels) + spatial),
              rng.normal(size=(2, c_channels) + spatial),
              rng.normal(size=(co, x_channels + c_channels) + ks)] + extra
    return [a.astype(dtype) for a in arrays], rng.normal(size=out_shape).astype(dtype)


def concat_conv(case, x, c, kernel, extra):
    """``conv_nd`` of ``CONCAT_CASES[case]``; the input is ``x`` joined with
    ``c`` along C, or ``x`` alone when ``c`` is None."""
    _, stride, padding, epilogue = CONCAT_CASES[case]
    kwargs = ({} if epilogue is None else {"bias": extra[0]} if epilogue == "bias"
              else {"norm": tuple(extra[:2]), "skip": extra[2], "relu": True})
    return conv_nd(x, kernel, stride, padding, concat=c, **kwargs)


# (x dtype, concat dtype): a float64 net run on float32 volumes joins its
# float64 decoder maps with float32 skips, which the join promotes
CONCAT_DTYPES = [(np.float32, np.float32), (np.float64, np.float64),
                 (np.float64, np.float32), (np.float32, np.float64)]


@pytest.mark.parametrize("dtypes", CONCAT_DTYPES, ids=lambda d: f"{d[0].__name__}+{d[1].__name__}")
@pytest.mark.parametrize("grad_of", ["both", "x", "concat"])
@pytest.mark.parametrize("case", sorted(CONCAT_CASES))
def test_conv_concat_input_is_bitwise_the_conv_of_the_joined_input(case, grad_of, dtypes):
    arrays, g = concat_conv_inputs(case, np.result_type(*dtypes), seed=len(case))
    x, c, kernel, *extra = arrays
    x, c = x.astype(dtypes[0]), c.astype(dtypes[1])
    xt = Tensor(x, requires_grad=grad_of in ("both", "x"))
    ct = Tensor(c, requires_grad=grad_of in ("both", "concat"))
    params = [Parameter(a) for a in [kernel] + extra]
    out = concat_conv(case, xt, ct, params[0], params[1:])
    backward((out * Tensor(g)).sum())

    joined = Tensor(np.concatenate([x, c], axis=1), requires_grad=True)
    joined_params = [Parameter(a) for a in [kernel] + extra]
    want = concat_conv(case, joined, None, joined_params[0], joined_params[1:])
    backward((want * Tensor(g)).sum())

    assert out.data.dtype == np.result_type(*dtypes)
    assert_bitwise(out.data, want.data)
    want_x, want_c = joined.grad[:, :x.shape[1]], joined.grad[:, x.shape[1]:]
    for t, want_grad in ((xt, want_x), (ct, want_c)):
        if t.requires_grad:
            assert_bitwise(t.grad, want_grad)
        else:
            assert t.grad is None
    for got_p, want_p in zip(params, joined_params):
        assert_bitwise(got_p.grad, want_p.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CONCAT_CASES))
def test_conv_concat_input_under_no_grad_is_bitwise_the_joined_input(case, dtype):
    arrays, _ = concat_conv_inputs(case, dtype, seed=len(case) + 1)
    x, c, kernel, *extra = arrays
    params = [Parameter(a) for a in [kernel] + extra]
    with no_grad():
        got = concat_conv(case, Tensor(x), Tensor(c), params[0], params[1:])
        want = concat_conv(case, Tensor(np.concatenate([x, c], axis=1)), None,
                           params[0], params[1:])
    assert got._backward is None
    assert_bitwise(got.data, want.data)


@pytest.mark.parametrize("bad", ["batch", "spatial", "channels"])
def test_conv_concat_input_rejects_a_mismatch(bad):
    arrays, _ = concat_conv_inputs("decoder-1x1x1", np.float32)
    x, c, kernel = arrays
    c = {"batch": c[:1], "spatial": c[..., :-1], "channels": c[:, :1]}[bad]
    with pytest.raises(ValueError, match="conv"):
        conv_nd(Tensor(x), Tensor(kernel), concat=Tensor(c))


# ---------------------------------------------------------------------------
# composite blocks
# ---------------------------------------------------------------------------

def test_same_padding():
    assert same_padding((3, 3, 3)) == (1, 1, 1)
    assert same_padding((1, 3, 3)) == (0, 1, 1)
    with pytest.raises(ValueError):
        same_padding((2, 3, 3))


def test_residual_block_zero_convs_is_relu():
    blk = ResidualConvBlock(3, 3, dtype=np.float64)
    with no_grad():
        blk.conv1.kernel.data[:] = 0.0
        blk.conv2.kernel.data[:] = 0.0
    x = rand((1, 3, 4, 4, 4), seed=24)
    out = blk(Tensor(x))
    np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))


def test_residual_block_downsample_shapes():
    blk = ResidualConvBlock(32, 64, (3, 3, 3), stride=(1, 2, 2))
    out = blk(Tensor(np.zeros((1, 32, 8, 16, 16), dtype=np.float32)))
    assert out.shape == (1, 64, 8, 8, 8)
    blk3 = ResidualConvBlock(32, 64, (3, 3, 3), stride=(2, 2, 2))
    out3 = blk3(Tensor(np.zeros((1, 32, 8, 16, 16), dtype=np.float32)))
    assert out3.shape == (1, 64, 4, 8, 8)


def test_residual_block_2d_kernel_preserves_depth():
    blk = ResidualConvBlock(4, 8, (1, 3, 3), stride=(1, 2, 2))
    out = blk(Tensor(np.zeros((2, 4, 5, 8, 8), dtype=np.float32)))
    assert out.shape == (2, 8, 5, 4, 4)


def test_residual_block_grad():
    rng = np.random.default_rng(25)
    blk = ResidualConvBlock(2, 3, (1, 3, 3), stride=(1, 2, 2), rng=rng, dtype=np.float64)

    def f(x):
        return blk(x).sum()

    assert grad_check(f, Tensor(rng.normal(size=(1, 2, 2, 4, 4))), h=1e-5) < 1e-5


def test_separable_block_param_ratio():
    c = 8
    blk = SeparableConvBlock(c)
    sep_weights = sum(p.size for n, p in blk.named_parameters() if n.endswith("kernel"))
    full = c * c * 27
    assert sep_weights / full == pytest.approx(4.0 / 9.0)
    assert sep_weights == 12 * c * c


def test_separable_block_delta_kernels_identity_before_norms():
    # with delta kernels the two convs compose to the identity; verify on the
    # raw conv path (norms excluded)
    from phnet.layers import conv_nd as cnd
    c = 3
    k_ip = np.zeros((c, c, 1, 3, 3))
    k_tp = np.zeros((c, c, 3, 1, 1))
    for i in range(c):
        k_ip[i, i, 0, 1, 1] = 1.0
        k_tp[i, i, 1, 0, 0] = 1.0
    x = rand((1, c, 4, 5, 5), seed=26)
    mid = cnd(Tensor(x), Tensor(k_ip), 1, (0, 1, 1))
    out = cnd(mid, Tensor(k_tp), 1, (1, 0, 0))
    np.testing.assert_array_equal(out.data, x)


def test_separable_block_matches_two_stage_oracle():
    rng = np.random.default_rng(27)
    blk = SeparableConvBlock(2, rng=rng, dtype=np.float64)
    x = rng.normal(size=(1, 2, 3, 4, 4))
    got = blk(Tensor(x)).data

    def inorm(v, gamma, beta, eps=1e-5):
        m = v.mean(axis=(2, 3, 4), keepdims=True)
        s = np.sqrt(v.var(axis=(2, 3, 4), keepdims=True) + eps)
        return (v - m) / s * gamma.reshape(1, -1, 1, 1, 1) + beta.reshape(1, -1, 1, 1, 1)

    h = conv_oracle(x, blk.in_plane.kernel.data, (1, 1, 1), (0, 1, 1))
    h = np.maximum(inorm(h, blk.norm_ip.gamma.data, blk.norm_ip.beta.data), 0.0)
    h = conv_oracle(h, blk.through_plane.kernel.data, (1, 1, 1), (1, 0, 0))
    want = np.maximum(inorm(h, blk.norm_tp.gamma.data, blk.norm_tp.beta.data), 0.0)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_separable_block_preserves_shape():
    blk = SeparableConvBlock(4)
    x = Tensor(np.zeros((2, 4, 5, 6, 7), dtype=np.float32))
    assert blk(x).shape == x.shape


def test_conv_norm_act_shape_and_grad():
    rng = np.random.default_rng(28)
    blk = ConvNormAct(2, 4, (3, 3, 3), stride=2, rng=rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 2, 4, 4, 4)))
    assert blk(x).shape == (1, 4, 2, 2, 2)

    def f(t):
        return blk(t).sum()

    assert grad_check(f, x, h=1e-5) < 1e-5


def test_every_layer_gradient_matches_finite_differences():
    # 10 random parameterizations across layer kinds
    rng = np.random.default_rng(29)
    for trial in range(10):
        cin = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 3))
        layer = [
            lambda: Conv(cin, cout, (1, 3, 3), rng=rng, dtype=np.float64),
            lambda: ConvTranspose(cin, cout, 2, rng=rng, dtype=np.float64),
            lambda: InstanceNorm(cin, dtype=np.float64),
            lambda: Linear(cin * 4, cin * 4, rng=rng, dtype=np.float64),
            # 2-channel ChannelNorm is sign-like (FD-degenerate); use >= 4
            lambda: ChannelNorm(cin + 3, dtype=np.float64),
        ][trial % 5]()
        if isinstance(layer, Linear):
            # an FC runs on the token rows of one mix node
            layer = partial(mix, fc=layer, kind="C")
            x = Tensor(rng.normal(size=(1, cin * 4, 3, 2, 2)))
        elif isinstance(layer, ChannelNorm):
            x = Tensor(rng.normal(size=(1, cin + 3, 3, 4, 4)))
        else:
            x = Tensor(rng.normal(size=(1, cin, 3, 4, 4)))
        probe = Tensor(rng.normal(size=layer(x).shape))

        def f(t):
            # random-weighted sum keeps the objective well-conditioned for
            # scale-invariant layers like the norms
            return (layer(t) * probe).sum()

        assert grad_check(f, x, h=1e-5) < 1e-5, f"trial {trial}"


def test_module_named_parameters_are_deterministic():
    blk1 = ResidualConvBlock(2, 4, rng=np.random.default_rng(0))
    blk2 = ResidualConvBlock(2, 4, rng=np.random.default_rng(0))
    names1 = [n for n, _ in blk1.named_parameters()]
    names2 = [n for n, _ in blk2.named_parameters()]
    assert names1 == names2
    assert "conv1.kernel" in names1 and "proj.kernel" in names1
    for (_, p1), (_, p2) in zip(blk1.named_parameters(), blk2.named_parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)
