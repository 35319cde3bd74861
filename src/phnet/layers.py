"""Neural-network building blocks on rank-5 feature maps (B, C, D, H, W).

Provides direct N-d convolution, the decoder's upsampling transpose
convolution (kernel equal to stride, the exact adjoint of the conv of that
geometry), instance / channel normalization, the row GEMM of an FC map, and
the composite blocks used by the encoder and decoder: Conv-IN-ReLU residual
blocks and the decoder's separated in-plane / through-plane convolution
pair.  Every operation but the row GEMM is differentiable through the
autograd tape; ``mlpp.mix`` records the tape node around the GEMM.

The three convolution kernels (forward, adjoint, kernel gradient) share one
channel-major scheme for every stride.  The input is copied once into
zero-filled rows of shape (stride phases, C, rows), its padded extents rounded
up to whole strides and split into stride phases, so that kernel tap (dz, dy,
dx) reads one contiguous block of rows of phase (dz % sd, dy % sh, dx % sw) at
a fixed row offset.  Every phase is copied, read by a tap or not (a strided
1x1x1 conv reads phase 0 alone).  An input given in parts along C (the
decoder's upsampled map and its skip) is copied part by part into the channel
blocks of the same rows, so it is never joined first.  The copy keeps W as its
inner axis, as does the crop back to (B, C, D, H, W); no array is transposed
to channels-last.  Each tap is a (C_out, C_in) @ (C_in, rows) product, issued
as BLAS GEMM calls over chunks of rows small enough for OpenBLAS to skip
packing its operands (see ``_SMALL_GEMM_MNK``).  Each call reads its block of
rows where it lies, with the row length as BLAS's leading dimension, and adds
into the output rows in place, so no operand is copied (see ``_bound_gemm``).
The GEMM routines are scipy's own ``sgemm`` and ``dgemm``, whose addresses
the public Cython module ``scipy.linalg.cython_blas`` exports; that one
module is loaded from its file, without the ``scipy.linalg`` package
(``_cython_blas``).  The adjoint is the same gather run on the cotangent's
rows with mirrored offsets.  Rows near the end of a grid line read past it
into the next line (or batch item); those rows only feed output positions
that the forward crops, and in the adjoint and kernel gradient they meet the
zeros that surround the embedded output, so they change nothing.

A conv that feeds an instance norm runs the norm, an optional residual add
and an optional ReLU as its epilogue, in the same tape node
(``conv_nd(..., norm=(gamma, beta), skip=..., relu=...)``, in the manner of
in-place activated BN, Rota Bulo et al. 2018).  The forward reads the norm
statistics from the output rows in place, writes the centred output once
into NCDHW ``xhat`` and finishes the output there, so the node keeps
``xhat`` as its one full-size array (its own output is held by the next
node anyway).  The backward takes the ReLU mask from that output, and its
last pass writes the norm's input gradient straight into the embedded
output of zero-filled cotangent rows (``_framed_rows``, which ``_to_rows``
fills too), ready for the adjoint and kernel-gradient GEMMs.

Each backward closure frees its large buffers at their last use.  On
CPython >= 3.11 the walk hands a closure the only reference to its
cotangent (see ``autograd``), so a closure that drops the cotangent frees
it.  The fused norm conv masks the cotangent with the ReLU into a copy of
its own and drops the cotangent; once the statistics are read it writes the
norm's input gradient into the cotangent rows and drops the masked copy
(unless it is the skip's gradient) and ``xhat``.  The plain conv (which
first sums the cotangent for its bias) and the transpose conv drop the
cotangent once its rows exist.  Both ``conv_nd`` closures then run the
kernel gradient, whose input rows die when it returns, and then the
adjoint, which frees the cotangent rows after its GEMMs and before it
builds the input gradient.  So a full-resolution norm conv's backward
holds at most two row buffers at once: the cotangent rows, and either the
kernel gradient's input rows or the adjoint's output rows.
"""

import ctypes
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys

import numpy as np
import scipy

from .autograd import Parameter, make_node, will_record

__all__ = [
    "Module",
    "Conv",
    "ConvTranspose",
    "Linear",
    "InstanceNorm",
    "ChannelNorm",
    "ConvNormAct",
    "ResidualConvBlock",
    "SeparableConvBlock",
    "conv_nd",
    "conv_transpose_nd",
    "linear",
    "affine_norm",
    "kaiming_uniform",
    "same_padding",
    "conv_output_extent",
]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

class Module:
    """Minimal parameter container.

    Subclasses assign ``Parameter``s, sub-``Module``s, or lists of
    sub-``Module``s as plain attributes.  ``named_parameters`` yields a
    module's own ``Parameter``s, then those of each child from
    ``named_children``, each in attribute-insertion order, which makes
    parameter naming (used by the checkpoint format) deterministic.
    """

    def named_children(self):
        """Direct sub-``Module``s with their dotted names: each attribute that
        is a ``Module``, and each ``Module`` item of a list or tuple."""
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield prefix + name, value
        for name, child in self.named_children():
            yield from child.named_parameters(f"{prefix}{name}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]


    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def kaiming_uniform(rng, shape, fan_in, dtype=np.float32):
    """Fan-in scaled uniform init: U(-b, b) with b = sqrt(6 / fan_in)."""
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _triple(v, name="value"):
    if isinstance(v, (int, np.integer)):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"{name} must be an int or a 3-tuple, got {v!r}")
    return t


def same_padding(kernel_size):
    """Padding that preserves spatial extents at stride 1; odd kernels only."""
    ks = _triple(kernel_size, "kernel_size")
    if any(k % 2 == 0 for k in ks):
        raise ValueError(f"same padding requires odd kernel extents, got {ks}")
    return tuple((k - 1) // 2 for k in ks)


def conv_output_extent(n, k, s, p):
    return (n + 2 * p - k) // s + 1


# ---------------------------------------------------------------------------
# convolution primitives (pure ndarray kernels + autograd wrappers)
# ---------------------------------------------------------------------------

def _check_conv_geometry(x_shape, k_shape, stride, padding):
    if len(x_shape) != 5:
        raise ValueError(f"conv: expected rank-5 input (B,C,D,H,W), got {x_shape}")
    if len(k_shape) != 5:
        raise ValueError(f"conv: expected rank-5 kernel, got {k_shape}")
    if any(s < 1 for s in stride):
        raise ValueError(f"conv: stride must be positive on every axis, got {stride}")
    if any(p < 0 for p in padding):
        raise ValueError(f"conv: padding must be non-negative, got {padding}")
    if any(k < 1 for k in k_shape[2:]):
        raise ValueError(f"conv: kernel extents must be positive, got {k_shape[2:]}")
    for n, k, p in zip(x_shape[2:], k_shape[2:], padding):
        if n + 2 * p < k:
            raise ValueError(
                f"conv: kernel {k_shape[2:]} larger than padded input "
                f"{x_shape[2:]} with padding {padding}")


# OpenBLAS runs a GEMM call with M * N * K <= 100**3 on its small-matrix
# kernels, which read the operands in place; a larger call first packs them
# into blocked panels.  A per-tap conv GEMM is large only through its row
# count, so the rows are cut into chunks that keep every call within this
# limit.  Measured with OpenBLAS 0.3.30 on one thread of an AVX-512 Xeon: an
# (L, 8) @ (8, 8) call ran at 52 GFLOP/s for L = 15625 (M * N * K = 10**6)
# and at 26 GFLOP/s for L = 15626.  Each call reads its row block where it
# lies in the phase rows, at the rows' own leading dimension (``_bound_gemm``).
_SMALL_GEMM_MNK = 10 ** 6


def _cython_blas():
    """SciPy's public Cython module ``scipy.linalg.cython_blas``, loaded from
    its own file in scipy's ``linalg`` directory without running
    ``scipy/linalg/__init__.py``, which imports the whole package (about
    25 MB of RSS and 0.2 s per process on a 2-vCPU VM with SciPy 1.17).  It
    is the same extension either way, so it exports the same routine
    addresses.  An already imported one is reused."""
    name = "scipy.linalg.cython_blas"
    module = sys.modules.get(name)
    if module is None:
        linalg_dir = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [linalg_dir])
        if spec is None:
            raise ImportError(f"no {name} extension module in {linalg_dir}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _blas_function(name):
    """The Fortran-convention BLAS routine ``name`` of the library scipy
    links, as a ctypes function of 13 addresses (sgemm and dgemm take every
    argument by reference).  ``scipy.linalg.blas`` cannot pass a leading
    dimension, so it copies every strided operand; the pointer exported by
    ``scipy.linalg.cython_blas`` reaches the same routine without that
    copy.  That module is read through ``_cython_blas``, so the
    ``scipy.linalg`` package is never imported."""
    capsule = _cython_blas().__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    pointer = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *(ctypes.c_void_p,) * 13)(pointer)


# per dtype: the GEMM routine and the ctypes type of its alpha and beta
_GEMMS = {np.dtype(np.float32): (_blas_function("sgemm"), ctypes.c_float),
          np.dtype(np.float64): (_blas_function("dgemm"), ctypes.c_double)}


def _bound_gemm(dtype, trans_a, m, n, k, lda, ldb, ldc):
    """GEMM of fixed shape and leading dimensions on raw addresses.

    Returns ``gemm(a, b, c, accumulate)``, which computes, in column-major
    BLAS terms, C (m, n) = op(A) @ B (+ C when ``accumulate``), with
    op(A) = A.T if ``trans_a`` else A, for the operands at addresses ``a``,
    ``b`` and ``c``.  BLAS checks no bounds: the caller checks that every
    address it passes lies in an array that stays alive during the call."""
    fn, scalar = _GEMMS[np.dtype(dtype)]
    cells = ([ctypes.c_char(b"T" if trans_a else b"N"), ctypes.c_char(b"N")]
             + [ctypes.c_int(v) for v in (m, n, k, lda, ldb, ldc)]
             + [scalar(1.0), scalar(0.0)])
    ta, tb, pm, pn, pk, plda, pldb, pldc, one, zero = map(ctypes.addressof, cells)

    def gemm(a, b, c, accumulate, _cells=cells):      # the default keeps the cells alive
        fn(ta, tb, pm, pn, pk, one, a, plda, b, pldb, one if accumulate else zero, c, pldc)

    return gemm


def _phase_layout(x_shape, k_shape, stride, padding):
    """Stride-phase grid and GEMM chunking of a conv whose input has shape
    ``x_shape`` and whose kernel has shape ``k_shape`` (either channel order).

    Returns ``q``, the zero-padded extents in whole strides (rounded up); for
    each kernel tap (dz, dy, dx) in C order its phase index
    (dz % sd, dy % sh, dx % sw) and flat row offset
    ((dz // sd) * qh + dy // sh) * qw + dx // sw (offsets grow with the tap,
    so the last one is the largest); and ``nch`` chunks of balanced length
    ``L`` that cover the B*qd*qh*qw rows of a phase (the last one may reach
    past them), each GEMM call within ``_SMALL_GEMM_MNK``."""
    q = tuple(-(-(n + 2 * p) // s) for n, p, s in zip(x_shape[2:], padding, stride))
    sd, sh, sw = stride
    kd, kh, kw = k_shape[2:]
    taps = [((dz % sd * sh + dy % sh) * sw + dx % sw,
             ((dz // sd) * q[1] + dy // sh) * q[2] + dx // sw)
            for dz in range(kd) for dy in range(kh) for dx in range(kw)]
    rows = x_shape[0] * math.prod(q)
    nch = -(-rows // max(1, _SMALL_GEMM_MNK // (k_shape[0] * k_shape[1])))
    return q, taps, nch, -(-rows // nch)


def _phase_slices(spatial, stride, padding):
    """Yield, per stride phase in C order, an index into that phase's grid
    (..., qd, qh, qw) and an index into the unpadded extents (..., D, H, W)
    that address the same real samples."""
    per_axis = []
    for n, s, p in zip(spatial, stride, padding):
        pairs = []
        for a in range(s):
            lo = -(-(p - a) // s)                   # first q with q*s + a >= p
            hi = -(-(p + n - a) // s)               # first q with q*s + a >= p + n
            pairs.append((slice(lo, hi), slice(lo * s + a - p, n, s)))
        per_axis.append(pairs)
    for pairs in itertools.product(*per_axis):
        yield ((Ellipsis,) + tuple(g for g, _ in pairs),
               (Ellipsis,) + tuple(v for _, v in pairs))


def _framed_rows(shape, dtype, stride, padding, q, width, lead=0):
    """Zero-filled channel-major rows (sd*sh*sw, C, width) for the stride
    phases of a (B, C, D, H, W) array of ``shape``.

    Phase (a, b, c), at index (a * sh + b) * sw + c, holds the samples at
    padded positions (a, b, c) + stride * (qd, qh, qw) in the row-major
    order of its grid (B, qd, qh, qw), starting at row ``lead``; that index
    is the phase index of the taps of ``_phase_layout``.  Returns the rows
    and, per phase, the (C, B, ...) view of the rows that the samples fill
    and the index of those samples in the (C, B, D, H, W) order of the array;
    every other row stays zero."""
    B, C = shape[:2]
    n = B * math.prod(q)
    rows = np.zeros((math.prod(stride), C, width), dtype=dtype)
    return rows, [(rows[ph, :, lead:lead + n].reshape((C, B) + q)[gi], xi)
                  for ph, (gi, xi) in enumerate(_phase_slices(shape[2:], stride, padding))]


def _to_rows(parts, stride, padding, q, width, lead=0):
    """Copy the (B, C_i, D, H, W) arrays ``parts``, joined along C in order
    and promoted to one dtype as ``np.concatenate`` does, into the rows of
    ``_framed_rows``, each sample once, W as inner axis."""
    bounds = [0, *itertools.accumulate(p.shape[1] for p in parts)]
    shape = parts[0].shape[:1] + (bounds[-1],) + parts[0].shape[2:]
    rows, fills = _framed_rows(shape, np.result_type(*parts), stride, padding, q, width, lead)
    for view, xi in fills:
        for p, lo, hi in zip(parts, bounds, bounds[1:]):
            view[lo:hi] = p.transpose(1, 0, 2, 3, 4)[xi]
    return rows


def _from_rows(rows, stride, padding, q, shape):
    """Inverse of ``_to_rows`` with ``lead=0``: interleave the phases of the
    (sd*sh*sw, C, >= B*qd*qh*qw) ``rows``, crop the padding and return the
    (B, C, D, H, W) array of ``shape``."""
    B, C = shape[:2]
    n = B * math.prod(q)
    out = np.empty(shape, dtype=rows.dtype)
    oc = out.transpose(1, 0, 2, 3, 4)
    for ph, (gi, xi) in enumerate(_phase_slices(shape[2:], stride, padding)):
        oc[xi] = rows[ph, :, :n].reshape((C, B) + q)[gi]
    return out


def _check_rows(rows, ndim, name):
    """``rows`` must be float32 or float64 of rank ``ndim``, each row contiguous."""
    if rows.dtype not in _GEMMS or rows.ndim != ndim or rows.strides[-1] != rows.itemsize:
        raise ValueError(f"{name}: expected rank-{ndim} float32 or float64 rows with "
                         f"contiguous last axis, got {rows.dtype} {rows.shape} "
                         f"with strides {rows.strides}")


def _check_reads(src, reads, count, name):
    """Every read of ``count`` rows at (phase, offset) must lie within ``src``."""
    for ph, off in reads:
        if not (0 <= ph < src.shape[0] and off >= 0 and off + count <= src.shape[2]):
            raise ValueError(f"{name}: read of {count} rows at phase {ph}, offset {off} "
                             f"is outside the {src.shape} rows")


def _tap_gemms(src, kt, reads, n_out, nch, L):
    """Sum of per-tap products on channel-major rows, in small GEMM calls.

    ``src`` is (phases, K, width) rows and ``kt`` holds one (N, K) matrix per
    tap.  Tap t with ``reads[t] = (i, off, j)`` adds ``kt[t] @ src[i, :, off + r]``
    to row r of output phase j, for r < nch * L; ``width`` must be at least
    ``nch * L + off``.  Returns the (n_out, N, nch * L) rows.  Per chunk of
    ``L`` rows, each call reads the tap's (K, L) block of ``src`` in place and
    adds it into the chunk of ``out[j]``, which stays in cache over the taps;
    the first tap of each output phase overwrites the chunk instead, and
    output phases that no tap reaches are zero."""
    _check_rows(src, 3, "tap gemms")
    P, K, width = src.shape
    n = kt.shape[1]
    if not (src.flags.c_contiguous and kt.flags.c_contiguous and kt.dtype == src.dtype
            and kt.shape == (len(reads), n, K)):
        raise ValueError(f"tap gemms: expected contiguous {src.dtype} rows and "
                         f"({len(reads)}, N, {K}) tap matrices, got {kt.dtype} {kt.shape}")
    _check_reads(src, [(i, off) for i, off, _ in reads], nch * L, "tap gemms")
    if any(not 0 <= j < n_out for _, _, j in reads):
        raise ValueError(f"tap gemms: output phase outside range({n_out})")
    out = np.empty((n_out, n, nch * L), dtype=src.dtype)
    for j in set(range(n_out)) - {j for _, _, j in reads}:
        out[j] = 0
    gemm = _bound_gemm(src.dtype, False, L, n, K, width, K, nch * L)
    size = src.itemsize
    s0, k0, o0 = src.ctypes.data, kt.ctypes.data, out.ctypes.data
    first = {}
    calls = [(s0 + (i * K * width + off) * size, k0 + t * n * K * size,
              o0 + j * n * nch * L * size, first.setdefault(j, t) != t)
             for t, (i, off, j) in enumerate(reads)]
    for c in range(nch):
        r = c * L * size
        for a, b, o, accumulate in calls:
            # column-major BLAS sees out[j] chunk (L, N) = rows (L, K) @ kt[t].T (K, N)
            gemm(a + r, b, o + r, accumulate)
    return out


def _conv_rows(xr, k, taps, nch, L):
    """Strided cross-correlation by per-tap GEMMs, as (1, Co, nch*L) rows on
    the input's phase grid (B, qd, qh, qw).

    ``xr`` is ``_to_rows((x,))`` for the layout ``q, taps, nch, L`` of
    ``_phase_layout``.  Output row r sums, over the taps,
    ``k_tap @ xr[phase, :, offset + r]``.  A row whose read wraps across a
    grid edge (or into the next batch item) lands only at an output position
    past ``od``, ``oh`` or ``ow``, which the crop to the output drops."""
    co, ci = k.shape[:2]
    kt = np.ascontiguousarray(k.reshape(co, ci, -1).transpose(2, 0, 1), dtype=xr.dtype)
    return _tap_gemms(xr, kt, [(ph, off, 0) for ph, off in taps], 1, nch, L)


def _conv_adjoint(gr, k, stride, padding, q, taps, nch, L, shape):
    """Adjoint of ``_conv_rows`` with identical geometry, returning the
    (B, Ci, D, H, W) array of ``shape``.

    ``gr`` is the cotangent's rows ``_to_rows((y,), ..., lead=maxoff)``: the
    cotangent embedded in the phase grid of the conv input, zero outside the
    output, after ``maxoff`` (the largest tap offset) leading zero rows.  The
    adjoint is a gather: row p of the input's phase gains
    ``k_tap.T @ y[p - offset]`` from each tap of that phase, which reads
    ``gr`` at row p + maxoff - offset.  Rows outside the output (and the
    leading ones) are zero, so they add nothing."""
    co, ci = k.shape[:2]
    maxoff = taps[-1][1]
    kt = np.ascontiguousarray(k.reshape(co, ci, -1).transpose(2, 1, 0), dtype=gr.dtype)
    acc = _tap_gemms(gr, kt, [(0, maxoff - off, ph) for ph, off in taps],
                     math.prod(stride), nch, L)
    # a caller that passes ``gr`` as a temporary holds it no longer (CPython
    # >= 3.11), so the rows die here, before the input gradient is allocated
    del gr
    return _from_rows(acc, stride, padding, q, shape)


def _conv_kernel_grad(xr, g, k_shape, taps, nch, L):
    """Gradient of the conv bilinear form with respect to the kernel.

    ``xr`` is the input's ``_to_rows`` for the layout ``q, taps, nch, L`` of
    ``_phase_layout``, as for ``_conv_rows``, and ``g`` the cotangent's
    (Co, >= nch*L) grid rows, zero outside the output, with a contiguous last
    axis.  Per chunk of L rows, each tap adds the ``(Co, L) @ (L, Ci)``
    product of the cotangent chunk and the tap's block of ``xr``, both read in
    place.  Wrapped rows meet zeros of the embedded cotangent, so they add
    nothing."""
    co, ci = k_shape[:2]
    _check_rows(xr, 3, "kernel grad")
    _check_rows(g, 2, "kernel grad")
    if not (xr.flags.c_contiguous and g.dtype == xr.dtype and xr.shape[1] == ci
            and g.shape[0] == co and g.shape[1] >= nch * L
            and g.strides[0] >= g.shape[1] * g.itemsize):
        raise ValueError(f"kernel grad: expected contiguous ({ci}-channel) input rows and "
                         f"({co}, >= {nch * L}) cotangent rows of one dtype, got "
                         f"{xr.dtype} {xr.shape} and {g.dtype} {g.shape}")
    _check_reads(xr, taps, nch * L, "kernel grad")
    gk = np.zeros((len(taps), co, ci), dtype=xr.dtype)
    size = xr.itemsize
    width = xr.shape[2]
    # column-major BLAS sees gk[t].T (Ci, Co) += xr block.T (Ci, L) @ g chunk.T (L, Co)
    gemm = _bound_gemm(xr.dtype, True, ci, co, L, width, g.strides[0] // size, ci)
    x0, g0, k0 = xr.ctypes.data, g.ctypes.data, gk.ctypes.data
    calls = [(x0 + (ph * ci * width + off) * size, k0 + t * co * ci * size)
             for t, (ph, off) in enumerate(taps)]
    for c in range(nch):
        r = c * L * size
        for a, o in calls:
            gemm(a + r, g0 + r, o, True)
    return np.ascontiguousarray(gk.transpose(1, 2, 0)).reshape(k_shape)


def conv_nd(x, kernel, stride=1, padding=0, bias=None, norm=None, skip=None, relu=False,
            concat=None):
    """Strided zero-padded cross-correlation, with an optional instance-norm
    epilogue: relu(IN(conv(x)) + skip) in one tape node.

    ``x``: (B, C_in, D, H, W); ``kernel``: (C_out, C_in, k_d, k_h, k_w);
    optional ``bias``: (C_out,).  With ``concat``, a (B, C_c, D, H, W) map,
    the input is ``x`` and ``concat`` joined along C as by ``np.concatenate``
    (with no joined copy) and the kernel takes C_in + C_c channels.  Output
    extent per axis is floor((n + 2p - k)/s) + 1; the output has the input's
    dtype.  Computed as per-tap GEMMs over the channel-major stride phases of
    the padded input (see the module docstring); the backward builds the
    cotangent's rows once for the adjoint and kernel-gradient GEMMs, and
    skips the adjoint when no input requires grad.

    ``norm=(gamma, beta)``, each (C_out,), normalizes each (batch, channel)
    of the conv output over its positions as ``affine_norm`` over (2, 3, 4)
    does; then ``skip``, of the output's shape, is added, and ``relu``
    clamps the sum at 0.  ``skip`` and ``relu`` need ``norm``, and ``bias``
    excludes it (the norm would cancel the bias).  Differentiable in every
    tensor argument.
    """
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    inputs = (x,) if concat is None else (x, concat)
    if concat is not None and concat.shape[:1] + concat.shape[2:] != x.shape[:1] + x.shape[2:]:
        raise ValueError(f"conv: concat shape {concat.shape} does not match input shape "
                         f"{x.shape} outside the channel axis")
    in_shape = x.shape[:1] + (sum(t.shape[1] for t in inputs),) + x.shape[2:]
    _check_conv_geometry(in_shape, kernel.shape, stride, padding)
    if in_shape[1] != kernel.shape[1]:
        raise ValueError(
            f"conv: input has {in_shape[1]} channels, kernel expects {kernel.shape[1]}")
    co = kernel.shape[0]
    if bias is not None and bias.shape != (co,):
        raise ValueError(f"conv: bias shape {bias.shape} != ({co},)")
    out_shape = (x.shape[0], co) + tuple(
        conv_output_extent(n, kk, s, p)
        for n, kk, s, p in zip(in_shape[2:], kernel.shape[2:], stride, padding))
    if norm is None:
        if skip is not None or relu:
            raise ValueError("conv: skip and relu are parts of the norm epilogue; pass norm")
    else:
        if bias is not None:
            raise ValueError("conv: a bias before the norm cancels out; pass bias or norm")
        if any(p.shape != (co,) for p in norm):
            raise ValueError(f"conv: norm gamma and beta must be ({co},), got "
                             f"{[p.shape for p in norm]}")
        if skip is not None and skip.shape != out_shape:
            raise ValueError(f"conv: skip shape {skip.shape} != output shape {out_shape}")

    xs, kd = tuple(t.data for t in inputs), kernel.data
    k_shape = kernel.shape
    q, taps, nch, L = _phase_layout(in_shape, k_shape, stride, padding)
    maxoff = taps[-1][1]
    width = nch * L + maxoff
    acc = _conv_rows(_to_rows(xs, stride, padding, q, width), kd, taps, nch, L)
    input_grad = any(t.requires_grad for t in inputs)
    splits = np.cumsum([t.shape[1] for t in inputs])[:-1]

    def conv_grads(rows):
        """One gradient per input (views of one array, split along C), then
        dkernel, from the cotangent's rows (see ``_conv_adjoint``), the one
        item of the list ``rows``.  The kernel gradient runs first, while its
        input rows and the cotangent rows are the only row buffers; the
        adjoint then takes the cotangent rows out of ``rows`` and frees them
        before it builds the input gradient."""
        gk = _conv_kernel_grad(_to_rows(xs, stride, padding, q, width),
                               rows[0][0, :, maxoff:], k_shape, taps, nch, L)
        if not input_grad:
            return (None,) * len(inputs) + (gk,)
        return (*np.split(_conv_adjoint(rows.pop(), kd, stride, padding, q, taps, nch, L,
                                        in_shape), splits, axis=1), gk)

    if norm is None:
        out = _from_rows(acc, (1, 1, 1), (0, 0, 0), q, out_shape)
        parents = inputs + (kernel,)
        if bias is not None:
            out += bias.data.reshape(1, -1, 1, 1, 1)
            parents += (bias,)

        def bk(g):
            rows = [_to_rows((g,), (1, 1, 1), (0, 0, 0), q, width, lead=maxoff)]
            dbias = () if bias is None else (g.sum(axis=(0, 2, 3, 4)),)
            del g                   # its rows hold the cotangent from here
            return conv_grads(rows) + dbias

        return make_node(out, parents, "conv_nd", bk)

    gamma, beta = norm
    parents = inputs + (kernel, gamma, beta) + (() if skip is None else (skip,))
    gd = gamma.data.reshape(1, -1, 1, 1, 1)
    count = math.prod(out_shape[2:])
    per_map = out_shape[:2] + (1, 1, 1)     # one statistic per (batch, channel)
    # the (B, Co, od, oh, ow) output, read in place from the grid rows
    n = out_shape[0] * math.prod(q)
    crop = acc[0, :, :n].reshape((co, out_shape[0]) + q)[
        (Ellipsis,) + tuple(slice(0, m) for m in out_shape[2:])].transpose(1, 0, 2, 3, 4)
    xhat = np.empty(out_shape, dtype=acc.dtype)
    np.subtract(crop, np.einsum("bcdhw->bc", crop).reshape(per_map) / count, out=xhat)
    del acc, crop                   # free the rows before the output is allocated
    inv_std = 1.0 / np.sqrt(np.einsum("bcdhw,bcdhw->bc", xhat, xhat).reshape(per_map) / count
                            + _NORM_EPS)
    xhat *= inv_std
    # an unrecorded node keeps no xhat, so its output takes xhat's memory;
    # both write with the same ufuncs in the same order, so bitwise alike
    out = np.multiply(xhat, gd, out=None if will_record(parents) else xhat)
    out += beta.data.reshape(1, -1, 1, 1, 1)
    if skip is not None:
        out += skip.data
    if relu:
        np.maximum(out, 0, out=out)

    def bk(g):
        nonlocal xhat
        # subgradient of the ReLU at exactly 0 is 0
        gm = g * (out > 0) if relu else g
        del g                       # masked, the cotangent is read no more
        # per (batch, channel): the sums of gm and of gm * xhat, which give
        # the closed form of ``affine_norm``'s backward with h = gamma * gm,
        # dx = (h - mean(h) - xhat * mean(h * xhat)) * inv_std, and the
        # gamma and beta grads
        s0 = np.einsum("bcdhw->bc", gm).reshape(per_map)
        s1 = np.einsum("bcdhw,bcdhw->bc", gm, xhat).reshape(per_map)
        scale = gd * inv_std
        # fresh full-size arrays cost page faults, so dx reuses gm when the
        # masked gm is this closure's own, and xhat, which a graph walked
        # once never reads again, takes xhat * mean(h * xhat) * inv_std
        dx = np.multiply(gm, scale, out=gm if relu and skip is None else None)
        dx -= s0 * scale / count
        np.multiply(xhat, s1 * scale / count, out=xhat)
        # the last pass writes dx straight into the embedded output of the
        # zero-filled cotangent rows that the conv backward reads
        gr, ((grid, _),) = _framed_rows(out_shape, dx.dtype, (1, 1, 1), (0, 0, 0), q, width,
                                        lead=maxoff)
        np.subtract(dx, xhat, out=grid.transpose(1, 0, 2, 3, 4))
        grads = ((s1.sum(axis=0).reshape(-1), s0.sum(axis=0).reshape(-1))
                 + (() if skip is None else (gm,)))
        rows = [gr]
        del dx, gm, gr, grid
        xhat = None
        return conv_grads(rows) + grads

    return make_node(out, parents, "conv_nd", bk)


def conv_transpose_nd(x, kernel):
    """Upsampling transpose convolution whose stride is its kernel extents,
    with no padding: the exact adjoint of ``conv_nd`` with that kernel, that
    stride and no padding.

    ``x``: (B, C_in, D, H, W); ``kernel``: (C_in, C_out, k_d, k_h, k_w); the
    output is (B, C_out, D*k_d, H*k_h, W*k_w), where each input voxel
    (z, y, x) writes ``x[b, :, z, y, x] @ kernel[:, :, a, b', c]`` at
    (z*k_d + a, y*k_h + b', x*k_w + c), its own block.  The forward is
    ``conv_nd``'s adjoint kernel; the backward builds the cotangent's phase
    rows once for the conv and kernel-gradient GEMMs.
    """
    xd, kd, k_shape = x.data, kernel.data, kernel.shape
    if xd.ndim != 5 or kd.ndim != 5 or xd.shape[1] != k_shape[0]:
        raise ValueError(f"conv_transpose: expected a (B, C_in, D, H, W) input and a (C_in, "
                         f"C_out, k_d, k_h, k_w) kernel, got {xd.shape} and {k_shape}")
    stride, padding = k_shape[2:], (0, 0, 0)
    out_shape = (xd.shape[0], k_shape[1]) + tuple(n * k for n, k in zip(xd.shape[2:], stride))
    # the geometry of the conv whose adjoint this is, from the output to x
    _check_conv_geometry(out_shape, k_shape, stride, padding)
    q, taps, nch, L = _phase_layout(out_shape, k_shape, stride, padding)
    width = nch * L
    out = _conv_adjoint(_to_rows((xd,), (1, 1, 1), (0, 0, 0), q, width), kd, stride, padding,
                        q, taps, nch, L, out_shape)

    def bk(g):
        gr = _to_rows((g,), stride, padding, q, width)
        del g                       # its rows hold the cotangent from here
        return (_from_rows(_conv_rows(gr, kd, taps, nch, L), (1, 1, 1), (0, 0, 0), q,
                           xd.shape),
                _conv_kernel_grad(gr, _to_rows((xd,), (1, 1, 1), (0, 0, 0), q, width)[0],
                                  k_shape, taps, nch, L))

    return make_node(out, (x, kernel), "conv_transpose_nd", bk)


# ---------------------------------------------------------------------------
# linear / normalization primitives
# ---------------------------------------------------------------------------

def linear(rows, weight, bias):
    """Affine map of token rows on arrays: ``rows @ weight.T + bias`` for
    (n, in) ``rows``, an (out, in) ``weight`` and an (out,) ``bias``.  It
    records no tape node: ``mlpp.mix``, its one caller, records the pathway
    around it."""
    if rows.ndim != 2 or rows.shape[1] != weight.shape[1]:
        raise ValueError(
            f"linear: rows of shape {rows.shape} are not (n, {weight.shape[1]}) "
            f"for a weight of shape {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"linear: bias shape {bias.shape} != ({weight.shape[0]},)")
    y = rows @ weight.T
    y += bias
    return y


_NORM_EPS = 1e-5


def affine_norm(x, gamma, beta, axes):
    """gamma * (x - mean) / sqrt(var + _NORM_EPS) + beta on a (B,C,D,H,W) map,
    with mean and population variance over ``axes`` and per-channel
    ``gamma``/``beta`` of shape (C,).

    One tape node; the backward is the closed form of Ioffe & Szegedy (2015):
    with x^ the normalized input, a = mean(gamma * g) and
    b = mean(gamma * g * x^), dx = (gamma * g - a - x^ * b) / sqrt(var + eps).
    The reductions over ``axes`` are ``np.einsum`` contractions, so that no
    full-size product is built only to be summed.
    """
    if x.ndim != 5 or gamma.shape != (x.shape[1],) or beta.shape != gamma.shape:
        raise ValueError(f"norm: expected (B,C,D,H,W) input with (C,) gamma and beta, "
                         f"got {x.shape}, {gamma.shape} and {beta.shape}")
    axes = {a % x.ndim for a in axes}
    full = "bcdhw"
    kept = "".join(ax for i, ax in enumerate(full) if i not in axes)
    reduced = tuple(1 if i in axes else n for i, n in enumerate(x.shape))
    count = math.prod(x.shape[i] for i in axes)

    def mean_of(subscripts, *operands):
        return (np.einsum(subscripts + "->" + kept, *operands) / count).reshape(reduced)

    # in-place updates keep fewer full-size temporaries alive at once
    xhat = x.data - x.data.mean(axis=tuple(axes), keepdims=True)
    inv_std = 1.0 / np.sqrt(mean_of(f"{full},{full}", xhat, xhat) + _NORM_EPS)
    xhat *= inv_std
    gd = gamma.data.reshape(1, -1, 1, 1, 1)
    out = xhat * gd
    out += beta.data.reshape(1, -1, 1, 1, 1)

    def bk(g):
        dx = g * gd                                 # gamma * g
        a = mean_of(full, dx)
        b = mean_of(f"{full},{full}", dx, xhat)
        dx -= a
        dx -= xhat * b
        dx *= inv_std
        return dx, np.einsum(f"{full},{full}->c", g, xhat), g.sum(axis=(0, 2, 3, 4))

    return make_node(out, (x, gamma, beta), "affine_norm", bk)


class Linear(Module):
    """The weight and bias of one FC map.  ``forward`` takes token rows as an
    array and returns the mapped rows; ``mlpp.mix`` makes the rows and the
    tape node."""

    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform(rng, (out_features, in_features), in_features, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, rows):
        return linear(rows, self.weight.data, self.bias.data)



class _AffineNorm(Module):
    """``affine_norm`` over fixed axes of a (B,C,D,H,W) map."""

    axes = ()

    def __init__(self, channels, dtype=np.float32):
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))

    def forward(self, x):
        return affine_norm(x, self.gamma, self.beta, self.axes)



class InstanceNorm(_AffineNorm):
    """Normalizes each (batch, channel) over all spatial positions."""

    axes = (2, 3, 4)


class ChannelNorm(_AffineNorm):
    """Normalizes each (batch, position) across channels (layer-norm style)."""

    axes = (1,)


# ---------------------------------------------------------------------------
# composite blocks
# ---------------------------------------------------------------------------

class Conv(Module):
    """Convolution layer.  ``padding="same"`` preserves extents at stride 1
    (odd kernels only); convolutions feeding a norm carry no bias."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding="same", bias=False, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        ks = _triple(kernel_size, "kernel_size")
        self.stride = _triple(stride, "stride")
        self.padding = same_padding(ks) if padding == "same" else _triple(padding, "padding")
        fan_in = in_channels * math.prod(ks)
        self.kernel = Parameter(
            kaiming_uniform(rng, (out_channels, in_channels) + ks, fan_in, dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype)) if bias else None

    def forward(self, x, norm=None, skip=None, relu=False, concat=None):
        """``conv_nd`` of ``x`` (joined along C with ``concat``, if given);
        with an ``InstanceNorm`` module as ``norm``, its epilogue
        relu(norm(conv(x)) + skip) in the same node."""
        return conv_nd(x, self.kernel, self.stride, self.padding, self.bias,
                       norm=None if norm is None else (norm.gamma, norm.beta),
                       skip=skip, relu=relu, concat=concat)



class ConvTranspose(Module):
    """Upsampling by ``stride``: a transpose convolution whose kernel equals
    its stride, without padding or bias, so each input voxel writes its own
    block of the output."""

    def __init__(self, in_channels, out_channels, stride, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.stride = _triple(stride, "stride")
        fan_in = in_channels * math.prod(self.stride)
        self.kernel = Parameter(
            kaiming_uniform(rng, (in_channels, out_channels) + self.stride, fan_in, dtype))

    def forward(self, x):
        return conv_transpose_nd(x, self.kernel)



class ConvNormAct(Module):
    """Conv -> InstanceNorm -> ReLU, one ``conv_nd`` node; ``norm`` holds the
    norm's gamma and beta."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 rng=None, dtype=np.float32):
        self.conv = Conv(in_channels, out_channels, kernel_size, stride,
                         rng=rng, dtype=dtype)
        self.norm = InstanceNorm(out_channels, dtype=dtype)

    def forward(self, x):
        return self.conv(x, norm=self.norm, relu=True)



class ResidualConvBlock(Module):
    """Two Conv-IN-ReLU stages with a residual skip added before the final
    ReLU: y = relu(IN(conv2(relu(IN(conv1(x))))) + skip(x)).

    ``conv1`` carries the (optional) downsampling stride.  The skip path is
    the identity when shapes allow it, otherwise a strided 1x1x1
    projection followed by IN.  Each conv is one ``conv_nd`` node with its
    norm, the skip add and the ReLU; the ``InstanceNorm`` modules hold the
    norms' gamma and beta.
    """

    def __init__(self, in_channels, out_channels, kernel_size=(3, 3, 3),
                 stride=1, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        stride = _triple(stride, "stride")
        self.conv1 = Conv(in_channels, out_channels, kernel_size, stride,
                          "same", rng=rng, dtype=dtype)
        self.norm1 = InstanceNorm(out_channels, dtype=dtype)
        self.conv2 = Conv(out_channels, out_channels, kernel_size, 1,
                          "same", rng=rng, dtype=dtype)
        self.norm2 = InstanceNorm(out_channels, dtype=dtype)
        if in_channels != out_channels or stride != (1, 1, 1):
            self.proj = Conv(in_channels, out_channels, 1, stride, 0,
                             rng=rng, dtype=dtype)
            self.proj_norm = InstanceNorm(out_channels, dtype=dtype)
        else:
            self.proj = None
            self.proj_norm = None

    def forward(self, x):
        h = self.conv1(x, norm=self.norm1, relu=True)
        s = x if self.proj is None else self.proj(x, norm=self.proj_norm)
        return self.conv2(h, norm=self.norm2, skip=s, relu=True)



class SeparableConvBlock(Module):
    """Decoder convolution split into an in-plane (1,3,3) stage and a
    through-plane (3,1,1) stage, IN + ReLU after each (one ``conv_nd`` node
    per stage); 12 C^2 kernel weights versus 27 C^2 for a full 3x3x3 conv."""

    def __init__(self, channels, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_plane = Conv(channels, channels, (1, 3, 3), 1, (0, 1, 1),
                             rng=rng, dtype=dtype)
        self.norm_ip = InstanceNorm(channels, dtype=dtype)
        self.through_plane = Conv(channels, channels, (3, 1, 1), 1, (1, 0, 0),
                                  rng=rng, dtype=dtype)
        self.norm_tp = InstanceNorm(channels, dtype=dtype)

    def forward(self, x):
        h = self.in_plane(x, norm=self.norm_ip, relu=True)
        return self.through_plane(h, norm=self.norm_tp, relu=True)
