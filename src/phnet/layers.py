"""Neural-network building blocks on rank-5 feature maps (B, C, D, H, W).

Provides direct N-d convolution and its exact adjoint (transpose
convolution), instance / channel normalization, linear maps, and the
composite blocks used by the encoder and decoder: Conv-IN-ReLU residual
blocks and the decoder's separated in-plane / through-plane convolution
pair.  All operations are differentiable through the autograd tape.

The three convolution kernels (forward, adjoint, kernel gradient) share one
channels-last scheme for every stride.  The zero-padded input is copied once
into rows of C channels, its padded extents rounded up to whole strides and
split into stride phases, so that kernel tap (dz, dy, dx) reads one
contiguous block of rows of phase (dz % sd, dy % sh, dx % sw) at a fixed row
offset.  Each tap is then one (rows, C_in) @ (C_in, C_out) GEMM.  Rows near
the end of a grid line read past it into the next line (or batch item);
those rows only feed output positions that the forward crops, and in the
adjoint and kernel gradient they meet the zeros that surround the embedded
output, so they change nothing.
"""

import itertools
import math

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .autograd import Parameter, make_node

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

def _check_conv_geometry(x_shape, k_shape, stride, padding, transposed=False):
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
    if transposed:
        # the kernel-vs-input constraint applies on the conv side, i.e. to the
        # transpose's *output*, which satisfies it by construction
        return
    for n, k, p in zip(x_shape[2:], k_shape[2:], padding):
        if n + 2 * p < k:
            raise ValueError(
                f"conv: kernel {k_shape[2:]} larger than padded input "
                f"{x_shape[2:]} with padding {padding}")


def _phase_layout(spatial, ks, stride, padding):
    """Stride-phase grid of a conv input with extents ``spatial``.

    Returns ``q``, the zero-padded extents in whole strides (rounded up), and
    for each kernel tap (dz, dy, dx) in C order its phase index
    (dz % sd, dy % sh, dx % sw) and flat row offset
    ((dz // sd) * qh + dy // sh) * qw + dx // sw.  Offsets grow with the tap,
    so the last one is the largest."""
    q = tuple(-(-(n + 2 * p) // s) for n, p, s in zip(spatial, padding, stride))
    sd, sh, sw = stride
    taps = [((dz % sd * sh + dy % sh) * sw + dx % sw,
             ((dz // sd) * q[1] + dy // sh) * q[2] + dx // sw)
            for dz in range(ks[0]) for dy in range(ks[1]) for dx in range(ks[2])]
    return q, taps


def _phase_slices(spatial, stride, padding):
    """Yield, per stride phase in C order, an index into that phase's grid
    (B, qd, qh, qw, C) and an index into the unpadded channels-last array
    (B, D, H, W, C) that address the same real samples."""
    per_axis = []
    for n, s, p in zip(spatial, stride, padding):
        pairs = []
        for a in range(s):
            lo = -(-(p - a) // s)                   # first q with q*s + a >= p
            hi = -(-(p + n - a) // s)               # first q with q*s + a >= p + n
            pairs.append((slice(lo, hi), slice(lo * s + a - p, n, s)))
        per_axis.append(pairs)
    for pairs in itertools.product(*per_axis):
        yield ((slice(None),) + tuple(g for g, _ in pairs),
               (slice(None),) + tuple(v for _, v in pairs))


def _to_phase_rows(x, stride, padding, q, taps):
    """Copy (B, C, D, H, W) ``x`` once into zero-padded channels-last stride
    phases: the padded grid (B, qd*sd, qh*sh, qw*sw, C), split as
    (B, qd, sd, qh, sh, qw, sw, C) and ordered (sd*sh*sw, B*qd*qh*qw, C).
    Only the phases that ``taps`` read are filled; the others stay zero
    (a strided 1x1x1 conv reads phase 0 alone)."""
    B, C = x.shape[:2]
    rows = np.zeros((math.prod(stride), B) + q + (C,), dtype=x.dtype)
    xl = x.transpose(0, 2, 3, 4, 1)
    read = {ph for ph, _ in taps}
    for ph, (gi, xi) in enumerate(_phase_slices(x.shape[2:], stride, padding)):
        if ph in read:
            rows[ph][gi] = xl[xi]
    return rows.reshape(rows.shape[0], -1, C)


def _from_phase_rows(rows, stride, padding, q, shape):
    """Inverse of ``_to_phase_rows``: interleave the phases, crop the padding
    and return the (B, C, D, H, W) array of ``shape``."""
    out = np.empty(shape, dtype=rows.dtype)
    ol = out.transpose(0, 2, 3, 4, 1)
    rows = rows.reshape((rows.shape[0], shape[0]) + q + (shape[1],))
    for ph, (gi, xi) in enumerate(_phase_slices(shape[2:], stride, padding)):
        ol[xi] = rows[ph][gi]
    return out


def _output_rows(y, q):
    """(B, Co, od, oh, ow) ``y`` as (B*qd*qh*qw, Co) rows of the phase grid,
    zero outside the output."""
    return _to_phase_rows(y, (1, 1, 1), (0, 0, 0), q, [(0, 0)])[0]


def _conv_fwd(xr, k, q, taps, out_spatial):
    """Strided cross-correlation by one channels-last GEMM per kernel tap.

    ``xr`` is ``_to_phase_rows(x)`` for the layout ``q, taps`` of
    ``_phase_layout``.  Each tap reads one contiguous block of
    ``n = rows - max offset`` rows of its stride phase; its
    ``(n, Ci) @ (Ci, Co)`` product is accumulated in place into a (rows, Co)
    buffer (BLAS gemm, beta=1).  A row whose read wraps across a grid edge
    (or into the next batch item) lands only at an output position past
    ``od``, ``oh`` or ``ow``, which the final crop to ``out_spatial`` drops."""
    co, ci = k.shape[:2]
    n = xr.shape[1] - taps[-1][1]
    kt = np.ascontiguousarray(k.reshape(co, ci, -1).transpose(2, 1, 0), dtype=xr.dtype)
    acc = np.zeros((xr.shape[1], co), dtype=xr.dtype)
    gemm = get_blas_funcs("gemm", dtype=xr.dtype)
    # BLAS is column-major: the transposes below are F-ordered views of
    # C-ordered blocks, so acc^T += k_tap^T @ x_block^T runs without copies
    for t, (ph, off) in enumerate(taps):
        gemm(1.0, kt[t].T, xr[ph, off:off + n].T, beta=1.0, c=acc[:n].T, overwrite_c=True)
    od, oh, ow = out_spatial
    acc = acc.reshape((-1,) + q + (co,))[:, :od, :oh, :ow]
    return np.ascontiguousarray(acc.transpose(0, 4, 1, 2, 3))


def _conv_adjoint(g, k, stride, padding, q, taps, shape):
    """Adjoint of ``_conv_fwd`` with identical geometry, returning the
    (B, Ci, D, H, W) array of ``shape``.

    ``g`` is ``_output_rows(y, q)``: the cotangent embedded in the phase
    grid of the conv input, zero outside the output.  Each tap adds its
    ``(n, Co) @ (Co, Ci)`` product in place into its phase of a
    channels-last canvas at the tap's row offset.  The phases are then
    interleaved and the padding cropped.  Rows that wrap across a grid edge
    carry zeros of the embedded ``y``, so they add nothing."""
    co, ci = k.shape[:2]
    n = g.shape[0] - taps[-1][1]
    kt = np.ascontiguousarray(k.reshape(co, ci, -1).transpose(2, 0, 1), dtype=g.dtype)
    canvas = np.zeros((math.prod(stride),) + g.shape[:1] + (ci,), dtype=g.dtype)
    gemm = get_blas_funcs("gemm", dtype=g.dtype)
    for t, (ph, off) in enumerate(taps):
        gemm(1.0, kt[t].T, g[:n].T, beta=1.0, c=canvas[ph, off:off + n].T,
             overwrite_c=True)
    return _from_phase_rows(canvas, stride, padding, q, shape)


def _conv_kernel_grad(xr, g, k_shape, taps):
    """Gradient of the conv bilinear form with respect to the kernel: one
    ``(Co, n) @ (n, Ci)`` GEMM per tap between the cotangent rows ``g``
    (``_output_rows``) and the tap's block of the phase rows ``xr`` of the
    input (``_to_phase_rows``).  Wrapped rows meet zeros of the embedded
    cotangent, so they add nothing."""
    co, ci = k_shape[:2]
    n = g.shape[0] - taps[-1][1]
    gk = np.zeros((len(taps), ci, co), dtype=xr.dtype)
    gemm = get_blas_funcs("gemm", dtype=xr.dtype)
    for t, (ph, off) in enumerate(taps):
        gemm(1.0, g[:n].T, xr[ph, off:off + n].T, trans_b=True, c=gk[t].T,
             overwrite_c=True)
    return np.ascontiguousarray(gk.transpose(2, 1, 0)).reshape(k_shape)


def conv_nd(x, kernel, stride=1, padding=0, bias=None):
    """Strided zero-padded cross-correlation.

    ``x``: (B, C_in, D, H, W); ``kernel``: (C_out, C_in, k_d, k_h, k_w);
    optional ``bias``: (C_out,).  Output extent per axis is
    floor((n + 2p - k)/s) + 1; the output has ``x``'s dtype.  Differentiable
    in input, kernel, and bias.  Computed as one channels-last GEMM per
    kernel tap over the stride phases of the padded input (see the module
    docstring); the backward builds the cotangent's phase rows once for the
    adjoint and kernel-gradient GEMMs, and skips the adjoint when ``x`` does
    not require grad.
    """
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    _check_conv_geometry(x.shape, kernel.shape, stride, padding)
    if x.shape[1] != kernel.shape[1]:
        raise ValueError(
            f"conv: input has {x.shape[1]} channels, kernel expects {kernel.shape[1]}")
    if bias is not None and bias.shape != (kernel.shape[0],):
        raise ValueError(f"conv: bias shape {bias.shape} != ({kernel.shape[0]},)")

    xd, kd = x.data, kernel.data
    k_shape = kernel.shape
    q, taps = _phase_layout(x.shape[2:], k_shape[2:], stride, padding)
    out_spatial = tuple(conv_output_extent(n, kk, s, p)
                        for n, kk, s, p in zip(x.shape[2:], k_shape[2:], stride, padding))
    out = _conv_fwd(_to_phase_rows(xd, stride, padding, q, taps), kd, q, taps, out_spatial)
    input_grad = x.requires_grad
    parents = (x, kernel)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1, 1)
        parents += (bias,)

    def bk(g):
        g = np.ascontiguousarray(g)
        gr = _output_rows(g, q)
        grads = ((_conv_adjoint(gr, kd, stride, padding, q, taps, xd.shape)
                  if input_grad else None),
                 _conv_kernel_grad(_to_phase_rows(xd, stride, padding, q, taps),
                                   gr, k_shape, taps))
        if bias is not None:
            grads += (g.sum(axis=(0, 2, 3, 4)),)
        return grads

    return make_node(out, parents, "conv_nd", bk)


def conv_transpose_nd(x, kernel, stride=1, padding=0, bias=None):
    """Transpose convolution: the exact adjoint of ``conv_nd`` with the same
    geometry.

    ``x``: (B, C_in, D, H, W); ``kernel``: (C_in, C_out, k_d, k_h, k_w);
    output extent per axis is (n - 1)*s + k - 2p.  The adjoint identity
    <conv(v), x> = <v, conv_transpose(x)> holds whenever the geometries match.
    The backward builds the cotangent's phase rows once for the conv and
    kernel-gradient GEMMs.
    """
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    _check_conv_geometry(x.shape, kernel.shape, stride, padding, transposed=True)
    if x.shape[1] != kernel.shape[0]:
        raise ValueError(
            f"conv_transpose: input has {x.shape[1]} channels, kernel expects {kernel.shape[0]}")
    if bias is not None and bias.shape != (kernel.shape[1],):
        raise ValueError(f"conv_transpose: bias shape {bias.shape} != ({kernel.shape[1]},)")
    out_spatial = tuple((n - 1) * s + k - 2 * p
                        for n, k, s, p in zip(x.shape[2:], kernel.shape[2:], stride, padding))
    if any(n < 1 for n in out_spatial):
        raise ValueError(f"conv_transpose: non-positive output extent {out_spatial}")

    xd, kd = x.data, kernel.data
    k_shape = kernel.shape
    q, taps = _phase_layout(out_spatial, k_shape[2:], stride, padding)
    out = _conv_adjoint(_output_rows(xd, q), kd, stride, padding, q, taps,
                        (x.shape[0], k_shape[1]) + out_spatial)
    parents = (x, kernel)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1, 1)
        parents += (bias,)

    def bk(g):
        g = np.ascontiguousarray(g)
        gr = _to_phase_rows(g, stride, padding, q, taps)
        grads = (_conv_fwd(gr, kd, q, taps, xd.shape[2:]),
                 _conv_kernel_grad(gr, _output_rows(xd, q), k_shape, taps))
        if bias is not None:
            grads += (g.sum(axis=(0, 2, 3, 4)),)
        return grads

    return make_node(out, parents, "conv_transpose_nd", bk)


# ---------------------------------------------------------------------------
# linear / normalization primitives
# ---------------------------------------------------------------------------

def linear(x, weight, bias=None):
    """Affine map along the last axis: x (..., in) -> (..., out), computed as
    ``x @ weight.T + bias`` in one tape node.

    ``weight`` is stored (out, in); ``bias`` is (out,).
    """
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"linear: input feature size {x.shape[-1]} != weight input size {weight.shape[1]}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ValueError(f"linear: bias shape {bias.shape} != ({weight.shape[0]},)")
    wd = weight.data
    x2 = x.data.reshape(-1, x.shape[-1])
    y = x2 @ wd.T
    parents = (x, weight)
    if bias is not None:
        y += bias.data
        parents += (bias,)

    def bk(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = ((g2 @ wd).reshape(x.shape), g2.T @ x2)
        if bias is not None:
            grads += (g2.sum(axis=0),)
        return grads

    return make_node(y.reshape(x.shape[:-1] + (wd.shape[0],)), parents, "linear", bk)


_NORM_EPS = 1e-5


def affine_norm(x, gamma, beta, axes):
    """gamma * (x - mean) / sqrt(var + _NORM_EPS) + beta on a (B,C,D,H,W) map,
    with mean and population variance over ``axes`` and per-channel
    ``gamma``/``beta`` of shape (C,).

    One tape node; the backward is the closed form of Ioffe & Szegedy (2015):
    with x^ the normalized input and h = g * gamma,
    dx = (h - mean(h) - x^ * mean(h * x^)) / sqrt(var + eps).
    """
    if x.ndim != 5 or gamma.shape != (x.shape[1],) or beta.shape != gamma.shape:
        raise ValueError(f"norm: expected (B,C,D,H,W) input with (C,) gamma and beta, "
                         f"got {x.shape}, {gamma.shape} and {beta.shape}")
    # in-place updates keep fewer full-size temporaries alive at once
    xhat = x.data - x.data.mean(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=axes, keepdims=True) + _NORM_EPS)
    xhat *= inv_std
    gd = gamma.data.reshape(1, -1, 1, 1, 1)
    out = xhat * gd
    out += beta.data.reshape(1, -1, 1, 1, 1)

    def bk(g):
        gx = g * xhat
        dgamma = gx.sum(axis=(0, 2, 3, 4))
        gx *= gd                                    # h * x^
        dx = g * gd                                 # h
        dx -= dx.mean(axis=axes, keepdims=True)
        dx -= xhat * gx.mean(axis=axes, keepdims=True)
        dx *= inv_std
        return dx, dgamma, g.sum(axis=(0, 2, 3, 4))

    return make_node(out, (x, gamma, beta), "affine_norm", bk)


class Linear(Module):
    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform(rng, (out_features, in_features), in_features, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x):
        return linear(x, self.weight, self.bias)



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

    def forward(self, x):
        return conv_nd(x, self.kernel, self.stride, self.padding, self.bias)



class ConvTranspose(Module):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding=0, bias=False, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        ks = _triple(kernel_size, "kernel_size")
        self.stride = _triple(stride, "stride")
        self.padding = _triple(padding, "padding")
        fan_in = in_channels * math.prod(ks)
        self.kernel = Parameter(
            kaiming_uniform(rng, (in_channels, out_channels) + ks, fan_in, dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype)) if bias else None

    def forward(self, x):
        return conv_transpose_nd(x, self.kernel, self.stride, self.padding, self.bias)



class ConvNormAct(Module):
    """Conv -> InstanceNorm -> ReLU."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding="same", rng=None, dtype=np.float32):
        self.conv = Conv(in_channels, out_channels, kernel_size, stride,
                         padding, bias=False, rng=rng, dtype=dtype)
        self.norm = InstanceNorm(out_channels, dtype=dtype)

    def forward(self, x):
        return self.norm(self.conv(x)).relu()



class ResidualConvBlock(Module):
    """Two Conv-IN-ReLU stages with a residual skip added before the final
    ReLU: y = relu(IN(conv2(relu(IN(conv1(x))))) + skip(x)).

    ``conv1`` carries the (optional) downsampling stride.  The skip path is
    the identity when shapes allow it, otherwise a strided 1x1x1
    projection followed by IN.
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
        h = self.norm1(self.conv1(x)).relu()
        h = self.norm2(self.conv2(h))
        s = x if self.proj is None else self.proj_norm(self.proj(x))
        return (h + s).relu()



class SeparableConvBlock(Module):
    """Decoder convolution split into an in-plane (1,3,3) stage and a
    through-plane (3,1,1) stage, IN + ReLU after each; 12 C^2 kernel weights
    versus 27 C^2 for a full 3x3x3 conv."""

    def __init__(self, channels, rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_plane = Conv(channels, channels, (1, 3, 3), 1, (0, 1, 1),
                             rng=rng, dtype=dtype)
        self.norm_ip = InstanceNorm(channels, dtype=dtype)
        self.through_plane = Conv(channels, channels, (3, 1, 1), 1, (1, 0, 0),
                                  rng=rng, dtype=dtype)
        self.norm_tp = InstanceNorm(channels, dtype=dtype)

    def forward(self, x):
        h = self.norm_ip(self.in_plane(x)).relu()
        return self.norm_tp(self.through_plane(h)).relu()
