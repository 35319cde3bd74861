"""Permutable MLP block for anisotropic volumes.

The block mixes features along one axis at a time with fully-connected
layers whose shapes are independent of the spatial resolution:

* ``IPMLP`` — in-plane mixer: vertical and horizontal *token segmentation*
  (length-L runs of positions paired with a g = C/L channel group, so every
  flattened segment has length L*g = C) plus a per-position channel FC; the
  three pathway outputs are summed and fused by one more channel FC:
  ``y = (Y_H + Y_W + Y_C) @ W_fuse``.
* ``AAMLP`` — auxiliary attention: per-channel L x L spatial windows mapped
  by an L^2 x L^2 FC.
* ``residual_attention_fuse`` — multiplicative gate ``(1 + y_a) * y_ip``
  with an identity bypass at zero attention.
* ``TPMLP`` — the same segmentation applied along the depth axis.

``MLPPBlock`` stacks K pre-norm residual layers:
``u = x + fuse(ip(norm1(x)), aa(norm1(x)))`` then ``y = u + tp(norm2(u))``.
All pathway maps are affine, so zeroed weights make the block an exact
identity; nonlinearity enters through the attention product and the norms.
Each segment or window view, and each channel FC's move of the channel
axis to the end and back, is one ``regroup`` tape node.
"""

from dataclasses import dataclass

import numpy as np

from .autograd import regroup
from .layers import ChannelNorm, Linear, Module

__all__ = [
    "MLPPConfig",
    "IPMLP",
    "AAMLP",
    "TPMLP",
    "MLPPLayer",
    "MLPPBlock",
    "segment_axis",
    "unsegment_axis",
    "partition_windows",
    "merge_windows",
    "residual_attention_fuse",
]


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MLPPConfig:
    """Hyperparameters of one MLPP stack.

    ``l_ip``/``l_tp`` are token-segment lengths (must divide the channel
    count so each segment pairs with a whole channel group); ``l_aa`` is the
    attention window side; ``num_layers`` is the stack depth K.
    """

    channels: int
    l_ip: int
    l_aa: int
    l_tp: int
    num_layers: int = 2

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        for name, l in (("l_ip", self.l_ip), ("l_aa", self.l_aa), ("l_tp", self.l_tp)):
            if l < 1:
                raise ValueError(f"{name} must be >= 1, got {l}")
        for name, l in (("l_ip", self.l_ip), ("l_tp", self.l_tp)):
            if self.channels % l:
                raise ValueError(
                    f"channels ({self.channels}) must be divisible by {name} ({l}) "
                    f"so each segment pairs with a whole channel group")


# ---------------------------------------------------------------------------
# view operations
# ---------------------------------------------------------------------------

# pre-split layouts put (groups, g) right after batch and split the chosen
# axis extent into (segments, L) in place; the permute brings rows into
# (batch, other-spatial..., segment, groups, L, g) order
_SEGMENT_PERMS = {"D": (0, 3, 5, 6, 1, 4, 2),
                  "H": (0, 3, 4, 6, 1, 5, 2),
                  "W": (0, 3, 4, 5, 1, 6, 2)}


def _segment_geometry(shape, axis, L):
    if axis not in _SEGMENT_PERMS:
        raise ValueError(f"axis must be one of 'D', 'H', 'W', got {axis!r}")
    B, C, D, H, W = shape
    extent = {"D": D, "H": H, "W": W}[axis]
    if extent % L:
        raise ValueError(f"axis {axis} extent {extent} not divisible by segment length {L}")
    if C % L:
        raise ValueError(f"channels {C} not divisible by segment length {L} "
                         f"(channel group size g = C/L must be integral)")
    g = C // L
    s = extent // L
    pre = {"D": (B, L, g, s, L, H, W),
           "H": (B, L, g, D, s, L, W),
           "W": (B, L, g, D, H, s, L)}[axis]
    return pre, _SEGMENT_PERMS[axis], g


def segment_axis(x, axis, L):
    """Token segmentation: rows of length L*g = C, one per (segment of L
    consecutive positions along ``axis``) x (channel group of g = C/L).

    Returns a (num_segments, C) tensor; ``unsegment_axis`` inverts it
    bitwise.  Row layout is position-major: element ``l*g + c`` of a row is
    channel ``group*g + c`` at the segment's ``l``-th position.
    """
    pre, perm, g = _segment_geometry(x.shape, axis, L)
    return regroup(x, pre, perm, (x.size // (L * g), L * g))


def unsegment_axis(rows, shape, axis, L):
    """Inverse of ``segment_axis`` for an original feature map ``shape``."""
    pre, perm, _ = _segment_geometry(shape, axis, L)
    return regroup(rows, tuple(pre[a] for a in perm), np.argsort(perm), shape)


def partition_windows(x, L):
    """Per-channel spatial windows of side L, flattened row-major to L^2.

    Window count is B*C*D*(H/L)*(W/L) — i.e. H*W*C/L^2 per (batch, depth)
    slice.
    """
    B, C, D, H, W = x.shape
    if H % L or W % L:
        raise ValueError(f"window side {L} must divide H={H} and W={W}")
    return regroup(x, (B, C, D, H // L, L, W // L, L), (0, 1, 2, 3, 5, 4, 6),
                   (B * C * D * (H // L) * (W // L), L * L))


def merge_windows(rows, shape, L):
    """Inverse of ``partition_windows``."""
    B, C, D, H, W = shape
    return regroup(rows, (B, C, D, H // L, W // L, L, L), (0, 1, 2, 3, 5, 4, 6),
                   shape)


def residual_attention_fuse(y_ip, y_a):
    """Multiplicative residual attention: (1 + y_a) * y_ip, elementwise."""
    if y_ip.shape != y_a.shape:
        raise ValueError(f"fuse: shapes {y_ip.shape} and {y_a.shape} differ")
    return (y_a + 1.0) * y_ip


def _channel_fc(x, fc):
    """Apply an FC over the channel axis of a (B,C,D,H,W) map."""
    B, C, D, H, W = x.shape
    y = fc(regroup(x, x.shape, (0, 2, 3, 4, 1), (B, D, H, W, C)))
    return regroup(y, y.shape, (0, 4, 1, 2, 3), (B, y.shape[-1], D, H, W))


# ---------------------------------------------------------------------------
# pathway modules
# ---------------------------------------------------------------------------

class IPMLP(Module):
    """In-plane mixer: y = (Y_H + Y_W + Y_C) @ W_fuse.

    Y_H / Y_W mix length-``l`` token segments along the vertical /
    horizontal axis (each flat segment has length l*g = C), Y_C is a
    per-position channel FC; all pathways are affine and share weights
    across batch, depth, and segments.
    """

    def __init__(self, channels, l, rng=None, dtype=np.float32):
        if channels % l:
            raise ValueError(f"channels ({channels}) must be divisible by l ({l})")
        self.l = l
        self.fc_h = Linear(channels, channels, rng=rng, dtype=dtype)
        self.fc_w = Linear(channels, channels, rng=rng, dtype=dtype)
        self.fc_c = Linear(channels, channels, rng=rng, dtype=dtype)
        self.fc_fuse = Linear(channels, channels, rng=rng, dtype=dtype)

    def forward(self, x):
        l = self.l
        y_h = unsegment_axis(self.fc_h(segment_axis(x, "H", l)), x.shape, "H", l)
        y_w = unsegment_axis(self.fc_w(segment_axis(x, "W", l)), x.shape, "W", l)
        y_c = _channel_fc(x, self.fc_c)
        return _channel_fc(y_h + y_w + y_c, self.fc_fuse)



class AAMLP(Module):
    """Auxiliary attention: per-channel L x L windows mapped by an
    L^2 x L^2 FC."""

    def __init__(self, l, rng=None, dtype=np.float32):
        self.l = l
        self.fc = Linear(l * l, l * l, rng=rng, dtype=dtype)

    def forward(self, x):
        rows = partition_windows(x, self.l)
        return merge_windows(self.fc(rows), x.shape, self.l)



class TPMLP(Module):
    """Through-plane mixer: depth-axis token segmentation + FC."""

    def __init__(self, channels, l, rng=None, dtype=np.float32):
        if channels % l:
            raise ValueError(f"channels ({channels}) must be divisible by l ({l})")
        self.l = l
        self.fc = Linear(channels, channels, rng=rng, dtype=dtype)

    def forward(self, x):
        rows = segment_axis(x, "D", self.l)
        return unsegment_axis(self.fc(rows), x.shape, "D", self.l)



class MLPPLayer(Module):
    """One pre-norm residual MLPP layer:
    u = x + (1 + AA(norm1(x))) * IP(norm1(x));  y = u + TP(norm2(u))."""

    def __init__(self, cfg, rng=None, dtype=np.float32):
        self.norm1 = ChannelNorm(cfg.channels, dtype=dtype)
        self.ip = IPMLP(cfg.channels, cfg.l_ip, rng=rng, dtype=dtype)
        self.aa = AAMLP(cfg.l_aa, rng=rng, dtype=dtype)
        self.norm2 = ChannelNorm(cfg.channels, dtype=dtype)
        self.tp = TPMLP(cfg.channels, cfg.l_tp, rng=rng, dtype=dtype)

    def forward(self, x):
        n1 = self.norm1(x)
        u = x + residual_attention_fuse(self.ip(n1), self.aa(n1))
        return u + self.tp(self.norm2(u))



class MLPPBlock(Module):
    """K sequential MLPP layers; output shape equals input shape."""

    def __init__(self, cfg, rng=None, dtype=np.float32):
        if cfg.channels < 1:
            raise ValueError(f"channels must be positive, got {cfg.channels}")
        self.cfg = cfg
        self.mlpp_layers = [MLPPLayer(cfg, rng=rng, dtype=dtype)
                            for _ in range(cfg.num_layers)]

    def forward(self, x):
        for layer in self.mlpp_layers:
            x = layer(x)
        return x
