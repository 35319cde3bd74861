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
  with an identity bypass at zero attention, plus the residual.
* ``TPMLP`` — the same segmentation applied along the depth axis.

``MLPPBlock`` stacks K pre-norm residual layers:
``u = x + fuse(ip(norm1(x)), aa(norm1(x)))`` then ``y = u + tp(norm2(u))``.
All pathway maps are affine, so zeroed weights make the block an exact
identity; nonlinearity enters through the attention product and the norms.

Every pathway is one ``mix``, the permute-MLP of ViP (Hou et al. 2021): a
copy of the map as token rows (``token_rows``, one rule for segments,
windows and channel rows), the pathway's ``Linear`` on the rows, and the
copy back, recorded as one tape node that can also sum its input maps and
add a residual; with the gate, a layer records 9 op nodes.
"""

import math

import numpy as np

from .autograd import Tensor, make_node
from .layers import ChannelNorm, Linear, Module

__all__ = [
    "IPMLP",
    "AAMLP",
    "TPMLP",
    "MLPPLayer",
    "MLPPBlock",
    "token_rows",
    "mix",
    "residual_attention_fuse",
]


# ---------------------------------------------------------------------------
# token views
# ---------------------------------------------------------------------------

def token_rows(shape, kind, L=None):
    """The view of a (B,C,D,H,W) map of ``shape`` as one row per token:
    ``(split, axes, rows)``, to view the map as ``split``, order its axes by
    ``axes`` (as ``np.transpose``) and read it row-major as ``rows``.  A token
    tiles the C, D, H and W axes, and its row reads the tile position-major
    (depth, height, width, then channel).  ``kind`` is

    * ``"D"``, ``"H"`` or ``"W"``: a segment of L positions along that axis
      with a group of g = C/L channels (a row of L*g = C), so element
      ``l*g + c`` is channel ``group*g + c`` at the segment's ``l``-th
      position; rows run over (batch, D, H, W, group);
    * ``"window"``: a per-channel L x L window of the (H, W) plane, flattened
      row-major; rows run over (batch, C, D, H, W);
    * ``"C"``: the channels of one position (``L`` unused); rows run over
      (batch, D, H, W).
    """
    B, C, D, H, W = shape
    if kind not in ("D", "H", "W", "window", "C"):
        raise ValueError(f"kind must be one of 'D', 'H', 'W', 'window', 'C', got {kind!r}")
    if kind in ("D", "H", "W") and C % L:
        raise ValueError(f"channels {C} not divisible by segment length {L} "
                         f"(channel group size g = C/L must be integral)")
    tiles = ({"H": L, "W": L} if kind == "window" else {"C": C} if kind == "C"
             else {"C": C // L, kind: L})
    split = [B]
    for axis, extent in zip("CDHW", (C, D, H, W)):
        t = tiles.get(axis, 1)
        if extent % t:
            raise ValueError(f"axis {axis} extent {extent} not divisible by {kind!r} tile {t}")
        split += [extent // t, t]
    # split holds batch, then (tile count, tile extent) for C, D, H and W;
    # a window's channel leads its row index, a segment's group ends it
    outer = (1, 3, 5, 7) if kind == "window" else (3, 5, 7, 1)
    row = math.prod(tiles.values())
    return tuple(split), (0, *outer, 4, 6, 8, 2), (B * C * D * H * W // row, row)


def _move(a, split, axes, shape):
    """``a`` viewed as ``split``, its axes ordered by ``axes``, read row-major
    as ``shape``."""
    # np.reshape copies a non-contiguous array before reinterpreting it
    return np.reshape(np.transpose(np.reshape(a, split), axes), shape)


def mix(x, fc, kind, L=None, skip=None):
    """One pathway: the ``Linear`` ``fc`` applied to every ``kind`` token row
    of ``x``, one map or a sequence of maps summed in order (see
    ``token_rows``), the result in ``x``'s layout plus ``skip`` if given.

    One tape node over the maps, ``fc.weight``, ``fc.bias`` and ``skip``.  Its
    backward moves the cotangent ``g`` into rows ``gr`` and returns ``gr @ W``
    moved back (for each map), ``gr.T @ xr``, the column sums of ``gr``, and
    ``g`` for ``skip``."""
    xs = (x,) if isinstance(x, Tensor) else tuple(x)
    skips = () if skip is None else (skip,)
    shape = xs[0].shape
    if any(t.shape != shape for t in xs + skips):
        raise ValueError(f"mix: map shapes {[t.shape for t in xs + skips]} differ")
    split, axes, rows = token_rows(shape, kind, L)
    moved = tuple(split[a] for a in axes)
    back = tuple(axes.index(a) for a in range(len(axes)))
    xr = _move(sum((t.data for t in xs[1:]), xs[0].data), split, axes, rows)
    out = _move(fc(xr), moved, back, shape)
    w = fc.weight.data

    def bk(g):
        gr = _move(g, split, axes, rows)
        return ((_move(gr @ w, moved, back, shape),) * len(xs)
                + (gr.T @ xr, gr.sum(axis=0)) + (g,) * len(skips))

    return make_node(out if skip is None else skip.data + out,
                     (*xs, fc.weight, fc.bias, *skips), "mix", bk)


def residual_attention_fuse(y_ip, y_a, skip):
    """Multiplicative residual attention plus its residual, elementwise:
    ``skip + (1 + y_a) * y_ip``, one node over ``(y_a, y_ip, skip)`` whose
    cotangents are ``g * y_ip``, ``g * (1 + y_a)`` and ``g``."""
    if not y_ip.shape == y_a.shape == skip.shape:
        raise ValueError(f"fuse: shapes {y_ip.shape}, {y_a.shape} and {skip.shape} differ")
    gate, ip = y_a.data + 1.0, y_ip.data
    return make_node(skip.data + gate * ip, (y_a, y_ip, skip), "attention_fuse",
                     lambda g: (g * ip, g * gate, g))


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
        self.l = l
        self.fc_h = Linear(channels, channels, rng=rng, dtype=dtype)
        self.fc_w = Linear(channels, channels, rng=rng, dtype=dtype)
        self.fc_c = Linear(channels, channels, rng=rng, dtype=dtype)
        self.fc_fuse = Linear(channels, channels, rng=rng, dtype=dtype)

    def forward(self, x):
        pathways = (mix(x, self.fc_h, "H", self.l), mix(x, self.fc_w, "W", self.l),
                    mix(x, self.fc_c, "C"))
        return mix(pathways, self.fc_fuse, "C")



class AAMLP(Module):
    """Auxiliary attention: per-channel L x L windows mapped by an
    L^2 x L^2 FC."""

    def __init__(self, l, rng=None, dtype=np.float32):
        self.l = l
        self.fc = Linear(l * l, l * l, rng=rng, dtype=dtype)

    def forward(self, x):
        return mix(x, self.fc, "window", self.l)



class TPMLP(Module):
    """Through-plane mixer: depth-axis token segmentation + FC."""

    def __init__(self, channels, l, rng=None, dtype=np.float32):
        self.l = l
        self.fc = Linear(channels, channels, rng=rng, dtype=dtype)

    def forward(self, x, skip=None):
        return mix(x, self.fc, "D", self.l, skip)



class MLPPLayer(Module):
    """One pre-norm residual MLPP layer:
    u = x + (1 + AA(norm1(x))) * IP(norm1(x));  y = u + TP(norm2(u))."""

    def __init__(self, channels, l_ip, l_tp, rng=None, dtype=np.float32):
        self.norm1 = ChannelNorm(channels, dtype=dtype)
        self.ip = IPMLP(channels, l_ip, rng=rng, dtype=dtype)
        self.aa = AAMLP(l_ip, rng=rng, dtype=dtype)
        self.norm2 = ChannelNorm(channels, dtype=dtype)
        self.tp = TPMLP(channels, l_tp, rng=rng, dtype=dtype)

    def forward(self, x):
        n1 = self.norm1(x)
        u = residual_attention_fuse(self.ip(n1), self.aa(n1), x)
        return self.tp(self.norm2(u), skip=u)



class MLPPBlock(Module):
    """K = ``num_layers`` sequential MLPP layers; output shape equals input
    shape.  ``l_ip`` and ``l_tp`` are the in-plane and through-plane segment
    lengths (``l_ip`` is also the attention window side); each must divide
    ``channels`` so every segment pairs with a whole channel group."""

    def __init__(self, channels, l_ip, l_tp, num_layers=2, rng=None, dtype=np.float32):
        for name, n in (("channels", channels), ("l_ip", l_ip), ("l_tp", l_tp),
                        ("num_layers", num_layers)):
            if n < 1:
                raise ValueError(f"{name} must be >= 1, got {n}")
        for name, l in (("l_ip", l_ip), ("l_tp", l_tp)):
            if channels % l:
                raise ValueError(
                    f"channels ({channels}) must be divisible by {name} ({l}) "
                    f"so each segment pairs with a whole channel group")
        self.l_ip = l_ip
        self.l_tp = l_tp
        self.mlpp_layers = [MLPPLayer(channels, l_ip, l_tp, rng=rng, dtype=dtype)
                            for _ in range(num_layers)]

    def forward(self, x):
        for layer in self.mlpp_layers:
            x = layer(x)
        return x
