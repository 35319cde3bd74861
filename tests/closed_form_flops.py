"""Closed-form FLOP counts of the MLP mixers.

``PHNet.count_flops`` is the network's FLOP counter; the closed forms here
are the oracles ``test_model`` and ``test_acceptance`` check it against.
Convention: one multiply-add = 2 FLOPs; only matrix-multiply-type work
(convolutions and fully-connected maps) is counted — normalization,
activation, and bias adds are excluded.
Closed forms for the MLP mixers (per batch element, per depth slice unless
noted):

* in-plane spatial pathway:  2*H*W*C^2      (every flat segment has length
  L*g = C, and there are H*W/L segments x C/g groups = H*W rows)
* full IP mixer (vertical + horizontal + channel + fusion): 8*H*W*C^2
* window attention:          2*H*W*C*L^2    (H*W*C/L^2 windows, L^2 x L^2 map)
* through-plane mixer:       2*D*H*W*C^2    (whole volume)
* flattened vanilla token mixer: 2*C*(H*W)^2 — quadratic in slice size,
  the baseline the segmented mixer's linear scaling is compared against.
"""


def ip_pathway_flops(h, w, c):
    """One spatial (vertical or horizontal) token-segment pathway."""
    return 2 * h * w * c * c


def ip_mlp_flops(h, w, c):
    """Full in-plane mixer: two spatial pathways + channel FC + fusion FC."""
    return 4 * ip_pathway_flops(h, w, c)


def aa_mlp_flops(h, w, c, l):
    """Per-channel window attention with an l^2 x l^2 map."""
    return 2 * h * w * c * l * l


def tp_mlp_flops(d, h, w, c):
    """Through-plane token-segment pathway over the whole volume."""
    return 2 * d * h * w * c * c


def vanilla_token_mixing_flops(h, w, c):
    """Token-mixing FC over a flattened H*W slice, applied per channel."""
    return 2 * c * (h * w) ** 2
