import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phnet.autograd import Tensor, backward, grad_check, make_node, mul, no_grad, trace
from phnet.layers import Linear
from phnet.mlpp import (
    AAMLP,
    IPMLP,
    MLPPBlock,
    MLPPLayer,
    TPMLP,
    mix,
    residual_attention_fuse,
    token_rows,
)


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def zero_fc_weights(module):
    with no_grad():
        for name, p in module.named_parameters():
            if ".fc" in name or name.startswith("fc"):
                p.data[...] = 0.0


def set_identity_fc(fc):
    with no_grad():
        fc.weight.data[...] = np.eye(fc.out_features)
        fc.bias.data[...] = 0.0


def identity_fc(width, dtype=np.float64):
    fc = Linear(width, width, dtype=dtype)
    set_identity_fc(fc)
    return fc


def row_width(shape, kind, L=None):
    return token_rows(shape, kind, L)[2][1]


# ---------------------------------------------------------------------------
# the oracle: a pathway as three tape nodes, a view, the FC and the inverse
# view, each with its own backward
# ---------------------------------------------------------------------------

def regroup(t, split, axes, shape):
    """View ``t`` as ``split``, reorder those axes by ``axes`` and read the
    result row-major as ``shape``; the backward applies the inverse move."""
    in_shape = t.shape
    moved = tuple(split[a] for a in axes)
    inv = tuple(np.argsort(axes))
    out = np.reshape(np.transpose(np.reshape(t.data, split), axes), shape)
    return make_node(out, (t,), "regroup",
                     lambda g: (np.reshape(np.transpose(np.reshape(g, moved), inv), in_shape),))


def linear_node(rows, weight, bias):
    """``rows @ W.T + b`` as a tape node of its own."""
    wd, xd = weight.data, rows.data
    y = xd @ wd.T
    y += bias.data
    return make_node(y, (rows, weight, bias), "linear",
                     lambda g: (g @ wd, g.T @ xd, g.sum(axis=0)))


def add(a, b):
    """``a + b`` as a tape node of its own."""
    return make_node(a.data + b.data, (a, b), "add", lambda g: (g, g))


def add_scalar(t, c):
    """``t + c`` for a python scalar ``c``, as a tape node of its own."""
    return make_node(t.data + c, (t,), "add_scalar", lambda g: (g,))


def three_node_mix(x, fc, kind, L=None):
    split, axes, rows = token_rows(x.shape, kind, L)
    y = linear_node(regroup(x, split, axes, rows), fc.weight, fc.bias)
    return regroup(y, tuple(split[a] for a in axes), np.argsort(axes), x.shape)


def rows_of(x, kind, L=None):
    """The ``kind`` token rows of array ``x``: the rows ``mix`` maps."""
    return regroup(Tensor(x), *token_rows(x.shape, kind, L)).data


def value_and_grads(pathway, x, kind, L, dtype, seed):
    """``pathway(x, fc, kind, L)`` for an FC with random weight and bias, and
    the gradients in x, weight and bias of a random-weighted sum of it."""
    rng = np.random.default_rng(seed)
    width = row_width(x.shape, kind, L)
    fc = Linear(width, width, rng=rng, dtype=dtype)
    fc.bias.data[...] = rng.normal(size=width)
    xt = Tensor(x.astype(dtype), requires_grad=True)
    out = pathway(xt, fc, kind, L)
    backward((out * Tensor(rng.normal(size=x.shape).astype(dtype))).sum())
    return out.data, xt.grad, fc.weight.grad, fc.bias.grad


def assert_matches_three_node_mix(x, kind, L, dtype, seed):
    got = value_and_grads(mix, x, kind, L, dtype, seed)
    want = value_and_grads(three_node_mix, x, kind, L, dtype, seed)
    for name, a, b in zip(("value", "x grad", "weight grad", "bias grad"), got, want):
        assert a.dtype == dtype and np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# segmentation views
# ---------------------------------------------------------------------------

def test_segment_row_geometry_horizontal():
    # H=W=4, C=4, L=2: g=2, 8 segments per slice, 2 channel groups each
    rows = rows_of(rand((1, 4, 1, 4, 4), seed=0), "W", 2)
    segments_per_slice = 4 * 4 // 2
    groups = 4 // 2
    assert rows.shape == (segments_per_slice * groups, 4)


def test_segment_row_geometry_depth():
    # D=8, L=2, H=W=2, C=4: depth segment count HWD/L = 16, g=2 channel groups
    rows = rows_of(rand((1, 4, 8, 2, 2), seed=1), "D", 2)
    segments = 2 * 2 * 8 // 2
    groups = 4 // 2
    assert rows.shape == (segments * groups, 2 * 2)


@pytest.mark.parametrize("axis", ["D", "H", "W"])
def test_segment_roundtrip_bitwise(axis):
    x = rand((2, 6, 6, 6, 6), seed=2)
    for L in (1, 2, 3):
        back = mix(Tensor(x), identity_fc(6), axis, L)
        assert np.array_equal(back.data, x)


def test_segment_row_layout_position_major():
    # row element l*g + c is channel group*g + c at the segment's l-th position
    B, C, D, H, W = 1, 4, 1, 2, 4
    L, g = 2, 2
    x = np.arange(B * C * D * H * W, dtype=np.float64).reshape(B, C, D, H, W)
    rows = rows_of(x, "W", L)
    # first row: batch 0, d 0, h 0, segment 0 (w in {0,1}), group 0 (c in {0,1})
    want_first = [x[0, 0, 0, 0, 0], x[0, 1, 0, 0, 0], x[0, 0, 0, 0, 1], x[0, 1, 0, 0, 1]]
    np.testing.assert_array_equal(rows[0], want_first)


def test_segment_divisibility_errors():
    with pytest.raises(ValueError):
        token_rows((1, 4, 4, 4, 4), "W", 3)  # W=4 not divisible
    with pytest.raises(ValueError):
        token_rows((1, 3, 4, 4, 4), "W", 2)  # C=3 not divisible
    with pytest.raises(ValueError):
        token_rows((1, 4, 4, 4, 4), "Q", 2)


@pytest.mark.parametrize("kind, L", [("D", 2), ("H", 2), ("W", 2), ("window", 2), ("C", None)])
def test_mix_gradients_match_finite_differences(kind, L):
    # each of the node's three inputs, the other two held
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, 2, 4, 4))
    width = row_width(x.shape, kind, L)
    fc = Linear(width, width, rng=rng, dtype=np.float64)
    inputs = {"x": x, "weight": rng.normal(size=(width, width)), "bias": rng.normal(size=width)}
    probe = Tensor(rng.normal(size=x.shape))
    for wrt in inputs:
        def f(t, wrt=wrt):
            held = {name: Tensor(v) for name, v in inputs.items()}
            held[wrt] = t
            fc.weight, fc.bias = held["weight"], held["bias"]
            return (mix(held["x"], fc, kind, L) * probe).sum()

        assert grad_check(f, Tensor(inputs[wrt]), h=1e-5) < 1e-6, wrt


# ---------------------------------------------------------------------------
# window partition
# ---------------------------------------------------------------------------

def test_window_count_formula():
    # H=W=4, C=2, L=2: HWC/L^2 = 8 windows per (batch, depth) slice
    assert rows_of(rand((1, 2, 1, 4, 4), seed=4), "window", 2).shape == (8, 4)


def test_window_roundtrip_bitwise():
    x = rand((2, 3, 2, 6, 4), seed=5)
    back = mix(Tensor(x), identity_fc(4), "window", 2)
    assert np.array_equal(back.data, x)


def test_window_layout_row_major():
    rows = rows_of(np.arange(16.0).reshape(1, 1, 1, 4, 4), "window", 2)
    np.testing.assert_array_equal(rows[0], [0.0, 1.0, 4.0, 5.0])
    np.testing.assert_array_equal(rows[1], [2.0, 3.0, 6.0, 7.0])


def test_window_divisibility_error():
    with pytest.raises(ValueError):
        token_rows((1, 1, 1, 4, 5), "window", 2)


# ---------------------------------------------------------------------------
# channel rows and the pathway
# ---------------------------------------------------------------------------

def test_channel_rows_are_positions_in_batch_depth_height_width_order():
    x = rand((2, 3, 2, 3, 4), seed=36)
    np.testing.assert_array_equal(rows_of(x, "C"), np.moveaxis(x, 1, -1).reshape(-1, 3))
    assert np.array_equal(mix(Tensor(x), identity_fc(3), "C").data, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, L", [("D", 2), ("H", 2), ("W", 2), ("window", 2), ("C", None)])
def test_mix_is_one_node_matching_the_three_node_composition(kind, L, dtype):
    # the value and the x, weight and bias gradients, bitwise
    x = rand((2, 4, 2, 4, 6), seed=37)
    assert_matches_three_node_mix(x, kind, L, dtype, seed=38)
    fc = Linear(row_width(x.shape, kind, L), row_width(x.shape, kind, L))
    out = mix(Tensor(x, requires_grad=True), fc, kind, L)
    assert [n._op for n in trace(out) if n._parents] == ["mix"]
    assert out._parents[1:] == (fc.weight, fc.bias)


def test_mix_runs_the_fc_once_on_the_token_rows():
    x = rand((1, 4, 2, 4, 4), seed=39)
    fc = Linear(4, 4, rng=np.random.default_rng(40), dtype=np.float64)
    seen = []
    forward = fc.forward
    fc.forward = lambda rows: seen.append(rows) or forward(rows)
    out = mix(Tensor(x), fc, "H", 2)
    assert len(seen) == 1 and np.array_equal(seen[0], rows_of(x, "H", 2))
    assert np.array_equal(rows_of(out.data, "H", 2),
                          seen[0] @ fc.weight.data.T + fc.bias.data)


SUMMED_INPUTS = ("first", "second", "third", "skip")


def summed_mix_value_and_grads(pathway, shape, kind, L, dtype, seed):
    """``pathway(maps, fc, skip)`` for three random maps, a random skip and
    an FC with random weight and bias, and the gradients in the four maps,
    the weight and the bias of a random-weighted sum of it."""
    rng = np.random.default_rng(seed)
    width = row_width(shape, kind, L)
    fc = Linear(width, width, rng=rng, dtype=dtype)
    fc.bias.data[...] = rng.normal(size=width)
    maps = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
            for _ in SUMMED_INPUTS]
    out = pathway(maps[:3], fc, maps[3])
    backward((out * Tensor(rng.normal(size=shape).astype(dtype))).sum())
    return [out.data] + [t.grad for t in maps] + [fc.weight.grad, fc.bias.grad]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, L", [("D", 2), ("H", 2), ("window", 2), ("C", None)])
def test_mix_of_summed_maps_plus_skip_matches_separate_add_nodes(kind, L, dtype):
    # the parent network's IP sum and TP residual: each add a node of its own
    shape = (2, 4, 2, 4, 6)
    got = summed_mix_value_and_grads(
        lambda xs, fc, skip: mix(xs, fc, kind, L, skip=skip), shape, kind, L, dtype, 49)
    want = summed_mix_value_and_grads(
        lambda xs, fc, skip: add(skip, three_node_mix(add(add(*xs[:2]), xs[2]), fc, kind, L)),
        shape, kind, L, dtype, 49)
    names = ("value", *SUMMED_INPUTS, "weight grad", "bias grad")
    for name, a, b in zip(names, got, want):
        assert a.dtype == dtype and np.array_equal(a, b), name


def test_mix_of_summed_maps_plus_skip_is_one_node():
    maps = [Tensor(rand((1, 4, 2, 4, 4), seed=s), requires_grad=True) for s in (50, 51, 52)]
    fc = Linear(4, 4, dtype=np.float64)
    out = mix(maps[:2], fc, "W", 2, skip=maps[2])
    assert [n._op for n in trace(out) if n._parents] == ["mix"]
    assert out._parents == (maps[0], maps[1], fc.weight, fc.bias, maps[2])
    with pytest.raises(ValueError):
        mix([maps[0], Tensor(np.zeros((1, 4, 2, 4, 2)))], fc, "W", 2)
    with pytest.raises(ValueError):
        mix(maps[0], fc, "W", 2, skip=Tensor(np.zeros((1, 4, 2, 4, 2))))


@pytest.mark.parametrize("wrt", SUMMED_INPUTS)
def test_mix_gradients_in_summed_maps_and_skip_match_finite_differences(wrt):
    rng = np.random.default_rng(53)
    inputs = {name: rng.normal(size=(1, 4, 2, 4, 4)) for name in SUMMED_INPUTS}
    fc = Linear(4, 4, rng=rng, dtype=np.float64)
    probe = Tensor(rng.normal(size=(1, 4, 2, 4, 4)))

    def f(t):
        held = {name: Tensor(v) for name, v in inputs.items()}
        held[wrt] = t
        return (mix([held[n] for n in SUMMED_INPUTS[:3]], fc, "H", 2, skip=held["skip"])
                * probe).sum()

    assert grad_check(f, Tensor(inputs[wrt]), h=1e-5) < 1e-5


# ---------------------------------------------------------------------------
# generated geometries
# ---------------------------------------------------------------------------

def feature_map(draw, channels, spatial):
    shape = (draw(st.integers(1, 2)), channels) + tuple(spatial)
    return np.random.default_rng(draw(st.integers(0, 2 ** 16))).normal(size=shape)


@given(st.data(), st.sampled_from("DHW"), st.integers(1, 3), st.integers(1, 3))
def test_generated_segment_roundtrip_bitwise(data, axis, L, g):
    extents = [data.draw(st.integers(1, 4)) for _ in range(3)]
    extents["DHW".index(axis)] = L * data.draw(st.integers(1, 3))
    x = feature_map(data.draw, L * g, extents)
    back = mix(Tensor(x), identity_fc(L * g), axis, L)
    assert np.array_equal(back.data, x)


@given(st.data(), st.integers(1, 3))
def test_generated_window_roundtrip_bitwise(data, L):
    spatial = (data.draw(st.integers(1, 3)), L * data.draw(st.integers(1, 3)),
               L * data.draw(st.integers(1, 3)))
    x = feature_map(data.draw, data.draw(st.integers(1, 3)), spatial)
    back = mix(Tensor(x), identity_fc(L * L), "window", L)
    assert np.array_equal(back.data, x)


@given(st.data(), st.sampled_from(["D", "H", "W", "window", "C"]), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]))
def test_generated_mix_matches_the_three_node_composition(data, kind, L, dtype):
    # segments take C = L*g channels and an axis of whole segments; windows
    # whole L x L tiles of the plane; channel rows any map
    segment = kind in ("D", "H", "W")
    channels = L * data.draw(st.integers(1, 3)) if segment else data.draw(st.integers(1, 4))
    extents = [data.draw(st.integers(1, 3)) for _ in range(3)]
    for axis in {"D": "D", "H": "H", "W": "W", "window": "HW", "C": ""}[kind]:
        extents["DHW".index(axis)] *= L
    x = feature_map(data.draw, channels, extents)
    assert_matches_three_node_mix(x, kind, L, dtype, seed=data.draw(st.integers(0, 2 ** 16)))


# ---------------------------------------------------------------------------
# IP-MLP
# ---------------------------------------------------------------------------

def test_ip_mlp_zero_weights_zero_output():
    ip = IPMLP(4, 2, dtype=np.float64)
    zero_fc_weights(ip)
    out = ip(Tensor(rand((1, 4, 2, 4, 4), seed=6)))
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_ip_mlp_channel_identity_pathway_bitwise():
    # W_h = W_w = 0, W_c = I, W_fuse = I, zero biases -> y = x
    ip = IPMLP(4, 2, dtype=np.float64)
    zero_fc_weights(ip)
    set_identity_fc(ip.fc_c)
    set_identity_fc(ip.fc_fuse)
    x = rand((2, 4, 2, 4, 4), seed=7)
    out = ip(Tensor(x))
    assert np.array_equal(out.data, x)


def test_ip_mlp_horizontal_dense_row_oracle():
    # L = W: one horizontal segment per (row, channel group); with C = L the
    # groups are single channels, so the pathway is a dense per-row map
    H = W = C = L = 4
    ip = IPMLP(C, L, rng=np.random.default_rng(8), dtype=np.float64)
    zero_fc_weights(ip)
    rng = np.random.default_rng(9)
    Wmat = rng.normal(size=(C, C))
    bias = rng.normal(size=C)
    with no_grad():
        ip.fc_w.weight.data[...] = Wmat
        ip.fc_w.bias.data[...] = bias
    set_identity_fc(ip.fc_fuse)

    x = rng.normal(size=(1, C, 2, H, W))
    got = ip(Tensor(x)).data

    want = np.zeros_like(x)
    for d in range(2):
        for h in range(H):
            for c in range(C):  # g = C/L = 1: group == channel
                row = x[0, c, d, h, :]
                want[0, c, d, h, :] = Wmat @ row + bias
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_ip_mlp_shares_weights_across_resolutions():
    ip = IPMLP(4, 2, rng=np.random.default_rng(10), dtype=np.float64)
    n_params = sum(p.size for p in ip.parameters())
    out_small = ip(Tensor(rand((1, 4, 2, 4, 4), seed=11)))
    out_large = ip(Tensor(rand((1, 4, 4, 8, 8), seed=12)))
    assert out_small.shape == (1, 4, 2, 4, 4)
    assert out_large.shape == (1, 4, 4, 8, 8)
    assert sum(p.size for p in ip.parameters()) == n_params


def test_ip_mlp_vertical_locality():
    # horizontal pathway zeroed; vertical output at (h,w,c) depends only on
    # h's segment and c's channel group
    C, L = 4, 2
    g = C // L
    ip = IPMLP(C, L, rng=np.random.default_rng(13), dtype=np.float64)
    zero_fc_weights(ip)
    with no_grad():
        ip.fc_h.weight.data[...] = np.random.default_rng(14).normal(size=(C, C))
    set_identity_fc(ip.fc_fuse)

    rng = np.random.default_rng(15)
    x = rng.normal(size=(1, C, 1, 4, 4))
    base = ip(Tensor(x)).data
    h0, w0, c0 = 1, 2, 3
    seg0, grp0 = h0 // L, c0 // g
    for _ in range(25):
        hp = int(rng.integers(0, 4))
        wp = int(rng.integers(0, 4))
        cp = int(rng.integers(0, C))
        pert = x.copy()
        pert[0, cp, 0, hp, wp] += rng.normal()
        out = ip(Tensor(pert)).data
        same_segment = (hp // L == seg0) and (cp // g == grp0) and (wp == w0)
        if not same_segment:
            assert out[0, c0, 0, h0, w0] == base[0, c0, 0, h0, w0]


# ---------------------------------------------------------------------------
# AA-MLP
# ---------------------------------------------------------------------------

def test_aa_mlp_identity_bitwise():
    aa = AAMLP(2, dtype=np.float64)
    set_identity_fc(aa.fc)
    x = rand((1, 3, 2, 4, 4), seed=16)
    out = aa(Tensor(x))
    assert np.array_equal(out.data, x)


def test_aa_mlp_matches_window_loop_oracle():
    L = 2
    aa = AAMLP(L, rng=np.random.default_rng(17), dtype=np.float64)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 3, 2, 4, 6))
    got = aa(Tensor(x)).data

    Wmat = aa.fc.weight.data
    bias = aa.fc.bias.data
    want = np.zeros_like(x)
    B, C, D, H, W = x.shape
    for b in range(B):
        for c in range(C):
            for d in range(D):
                for hs in range(H // L):
                    for ws in range(W // L):
                        win = x[b, c, d, hs * L:(hs + 1) * L, ws * L:(ws + 1) * L]
                        flat = Wmat @ win.reshape(L * L) + bias
                        want[b, c, d, hs * L:(hs + 1) * L,
                             ws * L:(ws + 1) * L] = flat.reshape(L, L)
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# residual attention fuse
# ---------------------------------------------------------------------------

def test_fuse_zero_attention_identity_bitwise():
    y_ip = rand((1, 2, 3, 4, 4), seed=19)
    zeros = Tensor(np.zeros_like(y_ip))
    out = residual_attention_fuse(Tensor(y_ip), zeros, zeros)
    assert np.array_equal(out.data, y_ip)


def test_fuse_unit_attention_doubles():
    y_ip = rand((2, 2, 2, 2, 2), seed=20)
    out = residual_attention_fuse(Tensor(y_ip), Tensor(np.ones_like(y_ip)),
                                  Tensor(np.zeros_like(y_ip)))
    np.testing.assert_array_equal(out.data, 2.0 * y_ip)


def test_fuse_matches_elementwise_oracle_bitwise():
    # one node over (y_a, y_ip, skip)
    y_ip, y_a, x = (rand((1, 3, 2, 4, 4), seed=s) for s in (21, 22, 23))
    inputs = [Tensor(v, requires_grad=True) for v in (y_ip, y_a, x)]
    out = residual_attention_fuse(*inputs)
    assert np.array_equal(out.data, x + (y_a + 1.0) * y_ip)
    assert [n._op for n in trace(out) if n._parents] == ["attention_fuse"]
    assert out._parents == (inputs[1], inputs[0], inputs[2])


def test_fuse_shape_mismatch():
    for bad in range(3):
        shapes = [(1, 2, 2, 2, 2)] * 3
        shapes[bad] = (1, 2, 2, 2, 3)
        with pytest.raises(ValueError):
            residual_attention_fuse(*(Tensor(np.zeros(s)) for s in shapes))


@pytest.mark.parametrize("wrt", ["y_ip", "y_a", "skip"])
def test_fuse_gradients_match_finite_differences(wrt):
    # each of the node's three inputs, the other two held
    rng = np.random.default_rng(24)
    inputs = {name: rng.normal(size=(1, 2, 2, 3, 3)) for name in ("y_ip", "y_a", "skip")}
    probe = Tensor(rng.normal(size=(1, 2, 2, 3, 3)))

    def f(t):
        held = {name: Tensor(v) for name, v in inputs.items()}
        held[wrt] = t
        return (residual_attention_fuse(held["y_ip"], held["y_a"], held["skip"])
                * probe).sum()

    assert grad_check(f, Tensor(inputs[wrt]), h=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# TP-MLP
# ---------------------------------------------------------------------------

def test_tp_mlp_identity_bitwise():
    tp = TPMLP(4, 2, dtype=np.float64)
    set_identity_fc(tp.fc)
    x = rand((1, 4, 4, 3, 3), seed=23)
    out = tp(Tensor(x))
    assert np.array_equal(out.data, x)


def test_tp_mlp_zero_weights():
    tp = TPMLP(4, 2, dtype=np.float64)
    zero_fc_weights(tp)
    out = tp(Tensor(rand((1, 4, 4, 2, 2), seed=24)))
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_tp_mlp_depth_locality():
    # perturbing depth d changes output only inside d's segment / group
    C, L = 4, 2
    g = C // L
    tp = TPMLP(C, L, rng=np.random.default_rng(25), dtype=np.float64)
    rng = np.random.default_rng(26)
    x = rng.normal(size=(1, C, 6, 2, 2))
    base = tp(Tensor(x)).data
    for _ in range(25):
        dp = int(rng.integers(0, 6))
        cp = int(rng.integers(0, C))
        hp, wp = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        pert = x.copy()
        pert[0, cp, dp, hp, wp] += rng.normal()
        out = tp(Tensor(pert)).data
        diff = out != base
        changed = np.argwhere(diff)
        for (_, c, d, h, w) in changed:
            assert d // L == dp // L
            assert c // g == cp // g
            assert (h, w) == (hp, wp)


# ---------------------------------------------------------------------------
# MLPP layer / block
# ---------------------------------------------------------------------------

CFG = dict(channels=8, l_ip=2, l_tp=2, num_layers=2)


def test_block_validation():
    with pytest.raises(ValueError):
        MLPPBlock(channels=6, l_ip=4, l_tp=2)
    with pytest.raises(ValueError):
        MLPPBlock(channels=6, l_ip=2, l_tp=4)
    with pytest.raises(ValueError):
        MLPPBlock(channels=8, l_ip=2, l_tp=2, num_layers=0)
    with pytest.raises(ValueError):
        MLPPBlock(channels=8, l_ip=0, l_tp=2)


def test_block_zero_fc_weights_is_identity_bitwise():
    blk = MLPPBlock(**CFG, rng=np.random.default_rng(27), dtype=np.float64)
    zero_fc_weights(blk)
    x = rand((1, 8, 2, 4, 4), seed=28)
    out = blk(Tensor(x))
    assert np.array_equal(out.data, x)


def test_block_output_shape_matches_input():
    blk = MLPPBlock(**CFG, rng=np.random.default_rng(29))
    for shape in [(1, 8, 2, 4, 4), (2, 8, 4, 8, 8), (1, 8, 2, 8, 4)]:
        x = Tensor(rand(shape, seed=30).astype(np.float32))
        assert blk(x).shape == shape


def test_block_divisibility_errors():
    blk = MLPPBlock(**CFG)
    with pytest.raises(ValueError):
        blk(Tensor(np.zeros((1, 8, 3, 4, 4), dtype=np.float32)))  # D % l_tp
    with pytest.raises(ValueError):
        blk(Tensor(np.zeros((1, 8, 2, 5, 4), dtype=np.float32)))  # H % l_ip
    with pytest.raises(ValueError):
        blk(Tensor(np.zeros((1, 4, 2, 4, 4), dtype=np.float32)))  # channels


def test_block_gradient_check():
    blk = MLPPBlock(**CFG, rng=np.random.default_rng(31), dtype=np.float64)
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(1, 8, 2, 4, 4)))
    probe = Tensor(rng.normal(size=(1, 8, 2, 4, 4)))

    def f(t):
        return (blk(t) * probe).sum()

    assert grad_check(f, x, h=1e-5) < 1e-5


def test_layer_wiring_matches_formula():
    # u = x + (1 + AA(n1)) * IP(n1); y = u + TP(norm2(u))
    layer = MLPPLayer(8, 2, 2, rng=np.random.default_rng(33), dtype=np.float64)
    x = Tensor(rand((1, 8, 2, 4, 4), seed=34))
    n1 = layer.norm1(x)
    u = x.data + (1.0 + layer.aa(n1).data) * layer.ip(n1).data
    ut = Tensor(u)
    want = u + layer.tp(layer.norm2(ut)).data
    np.testing.assert_allclose(layer(x).data, want, atol=1e-12)


def generic_node_layer(layer, x):
    """``layer``'s forward with the IP sum, the attention gate and both
    residual adds as generic nodes (four ``add``, one ``add_scalar`` and one
    ``mul``) around its six ``mix`` pathways."""
    n1 = layer.norm1(x)
    ip = layer.ip
    y_h = mix(n1, ip.fc_h, "H", ip.l)
    y_w = mix(n1, ip.fc_w, "W", ip.l)
    y_ip = mix(add(add(y_h, y_w), mix(n1, ip.fc_c, "C")), ip.fc_fuse, "C")
    u = add(x, mul(add_scalar(layer.aa(n1), 1.0), y_ip))
    return add(u, layer.tp(layer.norm2(u)))


def layer_value_and_grads(forward, x, l_ip, l_tp, seed):
    """``forward(layer, x)`` for a layer with random parameters, and the
    gradients in x and in every parameter of a random-weighted sum of it."""
    rng = np.random.default_rng(seed)
    layer = MLPPLayer(x.shape[1], l_ip, l_tp, dtype=x.dtype)
    with no_grad():
        for p in layer.parameters():
            p.data[...] = rng.normal(size=p.shape)
    xt = Tensor(x, requires_grad=True)
    out = forward(layer, xt)
    backward((out * Tensor(rng.normal(size=x.shape).astype(x.dtype))).sum())
    return ([("value", out.data), ("x grad", xt.grad)]
            + [(name, p.grad) for name, p in layer.named_parameters()])


def assert_layer_matches_generic_nodes(x, l_ip, l_tp, seed):
    got = layer_value_and_grads(MLPPLayer.forward, x, l_ip, l_tp, seed)
    want = layer_value_and_grads(generic_node_layer, x, l_ip, l_tp, seed)
    assert [name for name, _ in got] == [name for name, _ in want]
    # the value's layout too: the next ChannelNorm sums in its memory order
    assert got[0][1].strides == want[0][1].strides
    for (name, a), (_, b) in zip(got, want):
        assert a.dtype == x.dtype and np.array_equal(a, b), name


def non_contiguous(shape, seed, dtype):
    """A map of ``shape`` whose H and W axes are swapped in memory."""
    b, c, d, h, w = shape
    return np.swapaxes(rand((b, c, d, w, h), seed).astype(dtype), 3, 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["contiguous", "non-contiguous"])
@pytest.mark.parametrize("l_ip, l_tp, shape", [
    (2, 2, (2, 8, 4, 4, 6)),
    (2, 1, (2, 8, 3, 4, 4)),     # isotropic: depth segments of 1
    (3, 2, (1, 6, 2, 6, 3)),
])
def test_layer_matches_the_generic_node_layer_bitwise(l_ip, l_tp, shape, layout, dtype):
    x = (rand(shape, seed=54).astype(dtype) if layout == "contiguous"
         else non_contiguous(shape, 54, dtype))
    assert_layer_matches_generic_nodes(x, l_ip, l_tp, seed=55)


@given(st.data(), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.booleans())
def test_generated_layer_matches_the_generic_node_layer_bitwise(data, l_ip, l_tp, dtype,
                                                                 swapped):
    channels = math.lcm(l_ip, l_tp) * data.draw(st.integers(1, 2))
    shape = (data.draw(st.integers(1, 2)), channels, l_tp * data.draw(st.integers(1, 2)),
             l_ip * data.draw(st.integers(1, 2)), l_ip * data.draw(st.integers(1, 2)))
    seed = data.draw(st.integers(0, 2 ** 16))
    x = non_contiguous(shape, seed, dtype) if swapped else rand(shape, seed).astype(dtype)
    assert_layer_matches_generic_nodes(x, l_ip, l_tp, seed=seed + 1)


def test_layer_records_nine_op_nodes():
    # two norms, six pathways and one gate; no generic node
    layer = MLPPLayer(8, 2, 2, rng=np.random.default_rng(56), dtype=np.float64)
    out = layer(Tensor(rand((1, 8, 2, 4, 4), seed=57), requires_grad=True))
    ops = sorted(n._op for n in trace(out) if n._parents)
    assert ops == ["affine_norm"] * 2 + ["attention_fuse"] + ["mix"] * 6


def test_block_parameter_count_resolution_independent():
    blk = MLPPBlock(**CFG, rng=np.random.default_rng(35))
    n = sum(p.size for p in blk.parameters())
    # C=8: per layer 4 C^2 FCs (IP) + 1 (TP) + (L^2)^2 AA + biases + 2 norms
    per_layer = 5 * (64 + 8) + (16 + 4) + 2 * 16
    assert n == 2 * per_layer
    blk(Tensor(np.zeros((1, 8, 4, 8, 8), dtype=np.float32)))
    assert sum(p.size for p in blk.parameters()) == n
