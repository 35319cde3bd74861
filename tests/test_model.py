import dataclasses
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phnet.autograd import Tensor, backward, grad_check, no_grad, trace
from phnet import layers
from phnet.layers import ChannelNorm, Conv, ConvTranspose, InstanceNorm, Linear
from phnet.metrics import dice_ce_loss
from phnet.mlpp import MLPPLayer
from phnet.model import (
    PHNet,
    PHNetConfig,
    StagePlan,
    config_to_dict,
    count_params,
    hwd_to_dhw,
    net_from_checkpoint,
    plan_stages,
    save_checkpoint,
)

from closed_form_flops import ip_mlp_flops, vanilla_token_mixing_flops

ANISO = PHNetConfig(num_stages=4, base_channels=8, max_channels=64, num_classes=3,
                    voxel_spacing_mm=(1.0, 1.0, 4.0), patch_size=(32, 32, 16))


# ---------------------------------------------------------------------------
# plan_stages
# ---------------------------------------------------------------------------

def test_plan_anisotropic_clinical_spacing():
    # spacing ratio 5.00/0.74 = 6.757, log2 = 2.756, round -> 3 2D stages
    cfg = PHNetConfig(num_stages=5, voxel_spacing_mm=(0.74, 0.74, 5.0),
                      patch_size=(64, 64, 16), mlpp_stages=())
    plan = plan_stages(cfg)
    modes = [p.mode for p in plan]
    assert modes == ["conv2d", "conv2d", "conv2d", "conv3d", "conv3d"]
    assert plan[0].stride == (1, 2, 2) and plan[0].kernel == (1, 3, 3)
    assert plan[3].stride == (2, 2, 2) and plan[3].kernel == (3, 3, 3)


def test_plan_isotropic_all_3d():
    cfg = PHNetConfig(num_stages=4, voxel_spacing_mm=(1.0, 1.0, 1.0),
                      patch_size=(16, 16, 16), mlpp_stages=())
    assert all(p.mode == "conv3d" for p in plan_stages(cfg))


def test_plan_channel_doubling_with_cap():
    cfg = PHNetConfig(num_stages=5, base_channels=16, max_channels=256,
                      patch_size=(32, 32, 32), mlpp_stages=())
    assert [p.channels_out for p in plan_stages(cfg)] == [16, 32, 64, 128, 256]
    capped = PHNetConfig(num_stages=5, base_channels=16, max_channels=100,
                         patch_size=(32, 32, 32), mlpp_stages=())
    assert [p.channels_out for p in plan_stages(capped)] == [16, 32, 64, 100, 100]


def test_plan_clamps_to_keep_one_3d_stage():
    cfg = PHNetConfig(num_stages=3, voxel_spacing_mm=(1.0, 1.0, 100.0),
                      patch_size=(32, 32, 32), mlpp_stages=())
    plan = plan_stages(cfg)
    assert [p.mode for p in plan] == ["conv2d", "conv2d", "conv3d"]


def test_plan_monotone_in_tp_spacing():
    def s2(tp):
        cfg = PHNetConfig(num_stages=5, voxel_spacing_mm=(1.0, 1.0, tp),
                          patch_size=(64, 64, 64), mlpp_stages=())
        return sum(p.stride == (1, 2, 2) for p in plan_stages(cfg))

    values = [s2(tp) for tp in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 64.0)]
    assert values == sorted(values)
    assert values[0] == 0 and values[-1] == 4


def test_plan_mlpp_stage_modes():
    plan = plan_stages(ANISO)
    assert [p.mode for p in plan] == ["conv2d", "conv2d", "mlpp", "mlpp"]


@pytest.mark.parametrize("spacing", [(0.0, 1.0, 1.0), (math.nan, 1.0, 1.0),
                                     (1.0, 1.0, math.inf)])
def test_plan_rejects_bad_spacing(spacing):
    with pytest.raises(ValueError, match="voxel spacing must be positive"):
        plan_stages(PHNetConfig(voxel_spacing_mm=spacing))


def test_plan_rejects_more_classes_than_uint8_labels_hold():
    assert plan_stages(PHNetConfig(num_classes=256))
    with pytest.raises(ValueError, match="num_classes must be <= 256"):
        plan_stages(PHNetConfig(num_classes=257))


@pytest.mark.parametrize("mlpp_stages", [(), None], ids=["no_mlpp_stage", "default"])
def test_plan_rejects_zero_mlpp_layers_by_name(mlpp_stages):
    # checked with the other counts, also when no stage is an MLPP stage
    cfg = PHNetConfig(mlpp_stages=mlpp_stages, mlpp_num_layers=0)
    with pytest.raises(ValueError, match="^mlpp_num_layers must be >= 1, got 0$"):
        plan_stages(cfg)
    with pytest.raises(ValueError, match="^mlpp_num_layers must be >= 1"):
        PHNet(cfg, seed=0)


def test_plan_rejects_non_suffix_mlpp():
    with pytest.raises(ValueError):
        plan_stages(PHNetConfig(num_stages=4, mlpp_stages=(1,),
                                patch_size=(32, 32, 32)))


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_same_seed_bitwise_identical():
    a = PHNet(ANISO, seed=7)
    b = PHNet(ANISO, seed=7)
    names_a = [n for n, _ in a.named_parameters()]
    names_b = [n for n, _ in b.named_parameters()]
    assert names_a == names_b
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = PHNet(ANISO, seed=8)
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters()))


def test_build_unique_parameter_names():
    net = PHNet(ANISO, seed=0)
    names = [n for n, _ in net.named_parameters()]
    assert len(names) == len(set(names))


def test_build_rejects_indivisible_patch():
    bad = PHNetConfig(num_stages=4, patch_size=(24, 24, 24),
                      voxel_spacing_mm=(1, 1, 1))
    with pytest.raises(ValueError) as e:
        PHNet(bad)
    assert "stage" in str(e.value)


def test_toy_param_count_matches_hand_sum():
    # one 3D stage, one residual block, no MLPP
    cfg = PHNetConfig(num_stages=1, base_channels=4, num_classes=2,
                      patch_size=(8, 8, 8), mlpp_stages=(),
                      blocks_per_stage=1)
    net = PHNet(cfg, seed=0)
    # encoder block: conv1 4*1*27=108, conv2 4*4*27=432, proj 4*1, four IN pairs
    enc = 108 + 432 + 4 + 3 * (4 + 4)
    # decoder: up 1*4*4*8=128 transpose kernel (4,4,2,2,2), separable
    # block 12*16=192 + 2 IN pairs; head 2*4+2
    dec = 4 * 4 * 8 + (12 * 16 + 2 * (4 + 4))
    head = 2 * 4 + 2
    assert count_params(net) == enc + dec + head


def test_count_params_linear_example():
    assert count_params(Linear(4, 4)) == 20


def test_count_params_resolution_invariant():
    net = PHNet(ANISO, seed=0)
    n = count_params(net)
    net(Tensor(np.zeros((1, 1, 16, 32, 32), dtype=np.float32)))
    net(Tensor(np.zeros((1, 1, 32, 64, 64), dtype=np.float32)))
    assert count_params(net) == n


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_shape_contract():
    cfg = PHNetConfig(num_stages=3, base_channels=4, num_classes=3,
                      voxel_spacing_mm=(1, 1, 4), patch_size=(64, 64, 16),
                      blocks_per_stage=1)
    net = PHNet(cfg, seed=0)
    out = net(Tensor(np.zeros((1, 1, 16, 64, 64), dtype=np.float32)))
    assert out.shape == (1, 3, 16, 64, 64)


def test_forward_resolution_insensitive():
    net = PHNet(ANISO, seed=0)
    before = {n: p.data.copy() for n, p in net.named_parameters()}
    for shape in [(1, 1, 16, 32, 32), (1, 1, 16, 48, 48), (1, 1, 32, 32, 32)]:
        out = net(Tensor(np.zeros(shape, dtype=np.float32)))
        assert out.shape == (1, 3) + shape[2:]
    for n, p in net.named_parameters():
        assert np.array_equal(before[n], p.data)


def test_forward_rejects_indivisible_input():
    net = PHNet(ANISO, seed=0)
    with pytest.raises(ValueError):
        net(Tensor(np.zeros((1, 1, 16, 30, 32), dtype=np.float32)))
    with pytest.raises(ValueError):
        net(Tensor(np.zeros((1, 1, 2, 4, 4), dtype=np.float32)))


def test_forward_shape_grid():
    # output extents equal input extents across a grid of configs
    grid = [
        dict(num_stages=1, spacing=(1, 1, 1), patch=(8, 8, 8)),
        dict(num_stages=1, spacing=(1, 1, 8), patch=(8, 8, 4)),
        dict(num_stages=2, spacing=(1, 1, 1), patch=(8, 8, 8)),
        dict(num_stages=2, spacing=(1, 1, 4), patch=(16, 16, 4)),
        dict(num_stages=3, spacing=(1, 1, 1), patch=(16, 16, 16)),
        dict(num_stages=3, spacing=(1, 1, 2), patch=(16, 16, 8)),
    ]
    for mlpp in ((), None):
        for g in grid:
            cfg = PHNetConfig(num_stages=g["num_stages"], base_channels=4,
                              num_classes=2,
                              voxel_spacing_mm=g["spacing"], patch_size=g["patch"],
                              mlpp_stages=mlpp, blocks_per_stage=1)
            net = PHNet(cfg, seed=1)
            h, w, d = g["patch"]
            out = net(Tensor(np.zeros((1, 1, d, h, w), dtype=np.float32)))
            assert out.shape == (1, 2, d, h, w), (g, mlpp)


def test_forward_zero_input_zero_logits():
    # zero input with (initialized-to-zero) biases stays exactly zero
    net = PHNet(ANISO, seed=3)
    out = net(Tensor(np.zeros((1, 1, 16, 32, 32), dtype=np.float32)))
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_end_to_end_gradient_check():
    cfg = PHNetConfig(num_stages=2, base_channels=4, max_channels=8,
                      num_classes=2, voxel_spacing_mm=(1, 1, 2),
                      patch_size=(8, 8, 4), blocks_per_stage=1)
    net = PHNet(cfg, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(1, 1, 4, 8, 8)))
    probe = Tensor(rng.normal(size=(1, 2, 4, 8, 8)))

    def f(t):
        return (net(t) * probe).sum()

    assert grad_check(f, x, h=1e-5) < 1e-4


def test_gradients_reach_every_parameter():
    cfg = PHNetConfig(num_stages=2, base_channels=4, max_channels=8,
                      num_classes=2, voxel_spacing_mm=(1, 1, 2),
                      patch_size=(8, 8, 4), blocks_per_stage=1)
    net = PHNet(cfg, seed=5, dtype=np.float64)
    rng = np.random.default_rng(7)
    out = net(Tensor(rng.normal(size=(1, 1, 4, 8, 8))))
    backward((out * Tensor(rng.normal(size=out.shape))).sum())
    for name, p in net.named_parameters():
        assert p.grad is not None and np.any(p.grad != 0.0), name


def submodules(m):
    yield m
    for _, child in m.named_children():
        yield from submodules(child)


@pytest.fixture(scope="module")
def small_train_tape():
    cfg = PHNetConfig(num_stages=2, base_channels=4, max_channels=8,
                      num_classes=2, voxel_spacing_mm=(1, 1, 2),
                      patch_size=(8, 8, 4), blocks_per_stage=1)
    net = PHNet(cfg, seed=5)
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 1, 4, 8, 8)).astype(np.float32))
    return net, trace(dice_ce_loss(net(x), rng.integers(0, 2, size=(2, 4, 8, 8))))


def test_tape_has_one_node_per_norm_and_linear(small_train_tape):
    # an InstanceNorm runs inside the conv_nd node of the conv before it,
    # with its ReLU; a ChannelNorm is its own affine_norm node; a Linear is
    # the FC of one mix node, which reads its weight and bias
    net, nodes = small_train_tape
    ops = [n._op for n in nodes]
    assert "broadcast_to" not in ops and "sqrt" not in ops and "relu" not in ops
    mods = list(submodules(net))
    instance_norms = [m for m in mods if isinstance(m, InstanceNorm)]
    channel_norms = [m for m in mods if isinstance(m, ChannelNorm)]
    linears = [m for m in mods if isinstance(m, Linear)]
    assert instance_norms and channel_norms and linears
    assert ops.count("affine_norm") == len(channel_norms)
    assert ops.count("mix") == len(linears)
    for m, op, param in ([(m, "conv_nd", m.gamma) for m in instance_norms]
                         + [(m, "affine_norm", m.gamma) for m in channel_norms]
                         + [(m, "mix", p) for m in linears for p in (m.weight, m.bias)]):
        users = [n for n in nodes if any(p is param for p in n._parents)]
        assert [n._op for n in users] == [op], type(m).__name__


def test_forward_calls_the_module_level_conv_nd_once_per_conv(monkeypatch):
    # perfbench's --trace 1 counts conv MACs by rebinding layers.conv_nd at
    # module level and reading the batch of x and the kernel from the
    # positional arguments; the decoder's skip comes as the concat= keyword
    calls = []
    conv_nd = layers.conv_nd

    def counting(*args, **kwargs):
        out = conv_nd(*args, **kwargs)
        calls.append((args, kwargs.get("concat"), out.shape))
        return out

    monkeypatch.setattr(layers, "conv_nd", counting)
    net = PHNet(ANISO, seed=0)
    x = Tensor(np.zeros((2, 1, 16, 32, 32), np.float32))
    net(x)
    convs = [m for m in submodules(net) if isinstance(m, layers.Conv)]
    assert len(calls) == len(convs)
    assert sorted(id(args[1]) for args, _, _ in calls) == sorted(id(m.kernel) for m in convs)
    decoder_projs = {id(stage.proj.kernel) for stage in net.decoder if stage.proj is not None}
    assert decoder_projs
    for args, concat, shape in calls:
        assert isinstance(args[0], Tensor) and args[0].shape[0] == 2
        assert (concat is not None) == (id(args[1]) in decoder_projs)
        channels = args[0].shape[1] + (0 if concat is None else concat.shape[1])
        assert channels == args[1].shape[1]
        assert shape[:2] == (2, args[1].shape[0])


def test_loss_is_one_node_over_the_logits_tape(small_train_tape):
    _, nodes = small_train_tape
    loss = nodes[-1]
    assert loss._op == "dice_ce_loss" and len(loss._parents) == 1
    assert len(nodes) == len(trace(loss._parents[0])) + 1


def test_tape_has_one_mix_node_per_mlpp_pathway(small_train_tape):
    # IP: the H and W segment pathways, the channel FC and the fuse FC; AA:
    # the window pathway; TP: the D segment pathway.  No pathway records a
    # node of its own for a view or for its FC
    net, nodes = small_train_tape
    ops = [n._op for n in nodes]
    assert not {"regroup", "linear", "permute", "reshape"} & set(ops)
    mlpp_layers = [m for m in submodules(net) if isinstance(m, MLPPLayer)]
    assert mlpp_layers and ops.count("mix") == 6 * len(mlpp_layers)
    layer = mlpp_layers[0]
    x = Tensor(np.ones((1, layer.ip.fc_c.out_features, 2, 4, 4), np.float32),
               requires_grad=True)
    for pathway, mixes in ((layer.ip, 4), (layer.aa, 1), (layer.tp, 1)):
        assert [n._op for n in trace(pathway(x).sum())].count("mix") == mixes


def _module_count(module, kinds):
    """How many modules of ``module``'s tree, itself included, are one of
    ``kinds``."""
    return isinstance(module, kinds) + sum(_module_count(child, kinds)
                                           for _, child in module.named_children())


def test_no_part_of_the_tape_outlives_backward():
    # the logits stay referenced, as in a training loop; the walk must still
    # free every other op result (gc is off, so only refcounts free them)
    cfg = PHNetConfig(num_stages=2, base_channels=4, max_channels=8,
                      num_classes=2, voxel_spacing_mm=(1, 1, 2),
                      patch_size=(8, 8, 4), blocks_per_stage=1)
    net = PHNet(cfg, seed=5)
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 1, 4, 8, 8)).astype(np.float32))
    gc.disable()
    try:
        logits = net(x)
        loss = dice_ce_loss(logits, rng.integers(0, 2, size=(2, 4, 8, 8)))
        assert not {n._op for n in trace(loss)} & {"add", "add_scalar", "mul"}
        refs = [weakref.ref(n.data) for n in trace(loss)
                if n._op != "leaf" and n is not logits and n is not loss]
        # one node per Conv (the head's holds the logits), ConvTranspose,
        # Linear (its mix pathway) and ChannelNorm, and one attention gate
        # per MLPPLayer
        nodes = _module_count(net, (Conv, ConvTranspose, Linear, ChannelNorm, MLPPLayer))
        assert len(refs) == nodes - 1 == 45 and all(r() is not None for r in refs)
        backward(loss)
        assert [r for r in refs if r() is not None] == []
        assert logits._parents == () and logits._backward is None and logits.grad is None
        loss_data = weakref.ref(loss.data)
        del loss
        assert loss_data() is None
    finally:
        gc.enable()
    assert all(p.grad is not None for p in net.parameters())


# ---------------------------------------------------------------------------
# FLOP counting
# ---------------------------------------------------------------------------

def test_ip_pathway_closed_form_and_linearity():
    # horizontal pathway at H=W=8, C=4: 2*64*16 = 2048; doubling H doubles it
    from closed_form_flops import ip_pathway_flops
    assert ip_pathway_flops(8, 8, 4) == 2048
    assert ip_pathway_flops(16, 8, 4) == 4096
    assert ip_mlp_flops(16, 8, 4) == 2 * ip_mlp_flops(8, 8, 4)


def test_vanilla_token_mixing_quadruples():
    assert vanilla_token_mixing_flops(16, 8, 4) == 4 * vanilla_token_mixing_flops(8, 8, 4)


def _one_stage_net(mlpp_stages, num_layers=2):
    # input (D,H,W) = (4,8,8); the one 3D stage writes (2,4,4) with 8 channels
    cfg = PHNetConfig(num_stages=1, base_channels=8, max_channels=8, num_classes=2,
                      voxel_spacing_mm=(1, 1, 1), patch_size=(8, 8, 4),
                      mlpp_stages=mlpp_stages, mlpp_num_layers=num_layers,
                      blocks_per_stage=1)
    return PHNet(cfg, seed=0)


# decoder and head of ``_one_stage_net``, MACs per batch item: the (2,2,2)
# transposed conv 8->8 (512 weights per coarse voxel, 32 voxels), the
# separable (1,3,3) and (3,1,1) convs 8->8 and the 1x1x1 head 8->2 (256 voxels)
_ONE_STAGE_DECODER_MACS = 32 * 8 * 8 * 8 + 256 * (8 * 8 * 9 + 8 * 8 * 3 + 8 * 2)


def test_conv_net_flops_hand_sum():
    net = _one_stage_net(mlpp_stages=())
    # residual block on the coarse grid (32 voxels): strided 3x3x3 conv 1->8,
    # 3x3x3 conv 8->8, strided 1x1x1 skip projection 1->8
    encoder = 32 * (8 * 1 * 27 + 8 * 8 * 27 + 8 * 1)
    flops, shape = net.count_flops((2, 1, 4, 8, 8))
    assert flops == 2 * 2 * (encoder + _ONE_STAGE_DECODER_MACS)
    assert shape == (2, 2, 4, 8, 8)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_mlpp_net_flops_match_closed_forms(num_layers):
    from closed_form_flops import aa_mlp_flops, tp_mlp_flops
    net = _one_stage_net(mlpp_stages=None, num_layers=num_layers)
    assert [p.mode for p in net.plan] == ["mlpp"]
    B, C, D, H, W = 3, 8, 2, 4, 4
    per_layer = (B * D * ip_mlp_flops(H, W, C) + B * D * aa_mlp_flops(H, W, C, 2)
                 + B * tp_mlp_flops(D, H, W, C))
    # strided 3x3x3 Conv-IN-ReLU 1->8 before the MLPP block
    convs = 2 * B * (D * H * W * 8 * 27 + _ONE_STAGE_DECODER_MACS)
    assert net.count_flops((B, 1, 4, 8, 8))[0] == convs + num_layers * per_layer


def test_count_flops_rejects_the_grid_forward_rejects():
    # the README demo net: 80 is a whole number of strides, but the deepest
    # MLPP stage's H extent of 10 is not a whole number of its windows of 4
    net = PHNet(PHNetConfig(num_stages=4, base_channels=8, voxel_spacing_mm=(1, 1, 4),
                            patch_size=(64, 64, 32)), seed=0)
    shape = (1, 1, 32, 80, 80)
    with pytest.raises(ValueError) as rejected:
        net(Tensor(np.zeros(shape, dtype=np.float32)))
    assert "MLPP segment/window length 4 does not divide axis H feature extent 10" \
        in str(rejected.value)
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        net.count_flops(shape)


def test_network_flops_linear_in_batch():
    net = PHNet(ANISO, seed=0)
    f1 = net.count_flops((1, 1, 16, 32, 32))[0]
    f3 = net.count_flops((3, 1, 16, 32, 32))[0]
    assert f3 == 3 * f1
    assert f1 > 0


def _op_counting_forward(monkeypatch, net, x):
    """Run ``net`` on ``x`` under no_grad with the conv, transposed-conv and
    linear ops wrapped to count multiply-adds from the shapes they receive."""
    macs = []

    def conv(x, kernel, *args, **kwargs):
        out = orig_conv(x, kernel, *args, **kwargs)
        macs.append(out.size // kernel.shape[0] * kernel.size)
        return out

    def conv_transpose(x, kernel, *args, **kwargs):
        macs.append(x.size // x.shape[1] * kernel.size)
        return orig_conv_transpose(x, kernel, *args, **kwargs)

    def linear(x, weight, *args, **kwargs):
        macs.append(x.size // weight.shape[1] * weight.size)
        return orig_linear(x, weight, *args, **kwargs)

    orig_conv, orig_conv_transpose, orig_linear = (
        layers.conv_nd, layers.conv_transpose_nd, layers.linear)
    monkeypatch.setattr(layers, "conv_nd", conv)
    monkeypatch.setattr(layers, "conv_transpose_nd", conv_transpose)
    monkeypatch.setattr(layers, "linear", linear)
    with no_grad():
        out = net(Tensor(x))
    return 2 * sum(macs), out.shape


# (num_stages, through-plane spacing): 0, 1 or 2 in-plane-only stages
_STAGE_GRID = [(1, 1.0), (2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0), (3, 4.0),
               (4, 1.0), (4, 2.0), (4, 4.0)]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("mlpp_stages,num_layers", [(None, 1), (None, 2), ((), 2)])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("num_stages,tp", _STAGE_GRID)
def test_count_flops_equals_ops_of_a_forward(monkeypatch, num_stages, tp, blocks,
                                             mlpp_stages, num_layers, batch):
    cfg = PHNetConfig(num_stages=num_stages, base_channels=4, max_channels=32,
                      num_classes=2, voxel_spacing_mm=(1.0, 1.0, tp),
                      patch_size=(16, 16, 16), mlpp_stages=mlpp_stages,
                      mlpp_num_layers=num_layers, blocks_per_stage=blocks)
    net = PHNet(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(batch, 1, 16, 16, 16)).astype(np.float32)
    counted, out_shape = _op_counting_forward(monkeypatch, net, x)
    assert net.count_flops(x.shape) == (counted, out_shape)


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------

def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    net = PHNet(ANISO, seed=11)
    path = tmp_path / "best.ckpt"
    save_checkpoint(net, path, meta={"epoch": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):                 # meta is not JSON-serializable
        save_checkpoint(PHNet(ANISO, seed=12), path, meta={"epoch": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


def _with_config(cfg, **meta):
    """Checkpoint metadata whose ``model_config`` describes ``cfg``."""
    return {"model_config": config_to_dict(cfg), **meta}


def test_checkpoint_roundtrip(tmp_path):
    net = PHNet(ANISO, seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path, meta=_with_config(ANISO, epoch=3))
    other = net_from_checkpoint(path)
    assert other.cfg == ANISO
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]["epoch"] == 3
    for (_, pa), (_, pb) in zip(net.named_parameters(), other.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_checkpoint_roundtrip_preserves_forward(tmp_path):
    net = PHNet(ANISO, seed=11)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 16, 32, 32)).astype(np.float32))
    want = net(x).data
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path, meta=_with_config(ANISO))
    np.testing.assert_array_equal(net_from_checkpoint(path)(x).data, want)


def test_checkpoint_shape_validation(tmp_path):
    # the header's model_config is ANISO, the parameters another width's
    path = tmp_path / "model.ckpt"
    different = PHNet(PHNetConfig(num_stages=4, base_channels=16, max_channels=64,
                                  num_classes=3,
                                  voxel_spacing_mm=(1, 1, 4), patch_size=(32, 32, 16)),
                      seed=0)
    save_checkpoint(different, path, meta=_with_config(ANISO))
    with pytest.raises(ValueError, match="shape"):
        net_from_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        net_from_checkpoint(path)


@pytest.mark.parametrize("raw", [b"\xff\xfe\x00\x01binary", b'{"format": "phnet-checkpoint-v1", "me'],
                         ids=["foreign_binary", "truncated_header"])
def test_checkpoint_unreadable_header_named_as_not_a_checkpoint(tmp_path, raw):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        net_from_checkpoint(path)
    assert str(info.value) == f"{path}: not a phnet-checkpoint-v1 file"


def _overlapping(params):
    params[1]["offset"] = params[0]["offset"]


def _gapped(params):
    params[1]["offset"] += 4


def _reordered(params):
    params[0], params[1] = params[1], params[0]


def _bool_offset(params):
    params[0]["offset"] = False            # == 0, the offset it replaces


def _bool_extent(params):
    entry = next(e for e in params if 1 in e["shape"])
    entry["shape"][entry["shape"].index(1)] = True


@pytest.mark.parametrize("edit", [_overlapping, _gapped, _reordered, _bool_offset,
                                  _bool_extent])
def test_checkpoint_entries_must_tile_the_payload_in_order(tmp_path, edit):
    # each edit keeps the payload length the entries declare, so only the
    # offsets (or the types of the numbers) are wrong
    path = tmp_path / "model.ckpt"
    save_checkpoint(PHNet(ANISO, seed=0), path, meta=_with_config(ANISO))
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header["params"])
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="model.ckpt"):
        net_from_checkpoint(path)


# ---------------------------------------------------------------------------
# derived MLPP segment lengths
# ---------------------------------------------------------------------------

def test_mlpp_stage_segment_lengths():
    # patch (H,W,D) = (32,32,16) at spacing ratio 4: stage 2 writes 32 x (8,4,4)
    # and stage 3 writes 64 x (4,2,2)
    net = PHNet(ANISO, seed=0)
    assert [(s.mlpp.l_ip, s.mlpp.mlpp_layers[0].aa.l, s.mlpp.l_tp, len(s.mlpp.mlpp_layers))
            for s in net.stages[2:]] == [(2, 2, 4, 2), (1, 1, 2, 2)]
    shallow = PHNet(dataclasses.replace(ANISO, mlpp_num_layers=1), seed=0)
    assert [len(s.mlpp.mlpp_layers) for s in shallow.stages[2:]] == [1, 1]


@st.composite
def patch_divisible_configs(draw):
    """A PHNetConfig with drawn stage count, base channels, spacing ratio and
    MLPP stages, whose patch extents are whole multiples of the products of
    the stage strides along each axis."""
    num_stages = draw(st.integers(1, 4))
    base = draw(st.integers(1, 6))
    cfg = PHNetConfig(
        num_stages=num_stages, base_channels=base,
        max_channels=draw(st.integers(base, 8 * base)), num_classes=draw(st.integers(2, 3)),
        voxel_spacing_mm=(1.0, 1.0, draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 8.0]))),
        mlpp_stages=tuple(range(draw(st.integers(0, num_stages)), num_stages)),
        mlpp_num_layers=draw(st.integers(1, 2)), blocks_per_stage=1)
    d, h, w = (math.prod(p.stride[a] for p in plan_stages(cfg)) * draw(st.integers(1, 4))
               for a in range(3))
    return dataclasses.replace(cfg, patch_size=(h, w, d))


@given(patch_divisible_configs())
def test_derived_mlpp_lengths_divide_the_feature_grid(cfg):
    net = PHNet(cfg, seed=0)
    d, h, w = hwd_to_dhw(cfg.patch_size)
    grid = (d, h, w)
    for plan, stage in zip(net.plan, net.stages):
        grid = tuple(n // s for n, s in zip(grid, plan.stride))
        if plan.mode != "mlpp":
            continue
        c, (d_f, h_f, w_f), m = plan.channels_out, grid, stage.mlpp
        assert c % m.l_ip == h_f % m.l_ip == w_f % m.l_ip == 0
        assert c % m.l_tp == d_f % m.l_tp == 0
        # each is the largest such length within its bound
        assert m.l_ip == max(l for l in range(1, max(1, w_f // 2) + 1)
                             if c % l == h_f % l == w_f % l == 0)
        assert m.l_tp == max(l for l in range(1, max(1, d_f // 2) + 1)
                             if c % l == d_f % l == 0)
        assert len(m.mlpp_layers) == cfg.mlpp_num_layers
        # the attention window is the in-plane segment length
        assert all(layer.aa.l == m.l_ip for layer in m.mlpp_layers)
    x = np.random.default_rng(0).normal(size=(1, 1, d, h, w)).astype(np.float32)
    with no_grad():
        out = net(Tensor(x))
    assert out.shape == net.count_flops(x.shape)[1] == (1, cfg.num_classes, d, h, w)


def test_stage_plan_records():
    plan = plan_stages(ANISO)
    assert isinstance(plan[0], StagePlan)
    assert plan[0].channels_in == 1 and plan[0].channels_out == 8
    assert plan[1].channels_in == 8 and plan[1].channels_out == 16
    assert all(set(p.stride) <= {1, 2} for p in plan)
