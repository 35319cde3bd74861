"""PHNet assembly: spacing-driven 2.5D encoder, permutable-MLP deep stages,
separable-convolution decoder with skip connections, and checkpoint I/O.

Geometry conventions: feature maps are (B, C, D, H, W); configuration patch
sizes are written (H, W, D) to match how scan resolutions are usually quoted
(in-plane first).  Voxel spacing is (ip, ip, tp) millimetres.

The encoder's 2.5D rule: while the through-plane spacing is coarser than the
in-plane spacing, stages downsample in-plane only (stride (1,2,2), kernels
(1,3,3)) so the feature grid approaches isotropy before any through-plane
mixing; the remaining stages use 3D kernels and stride (2,2,2).  The number
of 2D stages is s2 = clamp(round(log2(spacing_tp / spacing_ip)), 0,
num_stages - 1), with round-half-up.  The deepest stages swap their conv
blocks for MLPP blocks (a strided Conv-IN-ReLU performs that stage's
downsampling first).
"""

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .layers import (
    Conv,
    ConvNormAct,
    ConvTranspose,
    Linear,
    Module,
    ResidualConvBlock,
    SeparableConvBlock,
)
from .data import MAX_CLASSES, _is_spacing, _is_triple, atomic_write
from .mlpp import MLPPBlock

__all__ = [
    "PHNetConfig",
    "StagePlan",
    "PHNet",
    "plan_stages",
    "hwd_to_dhw",
    "count_params",
    "save_checkpoint",
    "net_from_checkpoint",
    "config_to_dict",
    "config_from_dict",
]

CHECKPOINT_FORMAT = "phnet-checkpoint-v1"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PHNetConfig:
    num_stages: int = 5
    base_channels: int = 32
    max_channels: int = 320
    num_classes: int = 2
    voxel_spacing_mm: tuple = (1.0, 1.0, 1.0)   # (ip, ip, tp)
    patch_size: tuple = (64, 64, 16)            # (H, W, D)
    mlpp_stages: tuple | None = None            # default: deepest two
    mlpp_num_layers: int = 2                    # depth of every MLPP stack
    blocks_per_stage: int = 2

    def resolved_mlpp_stages(self):
        if self.mlpp_stages is None:
            return tuple(i for i in (self.num_stages - 2, self.num_stages - 1) if i >= 0)
        return tuple(sorted(set(int(i) for i in self.mlpp_stages)))


@dataclass(frozen=True)
class StagePlan:
    """One encoder stage: ``mode`` in {conv2d, conv3d, mlpp}; ``stride`` and
    ``kernel`` already reflect the 2D/3D rule at this depth."""

    mode: str
    stride: tuple
    kernel: tuple
    channels_in: int
    channels_out: int


def hwd_to_dhw(patch_size_hwd):
    """A configuration patch size (H, W, D) as grid extents (D, H, W)."""
    h, w, d = (int(n) for n in patch_size_hwd)
    return d, h, w


def plan_stages(cfg):
    """Spacing-driven stage plan: s2 in-plane-only stages, then 3D stages,
    with the configured stages swapped to MLPP mode; channels double from
    ``base_channels``, capped at ``max_channels``."""
    ip0, ip1, tp = cfg.voxel_spacing_mm
    if not all(0 < s < math.inf for s in cfg.voxel_spacing_mm):
        raise ValueError(f"voxel spacing must be positive, got {cfg.voxel_spacing_mm}")
    for name in ("num_stages", "base_channels", "max_channels", "blocks_per_stage",
                 "mlpp_num_layers"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if cfg.num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {cfg.num_classes}")
    if cfg.num_classes > MAX_CLASSES:
        raise ValueError(f"num_classes must be <= {MAX_CLASSES} (labels are uint8), "
                         f"got {cfg.num_classes}")
    ratio = tp / math.sqrt(ip0 * ip1)
    s2 = min(max(math.floor(math.log2(ratio) + 0.5), 0), cfg.num_stages - 1)

    mlpp_stages = cfg.resolved_mlpp_stages()
    for i in mlpp_stages:
        if not 0 <= i < cfg.num_stages:
            raise ValueError(f"mlpp stage index {i} out of range for {cfg.num_stages} stages")
    if mlpp_stages and set(mlpp_stages) != set(range(min(mlpp_stages), cfg.num_stages)):
        raise ValueError(
            f"mlpp_stages {mlpp_stages} must be a contiguous suffix of the stage list "
            f"(global mixing belongs in the deepest stages)")

    plan = []
    for i in range(cfg.num_stages):
        two_d = i < s2
        stride = (1, 2, 2) if two_d else (2, 2, 2)
        kernel = (1, 3, 3) if two_d else (3, 3, 3)
        mode = "mlpp" if i in mlpp_stages else ("conv2d" if two_d else "conv3d")
        c_in = 1 if i == 0 else plan[-1].channels_out
        c_out = min(cfg.base_channels * 2 ** i, cfg.max_channels)
        plan.append(StagePlan(mode, stride, kernel, c_in, c_out))
    return plan


def _largest_divisor_at_most(n, bound, *also_dividing):
    """Largest l <= bound with l | n and l | each of ``also_dividing``."""
    for l in range(max(1, bound), 0, -1):
        if n % l == 0 and all(m % l == 0 for m in also_dividing):
            return l
    return 1


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

class _ConvStage(Module):
    def __init__(self, plan, blocks, rng, dtype):
        self.blocks = [ResidualConvBlock(plan.channels_in, plan.channels_out,
                                         plan.kernel, plan.stride, rng=rng, dtype=dtype)]
        for _ in range(blocks - 1):
            self.blocks.append(ResidualConvBlock(plan.channels_out, plan.channels_out,
                                                 plan.kernel, 1, rng=rng, dtype=dtype))

    def forward(self, x):
        for blk in self.blocks:
            x = blk(x)
        return x


class _MLPPStage(Module):
    """Strided Conv-IN-ReLU downsampler followed by an MLPP block."""

    def __init__(self, plan, l_ip, l_tp, num_layers, rng, dtype):
        self.down = ConvNormAct(plan.channels_in, plan.channels_out,
                                plan.kernel, plan.stride, rng=rng, dtype=dtype)
        self.mlpp = MLPPBlock(plan.channels_out, l_ip, l_tp, num_layers,
                              rng=rng, dtype=dtype)

    def forward(self, x):
        return self.mlpp(self.down(x))


class _DecoderStage(Module):
    """conv_transpose upsampling (kernel = stride, mirroring one encoder
    stage), a 1x1x1 projection of the upsampled map joined with the skip
    along C (one ``conv_nd`` node), then a separable conv block."""

    def __init__(self, in_channels, skip_channels, out_channels, stride, rng, dtype):
        self.up = ConvTranspose(in_channels, out_channels, stride, rng=rng, dtype=dtype)
        self.proj = (Conv(out_channels + skip_channels, out_channels, 1, 1, 0,
                          rng=rng, dtype=dtype)
                     if skip_channels else None)
        self.sep = SeparableConvBlock(out_channels, rng=rng, dtype=dtype)

    def forward(self, x, skip):
        h = self.up(x)
        if self.proj is not None:
            h = self.proj(h, concat=skip)
        return self.sep(h)


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

class PHNet(Module):
    """Permutable hybrid CNN+MLP segmentation network.

    ``forward`` maps (B, 1, D, H, W) to logits of shape
    (B, num_classes, D, H, W).  Any input whose extents survive every
    stage's stride exactly (and the MLPP divisibility constraints) is
    accepted — parameters are resolution-free.  ``dtype`` is the dtype its
    parameters were built in, and the one inference feeds it.
    """

    def __init__(self, cfg, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.plan = plan_stages(cfg)
        feat = self._feature_sizes(hwd_to_dhw(cfg.patch_size))  # validates the patch size

        self.stages = []
        for i, plan in enumerate(self.plan):
            if plan.mode == "mlpp":
                # largest on the C x (D,H,W) patch grid: l_ip | C,H,W, l_ip <= W // 2;
                # l_tp | C,D, l_tp <= max(1, D // 2); the attention window is l_ip
                c, (d_f, h_f, w_f) = plan.channels_out, feat[i + 1]
                self.stages.append(_MLPPStage(
                    plan, _largest_divisor_at_most(c, w_f // 2, h_f, w_f),
                    _largest_divisor_at_most(c, max(1, d_f // 2), d_f),
                    cfg.mlpp_num_layers, rng, dtype))
            else:
                self.stages.append(_ConvStage(plan, cfg.blocks_per_stage, rng, dtype))

        self.decoder = []
        ch = self.plan[-1].channels_out
        for i in reversed(range(cfg.num_stages)):
            skip_ch = self.plan[i - 1].channels_out if i > 0 else 0
            out_ch = skip_ch if i > 0 else cfg.base_channels
            self.decoder.append(_DecoderStage(ch, skip_ch, out_ch,
                                              self.plan[i].stride, rng, dtype))
            ch = out_ch
        self.head = Conv(ch, cfg.num_classes, 1, 1, 0, bias=True, rng=rng, dtype=dtype)

    # -- geometry ----------------------------------------------------------

    def _feature_sizes(self, input_dhw):
        """Per-stage (D, H, W) feature extents, index 0 = input; raises if
        any extent is below 1 or a stage's stride does not divide its input
        extents."""
        sizes = [tuple(input_dhw)]
        if min(sizes[0]) < 1:
            raise ValueError(f"input extents (D,H,W)={sizes[0]} must all be >= 1")
        for i, plan in enumerate(self.plan):
            cur = sizes[-1]
            for axis_name, extent, s in zip("DHW", cur, plan.stride):
                if extent % s:
                    raise ValueError(
                        f"stage {i}: axis {axis_name} extent {extent} is not divisible "
                        f"by stride {s} (input (D,H,W)={sizes[0]})")
            sizes.append(tuple(n // s for n, s in zip(cur, plan.stride)))
        return sizes

    def _grids(self, input_dhw):
        """``_feature_sizes`` of an input that this net can run: also raises
        if an MLPP stage's segment or window length does not divide its
        feature extents.  ``forward`` and ``count_flops`` both check here."""
        grids = self._feature_sizes(input_dhw)
        for i, (plan, stage) in enumerate(zip(self.plan, self.stages)):
            if plan.mode != "mlpp":
                continue
            m, (d_f, h_f, w_f) = stage.mlpp, grids[i + 1]
            for axis_name, extent, l in (("H", h_f, m.l_ip), ("W", w_f, m.l_ip),
                                         ("D", d_f, m.l_tp)):
                if extent % l:
                    raise ValueError(
                        f"stage {i}: MLPP segment/window length {l} does not divide "
                        f"axis {axis_name} feature extent {extent}")
        return grids

    # -- forward -----------------------------------------------------------

    def forward(self, x):
        if x.ndim != 5 or x.shape[1] != 1:
            raise ValueError(f"expected input (B,1,D,H,W), got {x.shape}")
        self._grids(x.shape[2:])
        skips = []
        for stage in self.stages:
            x = stage(x)
            skips.append(x)
        x = skips.pop()
        for dec in self.decoder:
            x = dec(x, skips.pop() if skips else None)
        return self.head(x)

    def count_flops(self, input_shape):
        """Counted FLOPs of one forward on ``input_shape`` (1 multiply-add =
        2 FLOPs; only convs, transposed convs and ``Linear`` maps count)
        and the shape of the logits, from the parameter shapes and the stage
        grids alone: no op runs.  Encoder stage i writes grid i+1, decoder
        stage i writes grid i, and the head writes grid 0.  Raises
        ``ValueError`` for a batch below 1 and for any grid ``forward``
        rejects."""
        b = input_shape[0]
        if b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        grids = self._grids(input_shape[2:])
        # channels of the maps on grid i: encoder stage i-1 and decoder stage
        # i write the same number (base_channels on grid 0)
        widths = [self.cfg.base_channels] + [p.channels_out for p in self.plan]
        maps = [(b, c) + g for c, g in zip(widths, grids)]
        macs = sum(_macs(stage, maps[i + 1]) for i, stage in enumerate(self.stages))
        macs += sum(_macs(dec, maps[i])
                    for i, dec in zip(reversed(range(len(self.plan))), self.decoder))
        out_shape = (b, self.cfg.num_classes) + grids[0]
        return 2 * (macs + _macs(self.head, out_shape)), out_shape


def _macs(module, feature_shape):
    """Multiply-adds of the ``Conv``, ``ConvTranspose`` and ``Linear`` layers
    in ``module``, one PHNet stage that writes a feature map of
    ``feature_shape`` (B, C, D, H, W), with n = B*D*H*W its batch voxels.

    The three rules hold by how the stages and layers are built:

    * every ``Conv`` writes the stage's grid (a strided conv or skip
      projection writes it from the finer grid before it), so it costs one
      kernel per output voxel: n * kernel.size;
    * a ``ConvTranspose`` has kernel = stride and no padding by
      construction, so each of its n / prod(stride) input voxels writes its
      own block of the grid: n / prod(stride) * kernel.size;
    * every ``Linear`` reads a reshape of a map of the stage's shape (token
      segment rows, channel FCs and attention windows alike), so its rows
      hold n*C elements and it costs n * C * out_features.

    Norms, activations and bias adds are not counted."""
    b, c, *grid = feature_shape
    n = b * math.prod(grid)
    if isinstance(module, Conv):
        return n * module.kernel.size
    if isinstance(module, ConvTranspose):
        return n // math.prod(module.stride) * module.kernel.size
    if isinstance(module, Linear):
        return n * c * module.out_features
    return sum(_macs(child, feature_shape) for _, child in module.named_children())


def count_params(net):
    """Exact number of scalar parameters."""
    return sum(p.size for p in net.parameters())


def config_to_dict(cfg):
    """A PHNetConfig as a JSON-ready dict that ``config_from_dict`` reads back."""
    return asdict(cfg)


# per PHNetConfig field, the check of its ``config_to_dict`` JSON value
# (bools are not ints here)
_CONFIG_FIELDS = {
    **dict.fromkeys(("num_stages", "base_channels", "max_channels", "num_classes",
                     "mlpp_num_layers", "blocks_per_stage"), lambda v: type(v) is int),
    "voxel_spacing_mm": _is_spacing,
    "patch_size": lambda v: _is_triple(v, int),
    "mlpp_stages": lambda v: v is None or (isinstance(v, list)
                                           and all(type(i) is int for i in v)),
}


_NESTED_FIELDS = (_CONFIG_FIELDS.keys() - {"mlpp_num_layers"}) | {"in_channels", "mlpp"}


def _flatten_nested_mlpp(d):
    """The flat form of ``d``, a config in the nested form older headers hold:
    ``in_channels`` and an ``mlpp`` object in place of ``mlpp_num_layers``.
    Only what that form always held loads: 1 channel, null (derived) lengths."""
    d = dict(d)
    in_channels, mlpp = d.pop("in_channels"), d.pop("mlpp")
    if type(in_channels) is not int or in_channels != 1:
        raise ValueError(f"model_config: invalid in_channels {in_channels!r} (PHNet reads 1)")
    if not (isinstance(mlpp, dict) and mlpp.keys() == {"l_ip", "l_aa", "l_tp", "num_layers"}):
        raise ValueError(f"model_config: invalid mlpp {mlpp!r}")
    for name in ("l_ip", "l_aa", "l_tp"):
        if mlpp[name] is not None:
            raise ValueError(f"model_config: invalid mlpp.{name} {mlpp[name]!r} (derived)")
    return {**d, "mlpp_num_layers": mlpp["num_layers"]}


def config_from_dict(d):
    """Rebuild a PHNetConfig from ``config_to_dict`` output (JSON turns
    tuples into lists, so sequence fields are re-tupled here), or from the
    nested form.  Raises ``ValueError`` naming the field unless ``d`` is an
    object with every field of one form and no other, each of its JSON type."""
    if not isinstance(d, dict):
        raise ValueError(f"model_config must be an object, got {d!r}")
    nested = "in_channels" in d or "mlpp" in d
    odd = sorted(d.keys() ^ (_NESTED_FIELDS if nested else _CONFIG_FIELDS.keys()))
    if odd:
        raise ValueError(f"model_config: unknown or missing fields {odd}")
    if nested:
        d = _flatten_nested_mlpp(d)
    for name, valid in _CONFIG_FIELDS.items():
        if not valid(d[name]):
            raise ValueError(f"model_config: invalid {name} {d[name]!r}")
    return PHNetConfig(**{
        **d,
        "voxel_spacing_mm": tuple(d["voxel_spacing_mm"]),
        "patch_size": tuple(d["patch_size"]),
        "mlpp_stages": None if d["mlpp_stages"] is None else tuple(d["mlpp_stages"]),
    })


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------

def save_checkpoint(net, path, meta=None):
    """Single-file checkpoint: a JSON manifest line (parameter name paths,
    shapes, byte offsets, plus caller metadata) followed by the raw
    little-endian float32 parameter payload, written atomically."""
    entries = []
    payload = bytearray()
    for name, p in net.named_parameters():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(p.shape), "offset": len(payload)})
        payload.extend(raw)
    manifest = {"format": CHECKPOINT_FORMAT, "meta": meta or {}, "params": entries}
    with atomic_write(path, "wb") as f:
        f.write(json.dumps(manifest).encode("utf-8"))
        f.write(b"\n")
        f.write(bytes(payload))


def _read_checkpoint_header(f, path):
    """Parse and validate the manifest line of checkpoint file ``f``, leaving
    ``f`` at the start of the payload.  Raises ``ValueError`` for a foreign
    or malformed header (bools are not ints here), for entries that do not
    tile the payload in the order ``save_checkpoint`` writes them or repeat a
    name, and for a payload of another length (a truncated file or trailing
    bytes)."""
    try:
        manifest = json.loads(f.readline().decode("utf-8"))
    except ValueError:                 # UnicodeDecodeError or JSONDecodeError
        manifest = None
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if not (isinstance(manifest.get("meta"), dict)
            and isinstance(manifest.get("params"), list)):
        raise ValueError(f"{path}: header needs a 'meta' object and a 'params' list")
    declared, names = 0, set()
    for e in manifest["params"]:
        if not (isinstance(e, dict) and {"name", "shape", "offset"} <= e.keys()
                and isinstance(e["name"], str) and isinstance(e["shape"], list)
                and all(type(n) is int and n >= 0 for n in [e["offset"], *e["shape"]])):
            raise ValueError(f"{path}: malformed parameter entry {e!r}")
        if e["name"] in names:
            raise ValueError(f"{path}: parameter {e['name']!r} is listed more than once")
        names.add(e["name"])
        if e["offset"] != declared:
            raise ValueError(f"{path}: parameter {e['name']!r} starts at byte {e['offset']}, "
                             f"but the entries before it end at byte {declared}")
        declared += 4 * math.prod(e["shape"])
    payload = os.fstat(f.fileno()).st_size - f.tell()
    if payload != declared:
        raise ValueError(
            f"{path}: payload is {payload} bytes, parameter entries declare {declared}")
    return manifest


def net_from_checkpoint(path):
    """Build the PHNet that a checkpoint's ``model_config`` describes and load
    its parameters, opening and validating the file once.  Raises
    ``ValueError`` unless the parameter names and shapes are that net's."""
    with open(path, "rb") as f:
        manifest = _read_checkpoint_header(f, path)
        if "model_config" not in manifest["meta"]:
            raise ValueError(f"{path}: checkpoint has no model_config")
        net = PHNet(config_from_dict(manifest["meta"]["model_config"]), seed=0)
        payload = f.read()
    by_name = {e["name"]: e for e in manifest["params"]}
    params = dict(net.named_parameters())
    if set(by_name) != set(params):
        missing = sorted(set(params) - set(by_name))
        extra = sorted(set(by_name) - set(params))
        raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
    for name, p in params.items():
        e = by_name[name]
        if tuple(e["shape"]) != p.shape:
            raise ValueError(
                f"checkpoint {name}: shape {tuple(e['shape'])} != expected {p.shape}")
        flat = np.frombuffer(payload, dtype="<f4", count=p.size, offset=e["offset"])
        p.data[...] = flat.reshape(p.shape).astype(p.dtype)
    return net
