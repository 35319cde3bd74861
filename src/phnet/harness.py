"""Training, evaluation, and benchmarking harness.

Training samples foreground-biased patches per case each epoch, optimizes the
Dice+CE loss with AdamW under the batch-proportional learning-rate rule, logs
one line-delimited JSON record per optimizer step (with the step's forward,
backward and optimizer seconds, gradient norm and peak RSS so far), and
checkpoints whenever the validation Dice improves.  A step of two or more
samples runs its forward as two half-batches, one after the other, under one
loss, and ``autograd.backward`` walks the two half-batch graphs as separate
branches (``autograd.overlap``); the split depends only on the batch size.

Inference runs a sliding window at the training patch size with 50% overlap
and uniform logit averaging.  Each window's logits are added into one float64
sum as its forward returns, in the canonical (z, y, x) order that
``stitch_windows`` sorts any window list into, so the result equals that
order-independent stitch bitwise while memory stays O(classes * volume)
rather than growing with the window count.  A window spanning the whole
volume reduces exactly to a single forward pass.

Evaluation segments every case with ``predict_label_volume``, the one path
from a case to its labels.  It scores case k (``metrics.score_case``:
boundary extraction and KD-tree distance queries, which run no tape and no
conv) beside the read and segmentation of case k+1, through
``autograd.overlap``.  Case k's distance queries are queued in chunks, and
the calling thread runs them beside the worker once case k+1 is segmented;
both threads run the last case's chunks.
"""

import json
import math
import queue
import resource
import threading
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import autograd as ag
from .data import (
    LabelVolume,
    Volume,
    parse_json,
    read_manifest,
    read_volume,
    resample_to_grid,
    resample_to_spacing,
    sample_patches,
    zscore,
)
from .metrics import (
    _hausdorff_of,
    _surface_dice_of,
    dice,
    dice_ce_loss,
    score_case,
    write_report_csv,
)
from .model import (
    PHNet,
    PHNetConfig,
    config_to_dict,
    count_params,
    hwd_to_dhw,
    net_from_checkpoint,
    save_checkpoint,
)
from .optim import AdamW, TrainingError

__all__ = [
    "TrainConfig",
    "RunLog",
    "read_runlog",
    "load_dataset",
    "window_starts",
    "stitch_windows",
    "sliding_window_logits",
    "predict_label_volume",
    "train",
    "evaluate",
    "bench",
    "grad_check_suite",
    "BLOCK_GRAD_TOL",
    "E2E_GRAD_TOL",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    data_dir: str = "data"
    out_dir: str = "runs/default"
    epochs: int = 10
    batch_size: int = 2
    patches_per_case: int = 4
    patch_size: tuple = (64, 64, 32)      # (H, W, D)
    fg_bias: float = 0.7
    val_interval: int = 1
    seed: int = 0
    lr: float | None = None               # None -> batch-size rule
    weight_decay: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    num_stages: int = 4
    base_channels: int = 8
    max_channels: int = 320
    blocks_per_stage: int = 2
    mlpp_num_layers: int = 2
    mlpp_stages: tuple | None = None      # None -> deepest two stages


def _model_config(cfg, num_classes, spacing_mm):
    return PHNetConfig(
        num_stages=cfg.num_stages,
        base_channels=cfg.base_channels,
        max_channels=cfg.max_channels,
        num_classes=num_classes,
        voxel_spacing_mm=tuple(spacing_mm),
        patch_size=tuple(cfg.patch_size),
        mlpp_stages=cfg.mlpp_stages,
        mlpp_num_layers=cfg.mlpp_num_layers,
        blocks_per_stage=cfg.blocks_per_stage,
    )


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------

class RunLog:
    """Line-delimited JSON training log.  Step records must arrive with
    strictly increasing step ids; every record carries a wall-clock timestamp
    and elapsed seconds since the log was opened (``time.monotonic``)."""

    def __init__(self, path):
        self.path = str(path)
        self._f = open(self.path, "w", encoding="utf-8")
        self._t0 = time.monotonic()
        self._last_step = 0
        self._step_fields = {}

    def _emit(self, record):
        record = {"timestamp": time.time(),
                  "wall_time_s": time.monotonic() - self._t0,
                  **record}
        self._f.write(json.dumps(record) + "\n")
        self._f.flush()

    def log_meta(self, **fields):
        self._emit({"kind": "meta", **fields})

    def note_step(self, **fields):
        """Add ``fields`` to the next step record.  ``log_step`` keeps its
        four arguments, so code that wraps it passes them on unchanged."""
        self._step_fields.update(fields)

    def log_step(self, step, epoch, loss, lr):
        if step != self._last_step + 1:
            raise ValueError(
                f"step ids must increase by 1: got {step} after {self._last_step}")
        self._last_step = step
        fields, self._step_fields = self._step_fields, {}
        self._emit({"kind": "step", "step": step, "epoch": epoch,
                    "loss": float(loss), "lr": float(lr), **fields})

    def log_epoch(self, epoch, val_dice, best_val_dice):
        self._emit({"kind": "epoch", "epoch": epoch,
                    "val_dice": None if val_dice is None else float(val_dice),
                    "best_val_dice": (None if best_val_dice is None
                                      else float(best_val_dice))})

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_runlog(path):
    """The records of a run log; a line that is not JSON (a partial last
    line after a crash, say) raises ``ValueError`` naming the file and line."""
    with open(path, "rb") as f:
        return [parse_json(line, f"{path}: line {n}")
                for n, line in enumerate(f, 1) if line.strip()]


# ---------------------------------------------------------------------------
# dataset plumbing
# ---------------------------------------------------------------------------

def _read_case(root, entry):
    """Read the case of one manifest entry."""
    cid = entry["id"]
    return {"id": cid, "split": entry.get("split", "train"),
            "image": read_volume(root / f"{cid}_img"),
            "labels": read_volume(root / f"{cid}_lbl")}


def load_dataset(data_dir):
    """Read every case referenced by the manifest; returns (cases, manifest)
    where each case is {id, split, image: Volume, labels: LabelVolume}."""
    root = Path(data_dir)
    manifest = read_manifest(root / "manifest.json")
    return [_read_case(root, e) for e in manifest["cases"]], manifest


# ---------------------------------------------------------------------------
# sliding-window inference
# ---------------------------------------------------------------------------

def window_starts(extent, patch):
    """Start offsets covering ``extent`` with ~50% overlap; the final window
    is clamped so the volume tail is always covered."""
    if patch > extent:
        raise ValueError(f"window size {patch} exceeds volume extent {extent}")
    if patch == extent:
        return [0]
    step = max(1, patch // 2)
    starts = list(range(0, extent - patch + 1, step))
    if starts[-1] != extent - patch:
        starts.append(extent - patch)
    return starts


def stitch_windows(shape, windows):
    """Uniformly average per-window logits into a full (K, D, H, W) float64
    grid.  Windows are accumulated in canonical (z, y, x) start order, so the
    output is bitwise independent of the order they are supplied in.  It
    holds every window it is given plus a sum, a count map and their
    quotient; ``sliding_window_logits`` streams its windows instead and
    matches this function bitwise."""
    ordered = sorted(windows, key=lambda item: tuple(item[0]))
    k = ordered[0][1].shape[0]
    acc = np.zeros((k,) + tuple(shape), dtype=np.float64)
    cnt = np.zeros(tuple(shape), dtype=np.float64)
    for (z, y, x), logits in ordered:
        _, d, h, w = logits.shape
        acc[:, z:z + d, y:y + h, x:x + w] += logits.astype(np.float64)
        cnt[z:z + d, y:y + h, x:x + w] += 1.0
    if (cnt == 0).any():
        raise ValueError("windows do not cover the volume")
    return acc / cnt[None]


def _coverage(extent, patch, starts):
    """How many windows of ``patch`` voxels, starting at ``starts``, cover
    each voxel of an axis of ``extent`` voxels (float64)."""
    counts = np.zeros(extent)
    for s in starts:
        counts[s:s + patch] += 1.0
    return counts


def sliding_window_logits(net, grid, patch_dhw):
    """Averaged class logits (K, D, H, W) float64 for a normalized (D, H, W)
    grid.

    Each window is fed to ``net`` in ``net.dtype``.  Its logits are added into
    one float64 sum as soon as its forward returns, in the canonical (z, y, x)
    start order that ``stitch_windows`` sorts into, and the sum is divided in
    place by the count map, the product of the per-axis window counts (small
    integers, so exact).  The result is bitwise ``stitch_windows`` of the same
    windows, and memory is O(K * volume) whatever the window count."""
    pd, ph, pw = patch_dhw
    starts = [window_starts(n, p) for n, p in zip(grid.shape, patch_dhw)]
    cz, cy, cx = (_coverage(n, p, s) for n, p, s in zip(grid.shape, patch_dhw, starts))
    if not (cz.all() and cy.all() and cx.all()):
        raise ValueError("windows do not cover the volume")
    acc = None
    with ag.no_grad():
        for z in starts[0]:
            for y in starts[1]:
                for x in starts[2]:
                    patch = grid[z:z + pd, y:y + ph, x:x + pw]
                    logits = net(ag.Tensor(patch[None, None].astype(net.dtype))).data[0]
                    if acc is None:
                        acc = np.zeros((logits.shape[0],) + grid.shape)
                    # float32 logits widen exactly to float64 inside the add
                    acc[:, z:z + pd, y:y + ph, x:x + pw] += logits
    acc /= cz[:, None, None] * cy[:, None] * cx
    return acc


class _WindowTooLarge(ValueError):
    """The inference window does not fit the case's grid at the model spacing."""


def predict_label_volume(net, vol, model_cfg):
    """Segment one case: resample to the model spacing, run the sliding
    window, argmax, and map labels back onto the case's native grid.  A case
    whose resampled grid is smaller than the window raises a ``ValueError``."""
    target = tuple(model_cfg.voxel_spacing_mm)
    work = vol if tuple(vol.spacing_mm) == target else resample_to_spacing(vol, target)
    patch = hwd_to_dhw(model_cfg.patch_size)
    if any(p > s for p, s in zip(patch, work.grid.shape)):
        raise _WindowTooLarge(f"patch {patch} larger than case grid {work.grid.shape} "
                              f"after resampling to spacing {target}")
    logits = sliding_window_logits(net, zscore(work.grid), patch)
    pred = LabelVolume(np.argmax(logits, axis=0).astype(np.uint8), work.spacing_mm)
    if work is vol:
        return pred
    return resample_to_grid(pred, vol.grid.shape, vol.spacing_mm)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _validation_dice(net, model_cfg, val_cases):
    """Mean foreground Dice over validation cases; None when there are none."""
    if not val_cases:
        return None
    scores = []
    for case in val_cases:
        pred = predict_label_volume(net, case["image"], model_cfg)
        per_class = [dice(pred, case["labels"], c)
                     for c in range(1, model_cfg.num_classes)]
        scores.append(sum(per_class) / len(per_class))
    return sum(scores) / len(scores)


def _peak_rss_bytes():
    """Lifetime peak RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def train(cfg):
    """Full training run; returns a summary dict with the checkpoint path,
    best validation Dice, and total step count.

    A step of ``b`` >= 2 samples runs the net on two half-batches of
    ceil(b/2) and floor(b/2) samples, one after the other, and takes one
    ``dice_ce_loss`` over both, whose Dice sums span the whole batch.
    ``backward`` then walks the two half-batch graphs as separate branches
    (``autograd.overlap``).  The split depends only on ``batch_size``, so a
    run gives bitwise the same losses and checkpoint on one CPU or two.

    Each step record holds, besides the loss and learning rate, the step's
    ``forward_s`` (forward and loss), ``backward_s`` and ``optim_s`` on the
    run log's clock, the global ``grad_norm``, the ``peak_rss_mb`` so far,
    and the step's ``minor_faults`` and system time ``sys_s`` (``getrusage``
    deltas from the forward to the end of the optimizer step)."""
    for name in ("batch_size", "epochs", "patches_per_case", "val_interval"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not 0.0 <= cfg.fg_bias <= 1.0:
        raise ValueError(f"fg_bias must lie in [0, 1], got {cfg.fg_bias}")
    if len(cfg.patch_size) != 3 or not all(isinstance(n, (int, np.integer)) and n >= 1
                                           for n in cfg.patch_size):
        raise ValueError(f"patch_size must be 3 positive ints (H, W, D), got {cfg.patch_size}")
    cases, manifest = load_dataset(cfg.data_dir)
    train_cases = [c for c in cases if c["split"] == "train"]
    val_cases = [c for c in cases if c["split"] == "val"]
    if not train_cases:
        raise ValueError(f"{cfg.data_dir}: no cases with split 'train'")

    per_epoch_patches = len(train_cases) * cfg.patches_per_case
    if per_epoch_patches % cfg.batch_size != 0:
        raise ValueError(
            f"cases*patches_per_case ({per_epoch_patches}) must be divisible "
            f"by batch_size ({cfg.batch_size})")
    steps_per_epoch = per_epoch_patches // cfg.batch_size
    planned_steps = cfg.epochs * steps_per_epoch

    # read_manifest has checked both fields, when present
    model_cfg = _model_config(cfg, manifest.get("num_classes", 2),
                              manifest.get("spacing_mm", train_cases[0]["image"].spacing_mm))
    net = PHNet(model_cfg, seed=cfg.seed)
    opt = AdamW(net.parameters(), batch_size=cfg.batch_size, lr=cfg.lr,
                betas=(cfg.beta1, cfg.beta2), eps=cfg.eps,
                weight_decay=cfg.weight_decay)
    # made only once the data and the net are known to be good
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # normalize once per volume; patches are cropped from the normalized grid
    norm_train = [(Volume(zscore(c["image"].grid), c["image"].spacing_mm),
                   c["labels"]) for c in train_cases]

    half = (cfg.batch_size + 1) // 2
    halves = [(0, half), (half, cfg.batch_size)] if cfg.batch_size >= 2 else [(0, 1)]

    ckpt_path = out_dir / "best.ckpt"
    best = None
    step = 0
    patch_dhw = hwd_to_dhw(cfg.patch_size)
    with RunLog(out_dir / "runlog.jsonl") as log:
        log.log_meta(planned_steps=planned_steps,
                     steps_per_epoch=steps_per_epoch,
                     lr=opt.lr, param_count=count_params(net),
                     train_cases=len(train_cases), val_cases=len(val_cases),
                     config=asdict(cfg))
        for epoch in range(1, cfg.epochs + 1):
            rng = np.random.default_rng([cfg.seed, 9973, epoch])
            pool = []
            for vol, lab in norm_train:
                pool.extend(sample_patches(vol, lab, patch_dhw,
                                           cfg.patches_per_case,
                                           cfg.fg_bias, rng))
            order = rng.permutation(len(pool))
            for b in range(steps_per_epoch):
                idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                x = np.stack([pool[i][0] for i in idx])[:, None]
                y = np.stack([pool[i][1] for i in idx]).astype(np.int64)
                opt.zero_grad()
                usage0 = resource.getrusage(resource.RUSAGE_SELF)
                t0 = time.monotonic()
                # the half-batches' forwards run here in turn; backward
                # walks their two graphs as separate branches
                logits = [net(ag.Tensor(x[lo:hi])) for lo, hi in halves]
                loss = dice_ce_loss(logits, y)
                loss_val = loss.item()
                t1 = time.monotonic()
                step += 1
                if not math.isfinite(loss_val):
                    raise TrainingError(
                        f"non-finite loss {loss_val} at step {step} "
                        f"(epoch {epoch})")
                # the walk releases the tape, so ``logits`` and ``loss`` no
                # longer hold it while the next step's forward runs
                ag.backward(loss)
                t2 = time.monotonic()
                grad_norm = opt.step()
                t3 = time.monotonic()
                usage1 = resource.getrusage(resource.RUSAGE_SELF)
                log.note_step(forward_s=t1 - t0, backward_s=t2 - t1, optim_s=t3 - t2,
                              grad_norm=grad_norm, peak_rss_mb=_peak_rss_bytes() / 1e6,
                              minor_faults=usage1.ru_minflt - usage0.ru_minflt,
                              sys_s=usage1.ru_stime - usage0.ru_stime)
                log.log_step(step, epoch, loss_val, opt.lr)
            if epoch % cfg.val_interval == 0 or epoch == cfg.epochs:
                val = _validation_dice(net, model_cfg, val_cases)
                # no val cases: ``val`` and ``best`` stay None, and each validation saves
                if best is None or val > best:
                    best = val
                    save_checkpoint(net, ckpt_path, meta={
                        "model_config": config_to_dict(model_cfg),
                        "train_config": asdict(cfg),
                        "epoch": epoch,
                        "val_dice": val,
                    })
                log.log_epoch(epoch, val, best)
    return {"steps": step, "planned_steps": planned_steps,
            "best_val_dice": best, "checkpoint": str(ckpt_path),
            "runlog": str(out_dir / "runlog.jsonl")}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class _SharedChunks:
    """The distance-query chunks of one case, queued by the thread that
    scores it and run by every thread that calls ``drain``."""

    def __init__(self):
        self._chunks = queue.SimpleQueue()
        self._queued = threading.Event()

    def put_all(self, chunks):
        for run in chunks:
            self._chunks.put(run)
        self._queued.set()

    def drain(self):
        """Once the chunks are queued, run them until none is left."""
        self._queued.wait()
        while True:
            try:
                run = self._chunks.get_nowait()
            except queue.Empty:
                return
            run()


def evaluate(checkpoint_path, data_dir, out_csv=None, split="val",
             tolerance_mm=1.0, percentile=95):
    """Segment every case in ``split`` with ``predict_label_volume`` and
    compute all metrics per class on the case's native grid.  Only the cases
    of ``split`` are read.  A case whose resampled grid is smaller than the
    inference window contributes an error row, with the message that
    ``predict_label_volume`` raises, instead of metric rows.

    Case k is scored beside the read and segmentation of case k+1, one pair
    at a time, through ``autograd.overlap``.  The worker builds case k's
    masks, voxel counts, surface points and KD-trees (``score_case``) and
    queues its distance queries as chunks of ``metrics.QUERY_CHUNK`` query
    points; the calling thread segments case k+1 and then runs chunks
    beside the worker until none is left.  Both threads run the last case's
    chunks.  Each chunk writes its own slice of the distances, so the rows,
    and the error of the first failing case in case order, are the
    sequential loop's.  On one CPU ``overlap`` runs the scoring of case k
    and then the segmentation of case k+1, in turn.  Case k's scoring error
    is raised before case k+2 is read.  A bad ``tolerance_mm`` or
    ``percentile`` is raised before the checkpoint is opened."""
    # the metrics' own checks: a split of error rows never reaches score_case
    _surface_dice_of(None, tolerance_mm)
    _hausdorff_of(None, percentile)
    net = net_from_checkpoint(checkpoint_path)
    model_cfg = net.cfg

    root = Path(data_dir)
    chosen = [e for e in read_manifest(root / "manifest.json")["cases"]
              if e.get("split", "train") == split]
    if not chosen:
        raise ValueError(f"{data_dir}: no cases with split {split!r}")

    def segment(entry):
        """The case id, reference labels and prediction on the native grid
        of ``entry``'s case, or None and why the window does not fit it."""
        case = _read_case(root, entry)
        try:
            pred = predict_label_volume(net, case["image"], model_cfg)
        except _WindowTooLarge as e:
            return case["id"], case["labels"], None, str(e)
        return case["id"], case["labels"], pred, None

    def score(shared, cid, labels, pred, problem):
        """Queue the case's chunks on ``shared`` and run them with the
        other thread; returns the call that makes the case's rows once both
        threads are done."""
        chunks, rows = [], lambda: [{"class": "", "error": problem}]
        try:
            if not problem:
                chunks, rows = score_case(pred, labels, model_cfg.num_classes,
                                          tolerance_mm=tolerance_mm, percentile=percentile)
        finally:
            # also when scoring fails, so that the other thread stops waiting
            shared.put_all(chunks)
        shared.drain()
        return lambda: [{"case": cid, **r} for r in rows()]

    def segment_and_help(shared, entry):
        segmented = None if entry is None else segment(entry)
        shared.drain()
        return segmented

    rows = []
    segmented = segment(chosen[0])
    for entry in [*chosen[1:], None]:
        shared = _SharedChunks()
        case_rows, segmented = ag.overlap(partial(score, shared, *segmented),
                                          partial(segment_and_help, shared, entry))
        rows.extend(case_rows())
    if out_csv is not None:
        write_report_csv(out_csv, rows)
    return rows


# ---------------------------------------------------------------------------
# gradient verification suite
# ---------------------------------------------------------------------------

BLOCK_GRAD_TOL = 1e-5
E2E_GRAD_TOL = 1e-4


def grad_check_suite(seed=0):
    """Finite-difference verification of every differentiable building block
    plus the assembled network, all in float64.

    Objectives are random-weighted output sums (a J^T w probe); a plain
    scalar like the output mean is nearly invariant to the input for
    normalization layers, which makes its true gradient vanish and the
    finite-difference quotient numerically meaningless.

    Returns one record per check: name, max relative error, tolerance, and
    pass flag.
    """
    from .layers import (
        ChannelNorm,
        Conv,
        ConvTranspose,
        Linear,
        ResidualConvBlock,
        SeparableConvBlock,
        conv_nd,
    )
    from .mlpp import MLPPBlock, mix

    rng = np.random.default_rng(seed)
    f64 = np.float64

    def probe(fn, wrt, **shapes):
        """Max relative error of the gradient of sum(w * fn(**inputs)) in input
        ``wrt``, the other inputs held; the inputs and w are drawn from ``rng``."""
        inputs = {name: ag.Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
        with ag.no_grad():
            w = ag.Tensor(rng.normal(size=fn(**inputs).shape))
        return ag.grad_check(lambda t: (fn(**{**inputs, wrt: t}) * w).sum(), inputs[wrt])

    checks = []

    def add(name, err, tol=BLOCK_GRAD_TOL):
        checks.append({"name": name, "max_rel_err": float(err),
                       "tolerance": tol, "passed": bool(err < tol)})

    mk = np.random.default_rng(seed + 1)
    add("conv3d_input",
        probe(Conv(2, 3, (2, 3, 3), stride=(1, 2, 2), padding=(0, 1, 1),
                   bias=True, rng=mk, dtype=f64), "x", x=(1, 2, 3, 6, 6)))

    add("conv3d_kernel",
        probe(partial(conv_nd, stride=(1, 2, 2), padding=(0, 1, 1)), "kernel",
              x=(1, 2, 3, 6, 6), kernel=(3, 2, 2, 3, 3)))

    add("conv_transpose_input",
        probe(ConvTranspose(2, 2, 2, rng=mk, dtype=f64), "x", x=(1, 2, 2, 3, 3)))

    # an MLPP pathway node, on token segments and on attention windows,
    # checked in each of its three inputs
    fc = Linear(4, 4, dtype=f64)

    def pathway(x, weight, bias, kind):
        fc.weight, fc.bias = weight, bias
        return mix(x, fc, kind, 2)

    for wrt, name in (("x", "input"), ("weight", "weight"), ("bias", "bias")):
        add(f"mix_{name}",
            max(probe(partial(pathway, kind=kind), wrt, x=(1, 4, 2, 4, 4), weight=(4, 4),
                      bias=(4,)) for kind in ("H", "window")))

    # the node every norm conv of the network runs: relu(IN(conv(x)) + skip),
    # checked in each of its five inputs
    def fused(x, kernel, gamma, beta, skip):
        return conv_nd(x, kernel, padding=(0, 1, 1), norm=(gamma, beta), skip=skip, relu=True)

    fused_shapes = {"x": (2, 2, 3, 4, 4), "kernel": (3, 2, 1, 3, 3), "gamma": (3,),
                    "beta": (3,), "skip": (2, 3, 3, 4, 4)}
    add("conv_norm_skip_relu",
        max(probe(fused, name, **fused_shapes) for name in fused_shapes))

    add("channel_norm_input",
        probe(ChannelNorm(5, dtype=f64), "x", x=(2, 5, 2, 3, 3)))

    add("residual_block_input",
        probe(ResidualConvBlock(2, 4, stride=(1, 2, 2), rng=mk, dtype=f64), "x",
              x=(1, 2, 2, 4, 4)))

    add("separable_block_input",
        probe(SeparableConvBlock(3, rng=mk, dtype=f64), "x", x=(1, 3, 3, 4, 4)))

    add("mlpp_block_input",
        probe(MLPPBlock(channels=4, l_ip=2, l_tp=2, num_layers=1, rng=mk, dtype=f64), "x",
              x=(1, 4, 2, 4, 4)))

    net_cfg = PHNetConfig(num_stages=2, base_channels=2, max_channels=4,
                          num_classes=2, voxel_spacing_mm=(1.0, 1.0, 4.0),
                          patch_size=(8, 8, 4), blocks_per_stage=1,
                          mlpp_num_layers=1)
    net = PHNet(net_cfg, seed=seed, dtype=f64)
    add("network_end_to_end",
        probe(net, "x", x=(1, 1, 4, 8, 8)),
        E2E_GRAD_TOL)

    return checks


# ---------------------------------------------------------------------------
# benchmarking
# ---------------------------------------------------------------------------

def bench(model_cfg, batch_size=1, repeats=3, seed=0):
    """Analytic cost plus measured forward throughput for one configuration.

    FLOPs come from the model's own accounting (multiply-accumulate based);
    throughput excludes one warmup forward; peak resident memory is
    best-effort from the OS accounting of this process.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    net = PHNet(model_cfg, seed=seed)
    d, h, w = hwd_to_dhw(model_cfg.patch_size)
    shape = (batch_size, 1, d, h, w)
    flops, out_shape = net.count_flops(shape)
    x = np.zeros(shape, dtype=np.float32)
    with ag.no_grad():
        net(ag.Tensor(x))                      # warmup, excluded from timing
        t0 = time.perf_counter()
        for _ in range(repeats):
            net(ag.Tensor(x))
        elapsed = time.perf_counter() - t0
    voxels = batch_size * d * h * w * repeats
    return {
        "params": count_params(net),
        "flops_per_forward": flops,
        "output_shape": tuple(out_shape),
        "input_shape": shape,
        "repeats": repeats,
        "seconds_per_forward": elapsed / repeats,
        "voxels_per_second": voxels / elapsed if elapsed > 0 else float("inf"),
        "peak_rss_bytes": _peak_rss_bytes(),
    }
