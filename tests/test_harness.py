"""Tests for the training/evaluation/benchmark harness.

Uses a miniature on-disk dataset and a tiny two-stage network so full
training runs finish in seconds.  Window stitching is verified against an
independent per-voxel gather-and-average oracle.
"""

import csv
import dataclasses
import json
import math
import os
import re
import shutil
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phnet import autograd as ag
from phnet import harness
from phnet import layers
from phnet import metrics
from phnet import model
from phnet.data import (
    LabelVolume,
    SyntheticSpec,
    Volume,
    generate_synthetic_case,
    write_manifest,
    write_volume,
)
from phnet.harness import (
    RunLog,
    TrainConfig,
    bench,
    evaluate,
    load_dataset,
    predict_label_volume,
    read_runlog,
    sliding_window_logits,
    stitch_windows,
    train,
    window_starts,
)
from phnet.metrics import dice_ce_loss, evaluate_case, score_case
from phnet.model import (
    PHNet,
    PHNetConfig,
    config_from_dict,
    config_to_dict,
    net_from_checkpoint,
    save_checkpoint,
)
from phnet.optim import TrainingError

SPACING = (1.0, 1.0, 4.0)
SHAPE = (8, 16, 16)          # (D, H, W)


def make_dataset(root, n_train=3, n_val=1, shape=SHAPE, num_classes=2):
    root.mkdir(parents=True, exist_ok=True)
    cases = []
    for i in range(n_train + n_val):
        spec = SyntheticSpec(shape=shape, spacing_mm=SPACING,
                             num_classes=num_classes,
                             blobs_per_class=(1, 2),
                             radius_range_mm=(3.0, 5.0), seed=100 + i)
        vol, lab = generate_synthetic_case(spec)
        cid = f"case_{i:03d}"
        write_volume(root / f"{cid}_img", vol)
        write_volume(root / f"{cid}_lbl", lab)
        cases.append((cid, "train" if i < n_train else "val"))
    write_manifest(root / "manifest.json", cases,
                   extra={"num_classes": num_classes,
                          "spacing_mm": list(SPACING),
                          "shape": list(shape)})
    return root


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return make_dataset(tmp_path_factory.mktemp("data"))


def tiny_config(dataset, out_dir, **overrides):
    kwargs = dict(
        data_dir=str(dataset), out_dir=str(out_dir),
        epochs=2, batch_size=2, patches_per_case=2,
        patch_size=(16, 16, 8), fg_bias=0.8, val_interval=1, seed=1,
        num_stages=2, base_channels=4, max_channels=8,
        blocks_per_stage=1, mlpp_num_layers=1,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def nested_form(c, **mlpp):
    """``config_to_dict`` output ``c`` in the form checkpoint headers held
    before ``PHNetConfig`` lost ``in_channels`` and its ``mlpp`` object, with
    ``mlpp`` replacing entries of that object."""
    flat = {k: v for k, v in c.items() if k != "mlpp_num_layers"}
    return {**flat, "in_channels": 1,
            "mlpp": {"l_ip": None, "l_aa": None, "l_tp": None,
                     "num_layers": c["mlpp_num_layers"], **mlpp}}


def tiny_model_config(num_classes=2):
    return PHNetConfig(num_stages=2, base_channels=4, max_channels=8,
                       num_classes=num_classes, voxel_spacing_mm=SPACING,
                       patch_size=(16, 16, 8), blocks_per_stage=1,
                       mlpp_num_layers=1)


# ---------------------------------------------------------------------------
# window placement and stitching
# ---------------------------------------------------------------------------

class TestWindowStarts:
    def test_exact_cover_half_overlap(self):
        assert window_starts(16, 8) == [0, 4, 8]

    def test_window_equals_extent(self):
        assert window_starts(8, 8) == [0]

    def test_tail_clamped(self):
        assert window_starts(11, 4) == [0, 2, 4, 6, 7]

    def test_window_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            window_starts(4, 8)


@given(st.integers(1, 300), st.data())
def test_generated_window_starts_cover_the_extent(extent, data):
    patch = data.draw(st.integers(1, extent))
    starts = window_starts(extent, patch)
    assert starts == sorted(set(starts))
    assert starts[0] == 0 and starts[-1] == extent - patch
    covered = np.zeros(extent, dtype=bool)
    for s in starts:
        covered[s:s + patch] = True
    assert covered.all()


def gather_mean_oracle(shape, windows):
    """Per-voxel gather: collect every window's contribution, then average."""
    k = windows[0][1].shape[0]
    lists = [[[] for _ in range(int(np.prod(shape)))] for _ in range(k)]
    for (z, y, x), logits in windows:
        _, d, h, w = logits.shape
        for dz in range(d):
            for dy in range(h):
                for dx in range(w):
                    flat = ((z + dz) * shape[1] + (y + dy)) * shape[2] + (x + dx)
                    for c in range(k):
                        lists[c][flat].append(float(logits[c, dz, dy, dx]))
    out = np.zeros((k,) + tuple(shape))
    for c in range(k):
        for flat, vals in enumerate(lists[c]):
            z, rem = divmod(flat, shape[1] * shape[2])
            y, x = divmod(rem, shape[2])
            out[c, z, y, x] = sum(vals) / len(vals)
    return out


class TestStitchWindows:
    def make_windows(self, rng, shape=(6, 6, 6), patch=(4, 4, 4), k=2):
        windows = []
        for z in window_starts(shape[0], patch[0]):
            for y in window_starts(shape[1], patch[1]):
                for x in window_starts(shape[2], patch[2]):
                    windows.append(((z, y, x),
                                    rng.normal(size=(k,) + patch).astype(np.float32)))
        return shape, windows

    def test_single_window_is_identity(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4, 5, 6)).astype(np.float32)
        out = stitch_windows((4, 5, 6), [((0, 0, 0), logits)])
        assert np.array_equal(out, logits.astype(np.float64))

    def test_matches_gather_oracle(self):
        rng = np.random.default_rng(1)
        shape, windows = self.make_windows(rng)
        got = stitch_windows(shape, windows)
        want = gather_mean_oracle(shape, windows)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_traversal_order_invariant_bitwise(self):
        rng = np.random.default_rng(2)
        shape, windows = self.make_windows(rng)
        base = stitch_windows(shape, windows)
        for trial in range(5):
            shuffled = [windows[i]
                        for i in np.random.default_rng(trial).permutation(len(windows))]
            assert np.array_equal(stitch_windows(shape, shuffled), base)

    def test_uncovered_voxels_rejected(self):
        logits = np.zeros((2, 2, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="cover"):
            stitch_windows((4, 4, 4), [((0, 0, 0), logits)])

    def test_constant_windows_average_to_constant(self):
        rng = np.random.default_rng(3)
        shape, windows = self.make_windows(rng)
        const = [(pos, np.full_like(lg, 2.5)) for pos, lg in windows]
        out = stitch_windows(shape, const)
        assert np.allclose(out, 2.5)


@given(st.data())
def test_generated_stitch_is_bitwise_independent_of_window_order(data):
    shape = tuple(data.draw(st.integers(1, 7)) for _ in range(3))
    patch = tuple(data.draw(st.integers(1, n)) for n in shape)
    k = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # float64 logits: the rounding of each overlap's sum depends on the order
    # in which the windows are added
    windows = [((z, y, x), rng.normal(size=(k,) + patch))
               for z in window_starts(shape[0], patch[0])
               for y in window_starts(shape[1], patch[1])
               for x in window_starts(shape[2], patch[2])]
    base = stitch_windows(shape, windows)
    shuffled = data.draw(st.permutations(windows))
    assert stitch_windows(shape, shuffled).tobytes() == base.tobytes()


class TestSlidingWindow:
    def test_whole_volume_window_equals_single_forward(self):
        net = PHNet(tiny_model_config(), seed=0)
        rng = np.random.default_rng(4)
        grid = rng.normal(size=SHAPE).astype(np.float32)
        stitched = sliding_window_logits(net, grid, (8, 16, 16))
        with ag.no_grad():
            single = net(ag.Tensor(grid[None, None])).data[0]
        assert np.array_equal(stitched, single.astype(np.float64))

    def test_overlapping_windows_match_oracle(self):
        net = PHNet(tiny_model_config(), seed=0)
        rng = np.random.default_rng(5)
        grid = rng.normal(size=(12, 24, 24)).astype(np.float32)
        got = sliding_window_logits(net, grid, (8, 16, 16))
        windows = []
        with ag.no_grad():
            for z in window_starts(12, 8):
                for y in window_starts(24, 16):
                    for x in window_starts(24, 16):
                        patch = grid[z:z + 8, y:y + 16, x:x + 16]
                        windows.append(((z, y, x),
                                        net(ag.Tensor(patch[None, None])).data[0]))
        want = gather_mean_oracle((12, 24, 24), windows)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_deterministic(self):
        net = PHNet(tiny_model_config(), seed=0)
        rng = np.random.default_rng(6)
        grid = rng.normal(size=(8, 24, 24)).astype(np.float32)
        a = sliding_window_logits(net, grid, (8, 16, 16))
        b = sliding_window_logits(net, grid, (8, 16, 16))
        assert np.array_equal(a, b)


class _WindowNet:
    """Stand-in net for a grid that holds each voxel's flat index: a window's
    first voxel names its start.  Returns ``k`` seeded random float32 logits
    per window and, when ``record`` is set, keeps each (start, logits)."""

    def __init__(self, shape, k, record=True):
        self.shape, self.k = shape, k
        self.dtype = np.dtype(np.float32)
        self.rng = np.random.default_rng(0)
        self.windows = [] if record else None

    def __call__(self, t):
        x = t.data
        z, rem = divmod(int(x[0, 0, 0, 0, 0]), self.shape[1] * self.shape[2])
        start = (z,) + divmod(rem, self.shape[2])
        logits = self.rng.standard_normal((self.k,) + x.shape[2:], dtype=np.float32)
        if self.windows is not None:
            self.windows.append((start, logits))
        return ag.Tensor(logits[None])


def _index_grid(shape):
    return np.arange(math.prod(shape), dtype=np.float32).reshape(shape)


class TestStreamedWindows:
    # the last window of every axis is clamped: starts [0, 2, 3], [0, 3, 5]
    # and [0, 4, 5]
    SHAPE, PATCH = (7, 11, 13), (4, 6, 8)

    def test_bitwise_equal_to_stitching_the_recorded_windows(self):
        net = _WindowNet(self.SHAPE, k=3)
        got = sliding_window_logits(net, _index_grid(self.SHAPE), self.PATCH)
        assert [start for start, _ in net.windows] == sorted(
            (z, y, x) for z in (0, 2, 3) for y in (0, 3, 5) for x in (0, 4, 5))
        want = stitch_windows(self.SHAPE, net.windows)
        assert got.dtype == np.float64 and got.shape == (3,) + self.SHAPE
        assert got.tobytes() == want.tobytes()

    def test_uncovered_axis_rejected_before_any_forward(self, monkeypatch):
        monkeypatch.setattr(harness, "window_starts", lambda extent, patch: [0])
        net = _WindowNet(self.SHAPE, k=3)
        with pytest.raises(ValueError, match="cover"):
            sliding_window_logits(net, _index_grid(self.SHAPE), self.PATCH)
        assert net.windows == []

    def test_memory_does_not_hold_every_window(self):
        # 27 windows; the traced peak stays below the logits of every window
        # plus one float64 sum (holding the windows and then stitching them
        # needs more)
        shape, patch, k = (16, 32, 32), (8, 16, 16), 3
        grid = _index_grid(shape)
        net = _WindowNet(shape, k, record=False)
        windows = math.prod(len(window_starts(n, p)) for n, p in zip(shape, patch))
        assert windows == 27
        bound = windows * k * math.prod(patch) * 4 + k * math.prod(shape) * 8
        tracemalloc.start()
        try:
            sliding_window_logits(net, grid, patch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_float64_net_runs_its_windows_in_float64(self, monkeypatch):
        dtypes = []

        def recording(fn):
            def wrapped(x, *args, **kwargs):
                out = fn(x, *args, **kwargs)
                dtypes.append((x.data.dtype, out.data.dtype))
                return out
            return wrapped

        for name in ("conv_nd", "conv_transpose_nd"):
            monkeypatch.setattr(layers, name, recording(getattr(layers, name)))
        net = PHNet(tiny_model_config(), seed=0, dtype=np.float64)
        assert net.dtype == np.float64
        rng = np.random.default_rng(8)
        grid = rng.normal(size=SHAPE).astype(np.float32)
        got = sliding_window_logits(net, grid, (8, 16, 16))
        assert dtypes and set(dtypes) == {(np.dtype(np.float64),) * 2}
        with ag.no_grad():
            single = net(ag.Tensor(grid[None, None].astype(np.float64))).data[0]
        assert single.dtype == np.float64
        assert np.array_equal(got, single)


class TestPredict:
    def test_native_spacing_shape_and_ids(self):
        net = PHNet(tiny_model_config(), seed=0)
        vol, _ = generate_synthetic_case(
            SyntheticSpec(shape=SHAPE, spacing_mm=SPACING,
                          radius_range_mm=(3.0, 5.0), seed=0))
        pred = predict_label_volume(net, vol, tiny_model_config())
        assert isinstance(pred, LabelVolume)
        assert pred.grid.shape == SHAPE
        assert pred.spacing_mm == SPACING
        assert pred.grid.max() <= 1

    def test_resampled_case_maps_back_to_native_grid(self):
        cfg = tiny_model_config()
        net = PHNet(cfg, seed=0)
        # native spacing twice as fine through-plane: resampling halves D,
        # prediction must still come back on the native grid
        rng = np.random.default_rng(7)
        vol = Volume(rng.normal(size=(16, 16, 16)).astype(np.float32),
                     (1.0, 1.0, 2.0))
        pred = predict_label_volume(net, vol, cfg)
        assert pred.grid.shape == (16, 16, 16)
        assert pred.spacing_mm == (1.0, 1.0, 2.0)

    def test_patch_larger_than_case_rejected(self):
        cfg = tiny_model_config()
        net = PHNet(cfg, seed=0)
        vol = Volume(np.zeros((4, 8, 8), np.float32), SPACING)
        with pytest.raises(ValueError, match="larger than case"):
            predict_label_volume(net, vol, cfg)


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------

class TestRunLog:
    def test_records_and_round_trip(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        with RunLog(path) as log:
            log.log_meta(planned_steps=4, lr=0.001)
            log.log_step(1, 1, 0.9, 0.001)
            log.log_step(2, 1, 0.8, 0.001)
            log.log_epoch(1, 0.5, 0.5)
        records = read_runlog(path)
        assert [r["kind"] for r in records] == ["meta", "step", "step", "epoch"]
        assert records[1]["step"] == 1 and records[2]["loss"] == 0.8
        assert records[3]["val_dice"] == 0.5

    def test_steps_strictly_increasing(self, tmp_path):
        with RunLog(tmp_path / "runlog.jsonl") as log:
            log.log_step(1, 1, 0.9, 0.001)
            with pytest.raises(ValueError, match="increase"):
                log.log_step(1, 1, 0.8, 0.001)
            with pytest.raises(ValueError, match="increase"):
                log.log_step(3, 1, 0.8, 0.001)

    def test_wall_time_monotone(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        with RunLog(path) as log:
            for s in range(1, 6):
                log.log_step(s, 1, 1.0, 0.001)
        times = [r["wall_time_s"] for r in read_runlog(path)]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert all(t >= 0 for t in times)

    def test_every_record_timestamped(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        with RunLog(path) as log:
            log.log_step(1, 1, 0.5, 0.001)
        rec = read_runlog(path)[0]
        assert "timestamp" in rec and "wall_time_s" in rec

    def test_partial_last_line_rejected_naming_file_and_line(self, tmp_path):
        # a crash mid-write leaves the last record cut short
        path = tmp_path / "runlog.jsonl"
        with RunLog(path) as log:
            log.log_meta(planned_steps=2)
            log.log_step(1, 1, 0.5, 0.001)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ValueError) as info:
            read_runlog(path)
        assert str(info.value).startswith(f"{path}: line 2: not valid JSON (")


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

class TestLoadDataset:
    def test_loads_all_cases_with_splits(self, dataset):
        cases, manifest = load_dataset(dataset)
        assert len(cases) == 4
        assert [c["split"] for c in cases] == ["train"] * 3 + ["val"]
        assert manifest["num_classes"] == 2
        for c in cases:
            assert isinstance(c["image"], Volume)
            assert isinstance(c["labels"], LabelVolume)
            assert c["image"].grid.shape == SHAPE


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class TestTrain:
    def test_step_bookkeeping_and_outputs(self, dataset, tmp_path):
        cfg = tiny_config(dataset, tmp_path / "run")
        result = train(cfg)
        # steps = epochs * cases * patches_per_case / batch = 2*3*2/2 = 6
        assert result["steps"] == result["planned_steps"] == 6
        records = read_runlog(result["runlog"])
        steps = [r for r in records if r["kind"] == "step"]
        epochs = [r for r in records if r["kind"] == "epoch"]
        assert [r["step"] for r in steps] == [1, 2, 3, 4, 5, 6]
        assert all(math.isfinite(r["loss"]) for r in steps)
        assert len(epochs) == 2
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert 0.0 <= result["best_val_dice"] <= 1.0

    def test_lr_follows_batch_rule(self, dataset, tmp_path):
        result = train(tiny_config(dataset, tmp_path / "run"))
        meta = [r for r in read_runlog(result["runlog"]) if r["kind"] == "meta"][0]
        assert meta["lr"] == 1e-3 * 2 / 1024

    def test_lr_override(self, dataset, tmp_path):
        result = train(tiny_config(dataset, tmp_path / "run", lr=0.01, epochs=1))
        meta = [r for r in read_runlog(result["runlog"]) if r["kind"] == "meta"][0]
        assert meta["lr"] == 0.01

    def test_deterministic_given_seed(self, dataset, tmp_path):
        r1 = train(tiny_config(dataset, tmp_path / "a", epochs=1))
        r2 = train(tiny_config(dataset, tmp_path / "b", epochs=1))
        l1 = [r["loss"] for r in read_runlog(r1["runlog"]) if r["kind"] == "step"]
        l2 = [r["loss"] for r in read_runlog(r2["runlog"]) if r["kind"] == "step"]
        assert l1 == l2     # bitwise-identical float sequences

    def test_seed_changes_run(self, dataset, tmp_path):
        r1 = train(tiny_config(dataset, tmp_path / "a", epochs=1, seed=1))
        r2 = train(tiny_config(dataset, tmp_path / "b", epochs=1, seed=2))
        l1 = [r["loss"] for r in read_runlog(r1["runlog"]) if r["kind"] == "step"]
        l2 = [r["loss"] for r in read_runlog(r2["runlog"]) if r["kind"] == "step"]
        assert l1 != l2

    def test_step_records_say_where_time_and_memory_went(self, dataset, tmp_path):
        result = train(tiny_config(dataset, tmp_path / "run", epochs=1))
        records = read_runlog(result["runlog"])
        steps = [r for r in records if r["kind"] == "step"]
        assert len(steps) == 3
        phases = ("forward_s", "backward_s", "optim_s")
        peak = 0.0
        for prev, rec in zip(records, records[1:]):
            if rec["kind"] != "step":
                continue
            assert set(rec) == {"timestamp", "wall_time_s", "kind", "step", "epoch",
                                "loss", "lr", *phases, "grad_norm", "peak_rss_mb",
                                "minor_faults", "sys_s"}
            assert all(isinstance(rec[k], float) and rec[k] > 0 for k in phases)
            # the phases are disjoint parts of the interval between records
            assert sum(rec[k] for k in phases) <= rec["wall_time_s"] - prev["wall_time_s"]
            assert math.isfinite(rec["grad_norm"]) and rec["grad_norm"] > 0
            assert rec["peak_rss_mb"] >= peak and rec["peak_rss_mb"] > 0
            peak = rec["peak_rss_mb"]
            # getrusage deltas over the step
            assert isinstance(rec["minor_faults"], int) and rec["minor_faults"] >= 0
            assert isinstance(rec["sys_s"], float) and rec["sys_s"] >= 0

    def test_a_step_leaves_no_tape_behind(self, dataset, tmp_path, monkeypatch):
        # the loop still names the last step's logits while the next forward
        # runs, so backward must have released them
        seen = []

        def loss_of(logits, labels):
            seen.append(logits)
            return dice_ce_loss(logits, labels)

        monkeypatch.setattr(harness, "dice_ce_loss", loss_of)
        train(tiny_config(dataset, tmp_path / "run", epochs=1))
        assert len(seen) == 3
        for halves in seen:
            assert len(halves) == 2
            for logits in halves:
                assert logits._parents == () and logits._backward is None
                assert logits.grad is None

    def test_checkpoint_meta_records_run(self, dataset, tmp_path):
        result = train(tiny_config(dataset, tmp_path / "run"))
        p = result["checkpoint"]
        net_from_checkpoint(p)
        with open(p, "rb") as f:
            meta = json.loads(f.readline())["meta"]
        assert meta["model_config"]["num_classes"] == 2
        assert meta["model_config"]["voxel_spacing_mm"] == list(SPACING)
        assert meta["val_dice"] == result["best_val_dice"]

    def test_indivisible_batch_rejected(self, dataset, tmp_path):
        cfg = tiny_config(dataset, tmp_path / "run", batch_size=4)
        with pytest.raises(ValueError, match="divisible"):
            train(cfg)   # 3 cases * 2 patches = 6, not divisible by 4

    def test_non_finite_training_aborts_with_step(self, dataset, tmp_path):
        # a finite lr that overflows float32 parameters in the first step
        cfg = tiny_config(dataset, tmp_path / "run", lr=1e300, epochs=1)
        with pytest.raises(TrainingError, match="step"):
            train(cfg)

    def test_no_train_split_rejected(self, tmp_path):
        make_dataset(tmp_path / "d", n_train=0, n_val=2)
        cfg = tiny_config(tmp_path / "d", tmp_path / "run")
        with pytest.raises(ValueError, match="train"):
            train(cfg)


class TestHalfBatchStep:
    """A step of batch b >= 2 runs two half-batch forwards and one loss over
    both, and backward walks the two half-batch graphs as branches."""

    @staticmethod
    def spy_branches(monkeypatch):
        """Per backward call: the number of disjoint branches (0: one walk)
        and whether a worker thread walked any of them."""
        calls = []
        find, overlap = ag._disjoint_branches, ag.overlap

        def disjoint_branches(root):
            branches = find(root)
            calls.append({"branches": len(branches or ()), "worker": False})
            return branches

        def spy_overlap(first, second):
            def on_worker():
                calls[-1]["worker"] |= threading.current_thread() is not threading.main_thread()
                return first()
            return overlap(on_worker, second)

        monkeypatch.setattr(ag, "_disjoint_branches", disjoint_branches)
        monkeypatch.setattr(ag, "overlap", spy_overlap)
        return calls

    @pytest.mark.parametrize("batch,halves", [(1, [1]), (2, [1, 1]), (3, [2, 1]), (4, [2, 2])])
    def test_split_rule_depends_only_on_the_batch_size(self, batch, halves, tmp_path,
                                                       monkeypatch):
        data = make_dataset(tmp_path / "d", n_train=batch, n_val=0)
        seen = []

        def loss_of(logits, labels):
            seen.append(([len(t.data) for t in logits], len(labels)))
            return dice_ce_loss(logits, labels)

        monkeypatch.setattr(harness, "dice_ce_loss", loss_of)
        calls = self.spy_branches(monkeypatch)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            train(tiny_config(data, tmp_path / f"run{len(cpus)}", epochs=1,
                              batch_size=batch, patches_per_case=1))
        assert seen == [(halves, batch)] * 2
        assert [c["branches"] for c in calls] == [0 if batch == 1 else 2] * 2

    def test_demo_config_steps_walk_two_branches_alike_on_one_cpu_and_two(
            self, tmp_path, monkeypatch):
        # the README demo config: batch 4 of whole 64x64x32 volumes, base 8,
        # 4 stages.  A module that shared one op node between the two
        # half-batch graphs would turn the split walk off.  Its GEMMs are
        # large enough for a multi-threaded BLAS to split them, and the
        # branch walks run BLAS on one thread on both schedules, so the
        # parameters after two steps are bitwise equal
        data = tmp_path / "d"
        data.mkdir()
        cases = []
        for i in range(8):
            vol, lab = generate_synthetic_case(SyntheticSpec(
                shape=(32, 64, 64), spacing_mm=SPACING, seed=i))
            write_volume(data / f"case_{i}_img", vol)
            write_volume(data / f"case_{i}_lbl", lab)
            cases.append((f"case_{i}", "train"))
        write_manifest(data / "manifest.json", cases,
                       extra={"num_classes": 2, "spacing_mm": list(SPACING)})
        calls = self.spy_branches(monkeypatch)
        runs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            result = train(TrainConfig(data_dir=str(data), out_dir=str(tmp_path / f"r{len(cpus)}"),
                                       epochs=1, batch_size=4, patches_per_case=1,
                                       patch_size=(64, 64, 32), lr=3e-3, seed=0,
                                       num_stages=4, base_channels=8))
            with open(result["checkpoint"], "rb") as f:
                runs.append(f.read().split(b"\n", 1)[1])
        assert runs[0] == runs[1]
        assert [(c["branches"], c["worker"]) for c in calls] == [(2, False)] * 2 + [(2, True)] * 2

    def test_one_cpu_and_two_give_the_same_run(self, dataset, tmp_path, monkeypatch):
        calls = self.spy_branches(monkeypatch)
        runs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            result = train(tiny_config(dataset, tmp_path / f"run{len(cpus)}"))
            losses = [r["loss"] for r in read_runlog(result["runlog"]) if r["kind"] == "step"]
            with open(result["checkpoint"], "rb") as f:
                payload = f.read().split(b"\n", 1)[1]
            runs.append((losses, payload, result["best_val_dice"]))
        assert len(runs[0][0]) == 6
        assert runs[0] == runs[1]
        # six split steps per run, walked on the worker only with two CPUs
        assert [(c["branches"], c["worker"]) for c in calls] == [(2, False)] * 6 + [(2, True)] * 6


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return train(tiny_config(dataset, out, epochs=1))


class TestEvaluate:
    def test_rows_and_csv(self, trained, dataset, tmp_path):
        out_csv = tmp_path / "report.csv"
        rows = evaluate(trained["checkpoint"], dataset, out_csv=out_csv)
        assert [r["case"] for r in rows] == ["case_003"]
        assert rows[0]["class"] == 1
        assert 0.0 <= rows[0]["dice"] <= 1.0
        with open(out_csv) as f:
            got = list(csv.DictReader(f))
        assert got[-1]["case"] == "mean"

    def test_train_split_evaluable(self, trained, dataset):
        rows = evaluate(trained["checkpoint"], dataset, split="train")
        assert len(rows) == 3

    def test_undersized_case_gets_error_row(self, trained, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        spec = SyntheticSpec(shape=SHAPE, spacing_mm=SPACING,
                             radius_range_mm=(3.0, 5.0), seed=0)
        vol, lab = generate_synthetic_case(spec)
        write_volume(root / "case_000_img", vol)
        write_volume(root / "case_000_lbl", lab)
        small = Volume(vol.grid[:4, :8, :8], SPACING)
        small_lab = LabelVolume(lab.grid[:4, :8, :8], SPACING)
        write_volume(root / "case_001_img", small)
        write_volume(root / "case_001_lbl", small_lab)
        write_manifest(root / "manifest.json",
                       [("case_000", "val"), ("case_001", "val")],
                       extra={"num_classes": 2, "spacing_mm": list(SPACING)})
        rows = evaluate(trained["checkpoint"], root)
        by_case = {}
        for r in rows:
            by_case.setdefault(r["case"], []).append(r)
        assert "error" not in by_case["case_000"][0]
        net = net_from_checkpoint(trained["checkpoint"])
        with pytest.raises(ValueError, match="larger than case") as info:
            predict_label_volume(net, small, net.cfg)
        assert by_case["case_001"] == [{"case": "case_001", "class": "",
                                        "error": str(info.value)}]

    def test_degenerate_resample_is_raised_not_a_row(self, trained, tmp_path):
        # one slice at 1 mm resamples to zero slices at the model's 4 mm: an
        # error of the case, not a window that does not fit
        root = tmp_path / "d"
        root.mkdir()
        write_volume(root / "case_000_img", Volume(np.ones((1, 16, 16), np.float32),
                                                   (1.0, 1.0, 1.0)))
        write_volume(root / "case_000_lbl", LabelVolume(np.zeros((1, 16, 16), np.uint8),
                                                        (1.0, 1.0, 1.0)))
        write_manifest(root / "manifest.json", [("case_000", "val")],
                       extra={"num_classes": 2})
        with pytest.raises(ValueError, match="degenerate output dims"):
            evaluate(trained["checkpoint"], root)

    def test_reads_only_the_requested_split(self, trained, dataset, tmp_path):
        root = tmp_path / "d"
        shutil.copytree(dataset, root)
        (root / "case_000_img.raw").write_bytes(b"corrupt")   # a train case
        rows = evaluate(trained["checkpoint"], root, split="val")
        assert [r["case"] for r in rows] == ["case_003"]
        assert "error" not in rows[0]

    def test_resamples_each_off_spacing_case_once(self, trained, tmp_path,
                                                 monkeypatch):
        # two cases at half the model spacing, one at the model spacing
        root = tmp_path / "d"
        root.mkdir()
        cases = []
        for i, (shape, spacing) in enumerate([((16, 32, 32), (0.5, 0.5, 2.0)),
                                              (SHAPE, SPACING),
                                              ((16, 32, 32), (0.5, 0.5, 2.0))]):
            spec = SyntheticSpec(shape=shape, spacing_mm=spacing,
                                 radius_range_mm=(3.0, 5.0), seed=200 + i)
            vol, lab = generate_synthetic_case(spec)
            write_volume(root / f"case_{i:03d}_img", vol)
            write_volume(root / f"case_{i:03d}_lbl", lab)
            cases.append((f"case_{i:03d}", "val"))
        write_manifest(root / "manifest.json", cases, extra={"num_classes": 2})
        calls = []
        orig = harness.resample_to_spacing

        def counting(vol, target):
            calls.append(tuple(vol.spacing_mm))
            return orig(vol, target)

        monkeypatch.setattr(harness, "resample_to_spacing", counting)
        rows = evaluate(trained["checkpoint"], root)
        assert sorted({r["case"] for r in rows}) == ["case_000", "case_001", "case_002"]
        assert not any(r.get("error") for r in rows)
        assert calls == [(0.5, 0.5, 2.0)] * 2

    def test_reads_the_checkpoint_header_once(self, trained, dataset, monkeypatch):
        calls = []
        orig = model._read_checkpoint_header

        def counting(f, path):
            calls.append(path)
            return orig(f, path)

        monkeypatch.setattr(model, "_read_checkpoint_header", counting)
        evaluate(trained["checkpoint"], dataset)
        assert len(calls) == 1

    def test_checkpoint_without_model_config_rejected(self, dataset, tmp_path):
        path = tmp_path / "bare.ckpt"
        save_checkpoint(PHNet(tiny_model_config(), seed=0), path, meta={})
        with pytest.raises(ValueError, match="model_config"):
            evaluate(path, dataset)

    @pytest.mark.parametrize("edit,message", [
        (lambda c: [c], "model_config must be an object"),
        (lambda c: {**c, "depth": 3}, "'depth'"),
        (lambda c: {k: v for k, v in c.items() if k != "voxel_spacing_mm"}, "'voxel_spacing_mm'"),
        (lambda c: {**c, "mlpp_num_layers": "1"}, "invalid mlpp_num_layers"),
        (lambda c: {k: v for k, v in c.items() if k != "mlpp_num_layers"}, "'mlpp_num_layers'"),
        (lambda c: {**c, "num_stages": "2"}, "invalid num_stages"),
        (lambda c: {**c, "num_classes": True}, "invalid num_classes"),
        (lambda c: {**c, "patch_size": [16.0, 16.0, 8.0]}, "invalid patch_size"),
        (lambda c: {**c, "mlpp_stages": [1, "1"]}, "invalid mlpp_stages"),
        (lambda c: {**nested_form(c), "in_channels": 2}, "invalid in_channels 2"),
        (lambda c: {**nested_form(c), "in_channels": True}, "invalid in_channels True"),
        (lambda c: nested_form(c, l_ip=2), "invalid mlpp.l_ip 2"),
        (lambda c: nested_form(c, l_tp=1), "invalid mlpp.l_tp 1"),
        (lambda c: {**nested_form(c), "mlpp": [None, None, None, 1]}, "invalid mlpp"),
        (lambda c: nested_form(c, num_layers=None), "invalid mlpp_num_layers"),
        (lambda c: {**nested_form(c), "mlpp_num_layers": 1}, "'mlpp_num_layers'"),
        (lambda c: {**c, "in_channels": 1}, "['mlpp', 'mlpp_num_layers']"),
    ], ids=["not_object", "unknown_field", "missing_field", "mlpp_num_layers_string",
            "mlpp_num_layers_missing", "string_int", "bool_int", "float_patch",
            "string_stage", "nested_two_channels", "nested_bool_channels", "nested_l_ip",
            "nested_l_tp", "nested_mlpp_list", "nested_num_layers_null", "nested_and_flat",
            "flat_with_in_channels"])
    def test_malformed_model_config_rejected_naming_the_field(self, edit, message, tmp_path):
        cfg = tiny_model_config()
        good = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(good) == cfg
        path = tmp_path / "bad.ckpt"
        save_checkpoint(PHNet(cfg, seed=0), path, meta={"model_config": edit(good)})
        with pytest.raises(ValueError, match=re.escape(message)):
            net_from_checkpoint(path)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_nested_form_header_loads_the_same_net(self, num_layers, tmp_path):
        # a header in the nested form checkpoints were written in before
        # PHNetConfig lost in_channels and its mlpp object
        cfg = dataclasses.replace(tiny_model_config(), mlpp_num_layers=num_layers)
        net = PHNet(cfg, seed=3)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(net, path, meta={"model_config": config_to_dict(cfg)})
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        manifest["meta"]["model_config"] = nested_form(manifest["meta"]["model_config"])
        old = tmp_path / "nested.ckpt"
        old.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        loaded = net_from_checkpoint(old)
        assert loaded.cfg == cfg
        for (name, p), (other, q) in zip(net.named_parameters(), loaded.named_parameters()):
            assert name == other and np.array_equal(p.data, q.data)
        x = ag.Tensor(np.random.default_rng(4).normal(size=(1, 1, 8, 16, 16)).astype(np.float32))
        with ag.no_grad():
            assert np.array_equal(net(x).data, loaded(x).data)

    def test_missing_split_rejected(self, trained, dataset):
        with pytest.raises(ValueError, match="split"):
            evaluate(trained["checkpoint"], dataset, split="test")

    @pytest.mark.parametrize("option,value", [("tolerance_mm", -1.0), ("tolerance_mm", math.nan),
                                              ("percentile", 50)])
    def test_bad_scoring_option_raised_before_the_checkpoint_is_read(self, option, value,
                                                                     tmp_path):
        # a split whose every case gets an error row never scores a case, so
        # the options are checked before anything is read
        with pytest.raises(ValueError, match=option):
            evaluate(tmp_path / "missing.ckpt", tmp_path, **{option: value})

    def test_perfect_checkpoint_self_consistency(self, trained, dataset, tmp_path):
        # evaluating a prediction against itself (use predictions as labels)
        # must give dice 1: write predicted labels as a new dataset
        net = net_from_checkpoint(trained["checkpoint"])
        cases, _ = load_dataset(dataset)
        case = cases[-1]
        pred = predict_label_volume(net, case["image"], net.cfg)
        root = tmp_path / "self"
        root.mkdir()
        write_volume(root / "case_000_img", case["image"])
        write_volume(root / "case_000_lbl", pred)
        write_manifest(root / "manifest.json", [("case_000", "val")],
                       extra={"num_classes": 2, "spacing_mm": list(SPACING)})
        rows = evaluate(trained["checkpoint"], root)
        assert rows[0]["dice"] == 1.0
        assert rows[0]["iou"] == 1.0


@pytest.fixture(scope="module")
def mixed_dataset(tmp_path_factory):
    """Five val cases: an undersized one (an error row) between good ones,
    two of them off the model spacing."""
    root = tmp_path_factory.mktemp("mixed")
    layouts = [(SHAPE, SPACING), ((16, 32, 32), (0.5, 0.5, 2.0)), ((4, 8, 8), SPACING),
               (SHAPE, SPACING), ((16, 32, 32), (0.5, 0.5, 2.0))]
    for i, (shape, spacing) in enumerate(layouts):
        spec = SyntheticSpec(shape=shape, spacing_mm=spacing,
                             radius_range_mm=(1.5, 2.5), seed=300 + i)
        vol, lab = generate_synthetic_case(spec)
        write_volume(root / f"case_{i:03d}_img", vol)
        write_volume(root / f"case_{i:03d}_lbl", lab)
    write_manifest(root / "manifest.json", [(f"case_{i:03d}", "val") for i in range(5)],
                   extra={"num_classes": 2})
    return root


def sequential_rows(checkpoint, root):
    """``evaluate``'s rows built case by case on the calling thread:
    ``predict_label_volume`` then ``evaluate_case``, or an error row with
    the message the prediction raises."""
    net = net_from_checkpoint(checkpoint)
    cases, _ = load_dataset(root)
    rows = []
    for case in cases:
        try:
            pred = predict_label_volume(net, case["image"], net.cfg)
        except ValueError as e:
            rows.append({"case": case["id"], "class": "", "error": str(e)})
            continue
        rows.extend({"case": case["id"], **r}
                    for r in evaluate_case(pred, case["labels"], net.cfg.num_classes))
    return rows


def recording_score_case(monkeypatch, fail_on=None, before_failing=None):
    """Patch ``harness.score_case`` with a spy that records the thread of
    each call and whether it finished; call ``fail_on`` (0-based) waits for
    ``before_failing`` and then raises."""
    calls = []

    def spy(*args, **kwargs):
        n = len(calls)
        calls.append({"thread": threading.current_thread(), "finished": False})
        try:
            if n == fail_on:
                if before_failing is not None:
                    assert before_failing.wait(10)
                raise RuntimeError(f"scoring call {n} failed")
            return score_case(*args, **kwargs)
        finally:
            calls[n]["finished"] = True

    monkeypatch.setattr(harness, "score_case", spy)
    return calls


def recording_chunks(monkeypatch, meet=False, fail_here=False):
    """Patch the query of one chunk with a spy that records the thread and
    query points of each chunk.  With ``meet``, the first chunk to start
    waits until a chunk has started on a second thread too, so the test
    fails unless two threads run chunks at once; with ``fail_here`` as well,
    the calling thread's first chunk raises once they have met."""
    chunks = []
    caller = threading.current_thread()
    barrier = threading.Barrier(2, timeout=10)
    met = threading.Event()
    orig = metrics._query_into

    def spy(tree, src_pts, out):
        chunks.append({"thread": threading.current_thread(), "points": len(src_pts)})
        if meet and not met.is_set():
            barrier.wait()
            met.set()
            if fail_here and threading.current_thread() is caller:
                raise RuntimeError("chunk failed on the calling thread")
        orig(tree, src_pts, out)

    monkeypatch.setattr(metrics, "_query_into", spy)
    return chunks


# query points per chunk in these tests: each directed query of the mixed
# dataset's cases spans several chunks
SMALL_CHUNK = 16


class TestScoringWorker:
    @pytest.fixture(autouse=True)
    def two_cpus_and_small_chunks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(metrics, "QUERY_CHUNK", SMALL_CHUNK)

    def test_rows_equal_the_sequential_loop_in_case_order(self, trained, mixed_dataset,
                                                         monkeypatch):
        want = sequential_rows(trained["checkpoint"], mixed_dataset)
        calls = recording_score_case(monkeypatch)
        chunks = recording_chunks(monkeypatch)
        rows = evaluate(trained["checkpoint"], mixed_dataset)
        assert [r["case"] for r in rows] == [f"case_{i:03d}" for i in range(5)]
        assert "larger than case" in rows[2]["error"]
        assert rows == want
        # the four good cases were planned, each on the worker, the last
        # one too; their queries span more chunks than there are queries
        assert len(calls) == 4 and all(c["finished"] for c in calls)
        assert not any(c["thread"] is threading.current_thread() for c in calls)
        assert max(c["points"] for c in chunks) == SMALL_CHUNK
        assert len(chunks) > 4 * 2

    @pytest.mark.parametrize("split_of", ["pairs", "last case only"])
    def test_chunks_of_one_case_run_on_both_threads(self, split_of, trained, dataset,
                                                   mixed_dataset, monkeypatch):
        # the mixed split scores case 0 beside case 1's segmentation; the
        # other split has one case, the last, which both threads score
        root = mixed_dataset if split_of == "pairs" else dataset
        want = sequential_rows(trained["checkpoint"], root)
        if split_of != "pairs":
            want = [r for r in want if r["case"] == "case_003"]
        chunks = recording_chunks(monkeypatch, meet=True)
        assert evaluate(trained["checkpoint"], root) == want
        threads = {c["thread"] for c in chunks}
        assert threading.current_thread() in threads and len(threads) >= 2

    def test_a_chunk_error_on_the_calling_thread_stops_the_reads(self, trained,
                                                                mixed_dataset, monkeypatch):
        read = []
        orig_read = harness.read_volume

        def recording_read(base):
            read.append(base.name)
            return orig_read(base)

        monkeypatch.setattr(harness, "read_volume", recording_read)
        recording_chunks(monkeypatch, meet=True, fail_here=True)
        with pytest.raises(RuntimeError, match="chunk failed on the calling thread"):
            evaluate(trained["checkpoint"], mixed_dataset)
        assert read == ["case_000_img", "case_000_lbl", "case_001_img", "case_001_lbl"]
        assert not [t for t in threading.enumerate() if t.name == "phnet-overlap"]

    def test_first_failing_case_wins_and_no_job_outlives_the_call(self, trained,
                                                                 mixed_dataset, tmp_path,
                                                                 monkeypatch):
        # case 1's scoring fails only after case 2's read has failed on this
        # thread; the sequential loop would have stopped at case 1
        root = tmp_path / "d"
        shutil.copytree(mixed_dataset, root)
        (root / "case_002_img.raw").write_bytes(b"corrupt")
        read_failed = threading.Event()
        orig_read = harness.read_volume

        def read(base):
            try:
                return orig_read(base)
            except ValueError:
                read_failed.set()
                raise

        monkeypatch.setattr(harness, "read_volume", read)
        calls = recording_score_case(monkeypatch, fail_on=1, before_failing=read_failed)
        with pytest.raises(RuntimeError, match="scoring call 1 failed") as info:
            evaluate(trained["checkpoint"], root)
        assert "case_002_img.raw" in str(info.value.__context__)
        assert len(calls) == 2 and all(c["finished"] for c in calls)
        assert not [t for t in threading.enumerate() if t.name == "phnet-overlap"]

    def test_a_scoring_failure_stops_the_reads(self, trained, mixed_dataset, monkeypatch):
        # case 1 is read and segmented while case 0 scores; case 0's error is
        # raised before case 2 is read, and case 1 is never scored
        read = []
        orig_read = harness.read_volume

        def recording_read(base):
            read.append(base.name)
            return orig_read(base)

        monkeypatch.setattr(harness, "read_volume", recording_read)
        calls = recording_score_case(monkeypatch, fail_on=0)
        with pytest.raises(RuntimeError, match="scoring call 0 failed"):
            evaluate(trained["checkpoint"], mixed_dataset)
        assert read == ["case_000_img", "case_000_lbl", "case_001_img", "case_001_lbl"]
        assert len(calls) == 1 and calls[0]["finished"]
        assert not [t for t in threading.enumerate() if t.name == "phnet-overlap"]

    def test_an_earlier_cases_read_error_is_raised(self, trained, mixed_dataset, tmp_path,
                                                   monkeypatch):
        root = tmp_path / "d"
        shutil.copytree(mixed_dataset, root)
        (root / "case_001_lbl.raw").write_bytes(b"corrupt")
        calls = recording_score_case(monkeypatch)
        with pytest.raises(ValueError, match="case_001_lbl.raw"):
            evaluate(trained["checkpoint"], root)
        assert len(calls) == 1 and calls[0]["finished"]

    def test_one_cpu_scores_on_the_calling_thread(self, trained, mixed_dataset, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        want = sequential_rows(trained["checkpoint"], mixed_dataset)
        calls = recording_score_case(monkeypatch)
        chunks = recording_chunks(monkeypatch)
        assert evaluate(trained["checkpoint"], mixed_dataset) == want
        assert len(calls) == 4
        assert len(chunks) > 4 * 2
        assert all(c["thread"] is threading.current_thread() for c in calls + chunks)
        assert not [t for t in threading.enumerate() if t.name == "phnet-overlap"]

    def test_without_affinity_the_cpu_count_decides(self, trained, mixed_dataset,
                                                     monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls = recording_score_case(monkeypatch)
        evaluate(trained["checkpoint"], mixed_dataset)
        assert len(calls) == 4
        assert not any(c["thread"] is threading.current_thread() for c in calls)


# ---------------------------------------------------------------------------
# benchmarking
# ---------------------------------------------------------------------------

class TestBench:
    def test_reports_exact_flop_count(self):
        cfg = tiny_model_config()
        report = bench(cfg, batch_size=1, repeats=2)
        net = PHNet(cfg, seed=0)
        flops, out_shape = net.count_flops((1, 1, 8, 16, 16))
        assert report["flops_per_forward"] == flops
        assert report["output_shape"] == tuple(out_shape)

    def test_throughput_and_memory_fields(self):
        report = bench(tiny_model_config(), batch_size=1, repeats=2)
        assert report["seconds_per_forward"] > 0
        assert report["voxels_per_second"] > 0
        assert report["peak_rss_bytes"] > 0
        assert report["params"] > 0

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            bench(tiny_model_config(), repeats=0)
