"""End-to-end tests of the command-line interface: subcommand wiring, exit
codes (0 success / 1 usage / 2 runtime), config-file merging, and the full
gen-data -> train -> eval -> bench pipeline on a miniature dataset."""

import json
import shutil

import numpy as np
import pytest

from phnet.cli import main
from phnet.data import LabelVolume, read_manifest, read_volume, write_volume
from phnet.harness import read_runlog

TINY_GEN = ["--shape", "16", "16", "8", "--spacing", "1", "1", "4",
            "--radius", "3", "5", "--blobs", "1", "2", "--cases", "2",
            "--val-cases", "1", "--seed", "7"]

TINY_MODEL = ["--patch-size", "16", "16", "8", "--num-stages", "2",
              "--base-channels", "4", "--max-channels", "8",
              "--blocks-per-stage", "1", "--mlpp-num-layers", "1"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    assert main(["gen-data", "--out", str(out)] + TINY_GEN) == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["train", "--data-dir", str(dataset), "--out-dir", str(out),
                 "--epochs", "1", "--batch-size", "2",
                 "--patches-per-case", "2"] + TINY_MODEL)
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# exit codes and usage errors
# ---------------------------------------------------------------------------

class TestUsage:
    def test_unknown_subcommand_exits_1_with_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["grad-check", "--frob", "1"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    def test_subcommand_help_exits_0(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "--epochs" in capsys.readouterr().out

    def test_bad_choice_exits_1(self, dataset, capsys):
        code = main(["eval", "--checkpoint", "x", "--data-dir", str(dataset),
                     "--percentile", "42"])
        assert code == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["gen-data"]) == 1


class TestRuntimeErrors:
    def test_missing_checkpoint_exits_2(self, dataset, capsys):
        code = main(["eval", "--checkpoint", "/nonexistent.ckpt",
                     "--data-dir", str(dataset)])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code = main(["train", "--data-dir", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.parametrize("flags,field", [
        (["--batch-size", "0"], "batch_size"),
        (["--epochs", "0"], "epochs"),
        (["--patches-per-case", "0"], "patches_per_case"),
        (["--val-interval", "0"], "val_interval"),
        (["--fg-bias", "2"], "fg_bias"),
        (["--fg-bias", "-0.5"], "fg_bias"),
        (["--lr", "-1"], "lr"),
        (["--lr", "0"], "lr"),
        (["--weight-decay", "-1"], "weight_decay"),
        (["--weight-decay", "nan"], "weight_decay"),
        (["--lr", "inf"], "lr"),
        (["--weight-decay", "inf"], "weight_decay"),
    ])
    def test_bad_train_config_exits_2_naming_the_field(self, flags, field, dataset,
                                                       tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data-dir", str(dataset), "--out-dir", str(out),
                     "--epochs", "1", "--batch-size", "2", "--patches-per-case", "2"]
                    + TINY_MODEL + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {field} " in err and "Traceback" not in err
        # the run's counts and fg_bias are checked before any data is read,
        # lr where the optimizer is built; both before the out dir is made
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--base-channels", "0"], "base_channels must be >= 1"),
        (["--max-channels", "0"], "max_channels must be >= 1"),
        (["--blocks-per-stage", "0"], "blocks_per_stage must be >= 1"),
        (["--classes", "1"], "num_classes must be >= 2"),
        (["--patch-size", "0", "64", "32"], "input extents (D,H,W)=(32, 0, 64)"),
        (["--mlpp-num-layers", "0"], "mlpp_num_layers must be >= 1"),
    ], ids=["base_channels", "max_channels", "blocks_per_stage", "num_classes",
            "patch_size", "mlpp_num_layers"])
    def test_bad_model_config_exits_2_naming_the_field(self, flags, message, capsys):
        code = main(["flops"] + flags)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: {message}" in captured.err and "Traceback" not in captured.err

    def test_invalid_generation_exits_2(self, tmp_path, capsys):
        # default 10-16 mm blobs cannot fit a 16 mm-extent volume
        code = main(["gen-data", "--out", str(tmp_path / "d"),
                     "--shape", "16", "16", "4", "--spacing", "1", "1", "1"])
        assert code == 2
        assert "fit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

class TestGenData:
    def test_layout_and_manifest(self, dataset):
        manifest = read_manifest(dataset / "manifest.json")
        assert [c["split"] for c in manifest["cases"]] == ["train", "train", "val"]
        assert manifest["num_classes"] == 2
        vol = read_volume(dataset / "case_000_img")
        lab = read_volume(dataset / "case_000_lbl")
        # --shape X Y Z = 16 16 8 -> grid (D,H,W) = (8,16,16)
        assert vol.grid.shape == (8, 16, 16)
        assert lab.grid.shape == (8, 16, 16)
        assert vol.spacing_mm == (1.0, 1.0, 4.0)

    def test_too_many_classes_exits_2_naming_the_field(self, tmp_path, capsys):
        # labels are uint8, so 256 classes is the most a dataset can hold
        code = main(["gen-data", "--out", str(tmp_path / "d"), "--classes", "257"] + TINY_GEN)
        err = capsys.readouterr().err
        assert code == 2
        assert "error: num_classes" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags,field", [
        (["--blobs", "2", "1"], "blobs_per_class"),
        (["--blobs", "-1", "0"], "blobs_per_class"),
        (["--radius", "5", "3"], "radius_range_mm"),
        (["--noise", "-1"], "noise_sigma"),
    ], ids=["blobs_reversed", "blobs_negative", "radius_reversed", "noise_negative"])
    def test_bad_range_exits_2_naming_the_field_before_writing(self, flags, field,
                                                               tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["gen-data", "--out", str(out)] + TINY_GEN + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {field} " in err and "Traceback" not in err
        assert not out.exists()

    def test_misfit_radius_exits_2_before_making_the_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["gen-data", "--out", str(out), "--shape", "16", "16", "4",
                     "--spacing", "1", "1", "1", "--cases", "1", "--val-cases", "0"])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert ("error: radius_range_mm: blobs of radius up to 16.0 mm do not fit "
                "the volume extent (16.0, 16.0, 4.0) mm") in err
        assert "np." not in err and "Traceback" not in err

    @pytest.mark.parametrize("hi,code", [("2", 0), ("2.01", 2)], ids=["fits", "just_over"])
    def test_largest_radius_must_fit_the_smallest_extent(self, hi, code, tmp_path, capsys):
        # the smallest extent is 4 mm; radii are drawn from [lo, hi), but a
        # largest radius above half the extent is refused whatever is drawn
        out = tmp_path / "o"
        assert main(["gen-data", "--out", str(out), "--shape", "16", "16", "4",
                     "--spacing", "1", "1", "1", "--radius", "1", hi,
                     "--cases", "1", "--val-cases", "0"]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "radius_range_mm" in capsys.readouterr().err

    def test_a_write_failing_mid_dataset_leaves_no_partial_file_and_no_manifest(
            self, tmp_path, monkeypatch, capsys):
        # the third header (case_001_img.hdr) fails after writing part of
        # its text: every file is written beside its name and moved into
        # place only when complete, so nothing partial is left, and the
        # manifest, written last, is never written
        from phnet import data
        dump, calls = data.json.dump, []

        def failing_dump(doc, f, **kwargs):
            calls.append(doc)
            if len(calls) == 3:
                f.write('{"dims": [16')
                raise OSError("No space left on device")
            return dump(doc, f, **kwargs)

        monkeypatch.setattr(data.json, "dump", failing_dump)
        out = tmp_path / "d"
        code = main(["gen-data", "--out", str(out)] + TINY_GEN)
        assert code == 2 and "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "case_000_img.hdr", "case_000_img.raw", "case_000_lbl.hdr",
            "case_000_lbl.raw", "case_001_img.raw"]
        for base in ("case_000_img", "case_000_lbl"):
            assert read_volume(out / base).grid.shape == (8, 16, 16)
        assert (out / "case_001_img.raw").stat().st_size == 8 * 16 * 16 * 4

    def test_deterministic_given_seed(self, dataset, tmp_path):
        out = tmp_path / "again"
        assert main(["gen-data", "--out", str(out)] + TINY_GEN) == 0
        a = read_volume(dataset / "case_001_img")
        b = read_volume(out / "case_001_img")
        assert np.array_equal(a.grid, b.grid)


# ---------------------------------------------------------------------------
# train and config merging
# ---------------------------------------------------------------------------

class TestTrainCLI:
    def test_outputs(self, trained, capsys):
        assert (trained / "best.ckpt").exists()
        records = read_runlog(trained / "runlog.jsonl")
        steps = [r for r in records if r["kind"] == "step"]
        assert [r["step"] for r in steps] == [1, 2]    # 2 cases * 2 / batch 2

    def test_config_file_with_flag_override(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "epochs": 5, "batch_size": 2, "patches_per_case": 2,
            "patch_size": [16, 16, 8], "num_stages": 2, "base_channels": 4,
            "max_channels": 8, "blocks_per_stage": 1, "mlpp_num_layers": 1,
        }))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path),
                     "--data-dir", str(dataset), "--out-dir", str(out),
                     "--epochs", "1"])
        assert code == 0
        meta = [r for r in read_runlog(out / "runlog.jsonl")
                if r["kind"] == "meta"][0]
        assert meta["config"]["epochs"] == 1          # flag beat the file
        assert meta["config"]["base_channels"] == 4   # file value applied

    def test_unknown_config_key_exits_1(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochz": 3}))
        code = main(["train", "--config", str(cfg_path),
                     "--data-dir", str(dataset),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "epochz" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,key", [
        ({"epochs": "3"}, "epochs"),
        ({"patch_size": 5}, "patch_size"),
        ({"patch_size": [16.0, 16, 8]}, "patch_size"),
        ({"seed": True}, "seed"),
        ({"lr": "1e-3"}, "lr"),
        ({"mlpp_stages": 1}, "mlpp_stages"),
    ], ids=["epochs_string", "patch_size_int", "patch_size_floats", "seed_bool",
            "lr_string", "mlpp_stages_int"])
    def test_config_value_of_wrong_type_exits_1_naming_the_key(self, doc, key, dataset,
                                                               tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--data-dir", str(dataset),
                     "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"usage error: {cfg_path}: config key {key!r}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("patch,message", [
        ([32, 32], "patch_size"),
        ([16, 0, 8], "patch_size"),
        ([15, 16, 8], "not divisible"),
    ], ids=["two_extents", "zero_extent", "indivisible"])
    def test_bad_patch_size_exits_2_and_makes_no_output_directory(self, patch, message,
                                                                   dataset, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"patch_size": patch}))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--data-dir", str(dataset),
                     "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_config_not_an_object_exits_1(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("5")
        code = main(["train", "--config", str(cfg_path), "--data-dir", str(dataset),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err

    def test_invalid_config_json_exits_1(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code = main(["train", "--config", str(cfg_path),
                     "--data-dir", str(dataset),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1

    def test_truncated_config_exits_1_naming_the_file(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "batch_size": 2})[:17])
        code = main(["train", "--config", str(cfg_path), "--data-dir", str(dataset),
                     "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"usage error: {cfg_path}: not valid JSON (" in err

    def test_summary_json_on_stdout(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data-dir", str(dataset), "--out-dir", str(out),
                     "--epochs", "1", "--batch-size", "2",
                     "--patches-per-case", "2"] + TINY_MODEL)
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["steps"] == 2
        assert summary["checkpoint"].endswith("best.ckpt")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class TestEvalCLI:
    def test_eval_writes_report(self, trained, dataset, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(trained / "best.ckpt"),
                     "--data-dir", str(dataset), "--out", str(out_csv)])
        assert code == 0
        assert out_csv.exists()
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["cases"] == 1
        assert summary["mean_dice"] is None or 0.0 <= summary["mean_dice"] <= 1.0

    def test_eval_missing_split_exits_2(self, trained, dataset, capsys):
        code = main(["eval", "--checkpoint", str(trained / "best.ckpt"),
                     "--data-dir", str(dataset), "--split", "test"])
        assert code == 2

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_bad_tolerance_exits_2_before_anything_is_read(self, tolerance, tmp_path,
                                                          capsys):
        # neither the checkpoint nor the dataset exists: the option is
        # checked before either is opened
        out_csv = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--data-dir", str(tmp_path / "missing"), "--out", str(out_csv),
                     "--tolerance-mm", tolerance])
        err = capsys.readouterr().err
        assert code == 2 and "error: tolerance_mm must be >= 0" in err
        assert "Traceback" not in err and not out_csv.exists()


# ---------------------------------------------------------------------------
# malformed checkpoints
# ---------------------------------------------------------------------------

def _drop_param_key(key):
    def edit(header, payload):
        del header["params"][0][key]
        return header, payload
    return edit


def _drop_top_key(key):
    def edit(header, payload):
        del header[key]
        return header, payload
    return edit


def _model_config(edit):
    """A header edit that replaces ``meta.model_config`` by ``edit`` of it."""
    def apply(header, payload):
        header["meta"]["model_config"] = edit(header["meta"]["model_config"])
        return header, payload
    return apply


MALFORMED = {
    "header_not_object": lambda h, p: ([1, 2], p),
    "format_only": lambda h, p: ({"format": h["format"]}, p),
    "no_meta": _drop_top_key("meta"),
    "no_params": _drop_top_key("params"),
    "no_model_config": lambda h, p: (
        {**h, "meta": {k: v for k, v in h["meta"].items() if k != "model_config"}}, p),
    "entry_without_name": _drop_param_key("name"),
    "entry_without_shape": _drop_param_key("shape"),
    "entry_without_offset": _drop_param_key("offset"),
    "overlapping_offsets": lambda h, p: (
        {**h, "params": [h["params"][0], {**h["params"][1], "offset": 0}] + h["params"][2:]},
        p),
    "bool_offset": lambda h, p: (
        {**h, "params": [{**h["params"][0], "offset": False}] + h["params"][1:]}, p),
    "truncated_payload": lambda h, p: (h, p[:-4]),
    "trailing_bytes": lambda h, p: (h, p + bytes(4)),
    "model_config_not_object": _model_config(lambda c: 2),
    "model_config_unknown_field": _model_config(lambda c: {**c, "depth": 3}),
    "model_config_without_spacing": _model_config(
        lambda c: {k: v for k, v in c.items() if k != "voxel_spacing_mm"}),
    "mlpp_num_layers_string": _model_config(lambda c: {**c, "mlpp_num_layers": "1"}),
    "num_stages_string": _model_config(lambda c: {**c, "num_stages": str(c["num_stages"])}),
}


class TestMalformedCheckpoint:
    @pytest.fixture(params=sorted(MALFORMED))
    def bad_checkpoint(self, request, trained, tmp_path):
        raw = (trained / "best.ckpt").read_bytes()
        line, payload = raw.split(b"\n", 1)
        header, payload = MALFORMED[request.param](json.loads(line), payload)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        return path

    def test_eval_exits_2(self, bad_checkpoint, dataset, capsys):
        code = main(["eval", "--checkpoint", str(bad_checkpoint),
                     "--data-dir", str(dataset)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_flops_exits_2(self, bad_checkpoint, capsys):
        assert main(["flops", "--checkpoint", str(bad_checkpoint)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_exits_2(self, bad_checkpoint, capsys):
        assert main(["bench", "--checkpoint", str(bad_checkpoint), "--repeats", "1"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


def _truncated(raw):
    return raw[:17]


@pytest.mark.parametrize("damage", [_truncated, lambda raw: b"\xff\xfe" + raw],
                         ids=["truncated_header", "foreign_binary"])
def test_unreadable_checkpoint_header_exits_2_naming_the_file(damage, trained, dataset,
                                                              tmp_path, capsys):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(damage((trained / "best.ckpt").read_bytes()))
    code = main(["eval", "--checkpoint", str(path), "--data-dir", str(dataset)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {path}: not a phnet-checkpoint-v1 file" in err
    assert "codec" not in err and "Traceback" not in err


@pytest.mark.parametrize("reader", ["manifest", "header"])
def test_truncated_dataset_json_exits_2_naming_the_file(reader, dataset, trained,
                                                        tmp_path, capsys):
    root = tmp_path / "data"
    shutil.copytree(dataset, root)
    path = root / "manifest.json"
    if reader == "header":
        path = root / f"{read_manifest(path)['cases'][-1]['id']}_img.hdr"
    path.write_bytes(_truncated(path.read_bytes()))
    code = main(["eval", "--checkpoint", str(trained / "best.ckpt"), "--data-dir", str(root)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {path}: not valid JSON (" in err and "Traceback" not in err


def _nested_form(in_channels=1, l_ip=None):
    """A header edit into the form checkpoint headers held before
    ``PHNetConfig`` lost ``in_channels`` and its ``mlpp`` object."""
    def edit(c):
        flat = {k: v for k, v in c.items() if k != "mlpp_num_layers"}
        return {**flat, "in_channels": in_channels,
                "mlpp": {"l_ip": l_ip, "l_aa": None, "l_tp": None,
                         "num_layers": c["mlpp_num_layers"]}}
    return _model_config(edit)


@pytest.mark.parametrize("edit,code,message", [
    (_nested_form(), 0, ""),
    (_nested_form(in_channels=2), 2, "error: model_config: invalid in_channels 2"),
    (_nested_form(l_ip=2), 2, "error: model_config: invalid mlpp.l_ip 2"),
], ids=["derived", "two_channels", "set_l_ip"])
def test_flops_reads_a_nested_form_header(edit, code, message, trained, tmp_path, capsys):
    raw = (trained / "best.ckpt").read_bytes()
    assert main(["flops", "--checkpoint", str(trained / "best.ckpt")]) == 0
    fresh = capsys.readouterr().out
    line, payload = raw.split(b"\n", 1)
    header, payload = edit(json.loads(line), payload)
    path = tmp_path / "nested.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    assert main(["flops", "--checkpoint", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == (fresh if code == 0 else "")
    assert message in captured.err and "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# malformed manifests
# ---------------------------------------------------------------------------

BAD_CASE_ENTRIES = {
    "entry_without_id": lambda e: {"split": e["split"]},
    "id_not_string": lambda e: {**e, "id": 2},
    "split_not_string": lambda e: {**e, "split": [e["split"]]},
    "entry_not_object": lambda e: e["id"],
}


class TestMalformedManifest:
    @pytest.fixture(params=sorted(BAD_CASE_ENTRIES))
    def bad_dataset(self, request, dataset, tmp_path):
        # the last entry is the validation case, so eval reads it too
        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        doc = read_manifest(root / "manifest.json")
        doc["cases"][-1] = BAD_CASE_ENTRIES[request.param](doc["cases"][-1])
        (root / "manifest.json").write_text(json.dumps(doc))
        return root

    def test_train_exits_2(self, bad_dataset, tmp_path, capsys):
        code = main(["train", "--data-dir", str(bad_dataset), "--out-dir",
                     str(tmp_path / "run"), "--epochs", "1"] + TINY_MODEL)
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_eval_exits_2(self, bad_dataset, trained, capsys):
        code = main(["eval", "--checkpoint", str(trained / "best.ckpt"),
                     "--data-dir", str(bad_dataset)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err


BAD_DATASET_FIELDS = {
    "spacing_of_strings": ("spacing_mm", ["1", "1", "4"]),
    "zero_spacing": ("spacing_mm", [1.0, 0.0, 4.0]),
    "one_class": ("num_classes", 1),
    "bool_classes": ("num_classes", True),
    "float_classes": ("num_classes", 2.0),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASET_FIELDS))
def test_train_exits_2_naming_a_bad_manifest_field(case, dataset, tmp_path, capsys):
    field, value = BAD_DATASET_FIELDS[case]
    root = tmp_path / "data"
    shutil.copytree(dataset, root)
    doc = read_manifest(root / "manifest.json")
    (root / "manifest.json").write_text(json.dumps({**doc, field: value}))
    code = main(["train", "--data-dir", str(root), "--out-dir",
                 str(tmp_path / "run"), "--epochs", "1"] + TINY_MODEL)
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "manifest.json" in err and field in err
    assert "Traceback" not in err


BAD_HEADERS = {
    "header_not_object": lambda h: [h],
    "dims_not_list": lambda h: {**h, "dims": 4},
    "dims_not_ints": lambda h: {**h, "dims": [str(n) for n in h["dims"]]},
    "spacing_is_number": lambda h: {**h, "spacing_mm": 4.0},
}


class TestMalformedVolumeHeader:
    @pytest.fixture(params=sorted(BAD_HEADERS))
    def bad_dataset(self, request, dataset, tmp_path):
        # the validation case, which both train and eval read
        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        hdr = root / f"{read_manifest(root / 'manifest.json')['cases'][-1]['id']}_img.hdr"
        hdr.write_text(json.dumps(BAD_HEADERS[request.param](json.loads(hdr.read_text()))))
        return root

    def test_train_exits_2(self, bad_dataset, tmp_path, capsys):
        code = main(["train", "--data-dir", str(bad_dataset), "--out-dir",
                     str(tmp_path / "run"), "--epochs", "1"] + TINY_MODEL)
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_eval_exits_2(self, bad_dataset, trained, capsys):
        code = main(["eval", "--checkpoint", str(trained / "best.ckpt"),
                     "--data-dir", str(bad_dataset)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err


def test_eval_exits_2_naming_a_header_with_zero_spacing(dataset, trained, tmp_path, capsys):
    root = tmp_path / "data"
    shutil.copytree(dataset, root)
    hdr = root / f"{read_manifest(root / 'manifest.json')['cases'][-1]['id']}_img.hdr"
    hdr.write_text(json.dumps({**json.loads(hdr.read_text()), "spacing_mm": [0, 1, 1]}))
    code = main(["eval", "--checkpoint", str(trained / "best.ckpt"), "--data-dir", str(root)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and hdr.name in err and "Traceback" not in err


def _nan_at_voxel_7(raw):
    return raw[:28] + np.array([np.nan], dtype="<f4").tobytes() + raw[32:]


DAMAGED_PAYLOADS = {
    "nan_voxel": _nan_at_voxel_7,
    "shorter_than_dims": lambda raw: raw[:-4],
}


class TestDamagedVolumePayload:
    @pytest.fixture(params=sorted(DAMAGED_PAYLOADS))
    def bad_dataset(self, request, dataset, tmp_path):
        # the validation case's image, which both train and eval read
        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        raw = root / f"{read_manifest(root / 'manifest.json')['cases'][-1]['id']}_img.raw"
        raw.write_bytes(DAMAGED_PAYLOADS[request.param](raw.read_bytes()))
        return root, raw.name

    def test_train_exits_2_naming_the_file(self, bad_dataset, tmp_path, capsys):
        root, raw_name = bad_dataset
        code = main(["train", "--data-dir", str(root), "--out-dir",
                     str(tmp_path / "run"), "--epochs", "1"] + TINY_MODEL)
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and raw_name in err and "Traceback" not in err

    def test_eval_exits_2_naming_the_file(self, bad_dataset, trained, capsys):
        root, raw_name = bad_dataset
        code = main(["eval", "--checkpoint", str(trained / "best.ckpt"),
                     "--data-dir", str(root)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and raw_name in err and "Traceback" not in err


def _copy_volume(root, source, target):
    for ext in (".hdr", ".raw"):
        shutil.copyfile(root / f"{source}{ext}", root / f"{target}{ext}")


def _relabel(root, cid, edit):
    labels = read_volume(root / f"{cid}_lbl")
    write_volume(root / f"{cid}_lbl", LabelVolume(*edit(labels.grid, labels.spacing_mm)))


MISMATCHED_CASES = {
    "f32_labels": lambda root, cid: _copy_volume(root, f"{cid}_img", f"{cid}_lbl"),
    "u8_image": lambda root, cid: _copy_volume(root, f"{cid}_lbl", f"{cid}_img"),
    "label_shape": lambda root, cid: _relabel(root, cid, lambda g, s: (g[:-1], s)),
    "label_spacing": lambda root, cid: _relabel(root, cid, lambda g, s: (g, (2 * s[0],) + s[1:])),
}


class TestMismatchedCaseFiles:
    @pytest.fixture(params=sorted(MISMATCHED_CASES))
    def bad_dataset(self, request, dataset, tmp_path):
        # the validation case, which both train and eval read
        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        cid = read_manifest(root / "manifest.json")["cases"][-1]["id"]
        MISMATCHED_CASES[request.param](root, cid)
        return root, cid

    def test_train_exits_2_naming_both_files(self, bad_dataset, tmp_path, capsys):
        root, cid = bad_dataset
        out = tmp_path / "run"
        code = main(["train", "--data-dir", str(root), "--out-dir", str(out),
                     "--epochs", "1"] + TINY_MODEL)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"{cid}_img.hdr" in err and f"{cid}_lbl.hdr" in err
        assert not out.exists()

    def test_eval_exits_2_naming_both_files(self, bad_dataset, trained, tmp_path, capsys):
        root, cid = bad_dataset
        report = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(trained / "best.ckpt"),
                     "--data-dir", str(root), "--out", str(report)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"{cid}_img.hdr" in err and f"{cid}_lbl.hdr" in err
        assert not report.exists()


# ---------------------------------------------------------------------------
# bench and flops
# ---------------------------------------------------------------------------

class TestBenchFlops:
    def test_flops_json(self, capsys):
        code = main(["flops", "--spacing", "1", "1", "4"] + TINY_MODEL)
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flops_per_forward"] > 0
        assert doc["params"] > 0
        assert doc["input_shape"] == [1, 1, 8, 16, 16]

    @pytest.mark.parametrize("batch,flops", [(1, 718929920), (4, 2875719680)])
    def test_flops_of_the_readme_config_are_pinned(self, batch, flops, capsys):
        assert main(["flops", "--patch-size", "64", "64", "32", "--spacing", "1", "1", "4",
                     "--num-stages", "4", "--base-channels", "8",
                     "--batch-size", str(batch)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flops_per_forward"] == flops
        assert doc["params"] == 174170
        assert doc["output_shape"] == [batch, 2, 32, 64, 64]

    @pytest.mark.parametrize("spacing", ["nan", "inf"])
    def test_non_finite_spacing_exits_2(self, spacing, capsys):
        code = main(["flops", "--patch-size", "64", "64", "32", "--spacing", spacing, "1", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: voxel spacing must be positive" in captured.err
        assert "Traceback" not in captured.err

    def test_bench_reports_same_flops(self, capsys):
        assert main(["flops", "--spacing", "1", "1", "4"] + TINY_MODEL) == 0
        flops_doc = json.loads(capsys.readouterr().out)
        assert main(["bench", "--spacing", "1", "1", "4", "--repeats", "2"]
                    + TINY_MODEL) == 0
        bench_doc = json.loads(capsys.readouterr().out)
        assert bench_doc["flops_per_forward"] == flops_doc["flops_per_forward"]
        assert bench_doc["seconds_per_forward"] > 0
        assert bench_doc["peak_rss_bytes"] > 0

    @pytest.mark.parametrize("command", ["flops", "bench"])
    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_batch_size_below_1_exits_2(self, command, batch, capsys):
        code = main([command, "--spacing", "1", "1", "4", "--batch-size", batch]
                    + TINY_MODEL)
        captured = capsys.readouterr()
        assert code == 2
        assert "batch size must be >= 1" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_bench_from_checkpoint(self, trained, capsys):
        code = main(["bench", "--checkpoint", str(trained / "best.ckpt"),
                     "--repeats", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] > 0


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

class TestGradCheckCLI:
    def test_passes_and_prints_per_check_lines(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 10
        assert "network_end_to_end" in out
        assert "FAIL" not in out
