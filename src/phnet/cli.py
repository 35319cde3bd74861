"""Command-line interface.

Subcommands: gen-data, train, eval, bench, flops, grad-check.  Training reads
an optional JSON config file whose keys mirror the TrainConfig fields; any
flag given on the command line overrides the file.  Exit codes: 0 on success,
1 on usage errors (bad flags, unknown subcommand, invalid config keys or
config values of the wrong type), 2 on runtime failures (missing files,
invalid data, diverged training).
"""

import argparse
import json
import sys
import typing
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

from .data import (
    SyntheticSpec,
    generate_synthetic_case,
    read_json,
    write_manifest,
    write_volume,
)
from .harness import TrainConfig, bench, evaluate, grad_check_suite, train
from .model import (
    PHNet,
    PHNetConfig,
    count_params,
    hwd_to_dhw,
    net_from_checkpoint,
)
from .optim import TrainingError

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Invalid invocation: unknown flags/subcommands or bad config keys."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# shared argument groups
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--patch-size", nargs=3, type=int, metavar=("H", "W", "D"),
                   default=(64, 64, 32), help="inference/training patch size")
    p.add_argument("--spacing", nargs=3, type=float, metavar=("X", "Y", "Z"),
                   default=(1.0, 1.0, 4.0), help="voxel spacing in mm")
    p.add_argument("--classes", type=int, default=2, help="number of classes")
    p.add_argument("--num-stages", type=int, default=4)
    p.add_argument("--base-channels", type=int, default=8)
    p.add_argument("--max-channels", type=int, default=320)
    p.add_argument("--blocks-per-stage", type=int, default=2)
    p.add_argument("--mlpp-num-layers", type=int, default=2)


def _model_config_from_args(args):
    if getattr(args, "checkpoint", None):
        return net_from_checkpoint(args.checkpoint).cfg
    return PHNetConfig(
        num_stages=args.num_stages,
        base_channels=args.base_channels,
        max_channels=args.max_channels,
        num_classes=args.classes,
        voxel_spacing_mm=tuple(args.spacing),
        patch_size=tuple(args.patch_size),
        blocks_per_stage=args.blocks_per_stage,
        mlpp_num_layers=args.mlpp_num_layers,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    for flag, n in (("--cases", args.cases), ("--val-cases", args.val_cases)):
        if n < 0:
            raise ValueError(f"{flag} must be >= 0, got {n}")
    x, y, z = args.shape
    # the spec is checked before the output directory is made
    spec = SyntheticSpec(
        shape=(z, y, x),                           # (X,Y,Z) flag -> (D,H,W) grid
        spacing_mm=tuple(args.spacing),
        num_classes=args.classes,
        blobs_per_class=tuple(args.blobs),
        radius_range_mm=tuple(args.radius),
        noise_sigma=args.noise,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cases = []
    for i in range(args.cases + args.val_cases):
        vol, lab = generate_synthetic_case(replace(spec, seed=args.seed + i))
        cid = f"case_{i:03d}"
        write_volume(out / f"{cid}_img", vol)
        write_volume(out / f"{cid}_lbl", lab)
        cases.append((cid, "train" if i < args.cases else "val"))
    write_manifest(out / "manifest.json", cases,
                   extra={"num_classes": args.classes,
                          "spacing_mm": list(args.spacing),
                          "shape": list(args.shape)})
    print(f"wrote {len(cases)} cases ({args.cases} train, {args.val_cases} val) "
          f"to {out}")
    return 0


# per type in a TrainConfig field's annotation, the JSON values that fit it
# (bools are not numbers here; both tuple fields hold ints, and only they
# take lists)
_FITS_TYPE = {
    int: lambda v: type(v) is int,
    float: lambda v: type(v) in (int, float),
    str: lambda v: type(v) is str,
    tuple: lambda v: isinstance(v, list) and all(type(i) is int for i in v),
    type(None): lambda v: v is None,
}


def _train_config_from_args(args):
    annotations = {f.name: f.type for f in dataclass_fields(TrainConfig)}
    merged = {}
    if args.config:
        try:
            doc = read_json(args.config)
        except ValueError as e:
            raise UsageError(str(e)) from None
        if not isinstance(doc, dict):
            raise UsageError(f"{args.config}: the config must be a JSON object")
        unknown = sorted(doc.keys() - annotations.keys())
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys {unknown}")
        for name, v in doc.items():
            types = typing.get_args(annotations[name]) or (annotations[name],)
            if not any(_FITS_TYPE[t](v) for t in types):
                raise UsageError(f"{args.config}: config key {name!r} has a value "
                                 f"of the wrong type: {v!r}")
        merged.update(doc)
    for name in annotations:
        v = getattr(args, name, None)
        if v is not None:
            merged[name] = v
    return TrainConfig(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in merged.items()})


def cmd_train(args):
    cfg = _train_config_from_args(args)
    result = train(cfg)
    print(json.dumps(result))
    return 0


def cmd_eval(args):
    rows = evaluate(args.checkpoint, args.data_dir, out_csv=args.out,
                    split=args.split, tolerance_mm=args.tolerance_mm,
                    percentile=args.percentile)
    scored = [r["dice"] for r in rows if not r.get("error") and r.get("dice") is not None]
    errors = [r for r in rows if r.get("error")]
    summary = {
        "cases": len({r["case"] for r in rows}),
        "rows": len(rows),
        "error_rows": len(errors),
        "mean_dice": sum(scored) / len(scored) if scored else None,
        "report": str(args.out) if args.out else None,
    }
    print(json.dumps(summary))
    return 0


def cmd_bench(args):
    cfg = _model_config_from_args(args)
    report = bench(cfg, batch_size=args.batch_size, repeats=args.repeats,
                   seed=args.seed)
    print(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in report.items()}))
    return 0


def cmd_flops(args):
    cfg = _model_config_from_args(args)
    net = PHNet(cfg, seed=0)
    d, h, w = hwd_to_dhw(cfg.patch_size)
    shape = (args.batch_size, 1, d, h, w)
    flops, out_shape = net.count_flops(shape)
    print(json.dumps({
        "input_shape": list(shape),
        "output_shape": list(out_shape),
        "flops_per_forward": flops,
        "params": count_params(net),
    }))
    return 0


def cmd_grad_check(args):
    checks = grad_check_suite(seed=args.seed)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']:24s} max_rel_err={c['max_rel_err']:.3e} "
              f"tolerance={c['tolerance']:.0e}")
    failed = [c for c in checks if not c["passed"]]
    if failed:
        print(f"{len(failed)} of {len(checks)} gradient checks failed",
              file=sys.stderr)
        return 2
    print(f"all {len(checks)} gradient checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="phnet",
                     description="Hybrid CNN+MLP volumetric segmentation")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{gen-data,train,eval,bench,flops,grad-check}")

    p = sub.add_parser("gen-data", help="write a synthetic dataset",
                       parents=[], description="Generate synthetic cases.")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--cases", type=int, default=16, help="training cases")
    p.add_argument("--val-cases", type=int, default=4, help="validation cases")
    p.add_argument("--shape", nargs=3, type=int, metavar=("X", "Y", "Z"),
                   default=(64, 64, 32), help="volume dims, x/y/z order")
    p.add_argument("--spacing", nargs=3, type=float, metavar=("X", "Y", "Z"),
                   default=(1.0, 1.0, 4.0))
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--blobs", nargs=2, type=int, default=(1, 3),
                   metavar=("LO", "HI"), help="blobs per class (inclusive)")
    p.add_argument("--radius", nargs=2, type=float, default=(10.0, 16.0),
                   metavar=("LO", "HI"), help="blob radii in mm")
    p.add_argument("--noise", type=float, default=0.1, help="noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model",
                       description="Train; flags override --config values.")
    p.add_argument("--config", help="JSON file with TrainConfig fields")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patches-per-case", dest="patches_per_case", type=int)
    p.add_argument("--patch-size", dest="patch_size", nargs=3, type=int,
                   metavar=("H", "W", "D"))
    p.add_argument("--fg-bias", dest="fg_bias", type=float)
    p.add_argument("--val-interval", dest="val_interval", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float,
                   help="override the batch-size learning-rate rule")
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--num-stages", dest="num_stages", type=int)
    p.add_argument("--base-channels", dest="base_channels", type=int)
    p.add_argument("--max-channels", dest="max_channels", type=int)
    p.add_argument("--blocks-per-stage", dest="blocks_per_stage", type=int)
    p.add_argument("--mlpp-num-layers", dest="mlpp_num_layers", type=int)
    p.add_argument("--mlpp-stages", dest="mlpp_stages", nargs="+", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", dest="data_dir", required=True)
    p.add_argument("--out", help="write the per-case CSV report here")
    p.add_argument("--split", default="val")
    p.add_argument("--tolerance-mm", dest="tolerance_mm", type=float, default=1.0)
    p.add_argument("--percentile", type=int, choices=(95, 100), default=95)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure cost and throughput")
    p.add_argument("--checkpoint", help="take the model config from this file")
    _add_model_flags(p)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("flops", help="analytic cost of a configuration")
    p.add_argument("--checkpoint", help="take the model config from this file")
    _add_model_flags(p)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=1)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("grad-check",
                       help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as e:            # argparse --help exits directly
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, TrainingError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
