"""Per-layer metrics derived from a traced run.

Every time is seconds per traced operation: the inclusive duration of the
named span, or with ``.self_s`` its self time (span minus child spans).
Counts are per traced operation too.  Every workload reports every metric;
a layer the workload does not run reads 0.
"""

from statistics import median

BACKWARD_OPS = ("conv_nd", "conv_transpose_nd", "mul", "div", "broadcast_to",
                "relu", "log_softmax", "matmul", "sub")
NUM_STAGES = 4

TIMED_SPANS = (
    "autograd.backward",
    *(f"autograd.backward.{op}" for op in BACKWARD_OPS),
    "layers.conv_nd.fwd",
    "layers.conv_transpose_nd.fwd",
    "layers.InstanceNorm.fwd",
    "layers.ChannelNorm.fwd",
    "layers.Linear.fwd",
    "mlpp.IPMLP.fwd",
    "mlpp.AAMLP.fwd",
    "mlpp.TPMLP.fwd",
    "model.forward",
    *(f"model.encoder.{i}.fwd" for i in range(NUM_STAGES)),
    *(f"model.decoder.{i}.fwd" for i in range(NUM_STAGES)),
    "model.head.fwd",
    "metrics.dice_ce_loss",
    "metrics.evaluate_case",
    "metrics.surface_dice",
    "metrics.hausdorff",
    "optim.AdamW.step",
    "data.sample_patches",
    "data.resample_to_spacing",
    "data.resample_to_grid",
    "data.read_volume",
    "harness.sliding_window_logits",
    "harness.stitch_windows",
    "harness.predict_label_volume",
)

# spans whose own code (not their children) an optimisation would move
SELF_SPANS = (
    "model.forward",
    "mlpp.IPMLP.fwd",
    "mlpp.AAMLP.fwd",
    "mlpp.TPMLP.fwd",
    "metrics.evaluate_case",
    "harness.sliding_window_logits",
    "harness.predict_label_volume",
)

COUNTS = (
    ("autograd.tape_nodes", "count"),
    ("autograd.tape_compute_nodes", "count"),
    ("autograd.tape_mb", "MB-computed"),
    ("layers.conv_nd.calls", "count"),
    ("layers.conv_nd.macs", "MAC-computed"),
    ("metrics.surface_points", "count"),
    ("data.read_volume_calls", "count"),
    ("harness.windows", "count"),
)

DERIVED = (
    ("autograd.backward.accumulate_s", "s"),
    ("model.flops_per_forward", "FLOP-computed"),
    ("model.forward_gflops_per_s", "GFLOP/s"),
    ("data.cases_scored_per_case_read", "ratio"),
    ("trace.overhead_share", "ratio"),
)

PER_LAYER = (
    tuple((f"{s}_s", "s") for s in TIMED_SPANS)
    + tuple((f"{s}.self_s", "s") for s in SELF_SPANS)
    + COUNTS
    + DERIVED
)


def overhead_share(ops):
    """Median traced operation time over median untraced, minus one; only
    timed operations count."""
    traced = [o.seconds for o in ops if o.timed and o.traced]
    plain = [o.seconds for o in ops if o.timed and not o.traced]
    if not traced or not plain:
        raise ValueError("overhead needs traced and untraced operations after warm-up")
    return median(traced) / median(plain) - 1.0


def per_layer(tracer, ops):
    """{metric: value} for every name in PER_LAYER."""
    n = sum(o.traced for o in ops)
    if n < 1:
        raise ValueError("no traced operation")
    totals = tracer.totals()
    out = {}
    for s in TIMED_SPANS:
        out[f"{s}_s"] = totals.get(s, (0.0, 0.0, 0))[0] / n
    for s in SELF_SPANS:
        out[f"{s}.self_s"] = totals.get(s, (0.0, 0.0, 0))[1] / n
    for name, _ in COUNTS:
        out[name] = tracer.counts.get(name, 0) / n
    out["autograd.backward.accumulate_s"] = \
        totals.get("autograd.backward", (0.0, 0.0, 0))[1] / n
    checks = tracer.flop_checks
    out["model.flops_per_forward"] = checks[-1][2] if checks else 0
    fwd_s = totals.get("model.forward", (0.0, 0.0, 0))[0]
    out["model.forward_gflops_per_s"] = (
        sum(expected for _, _, expected in checks) / fwd_s / 1e9 if fwd_s else 0.0)
    cases_read = tracer.counts.get("data.read_volume_calls", 0) / 2
    scored = totals.get("metrics.evaluate_case", (0.0, 0.0, 0))[2]
    out["data.cases_scored_per_case_read"] = scored / cases_read if cases_read else 0.0
    out["trace.overhead_share"] = overhead_share(ops)
    return out
