"""Spans and counters recorded from outside the program.

``instrument`` replaces public functions and methods of the ``phnet``
modules with wrappers at run time; ``src/`` is never edited.  A wrapper
records a span (name, start, end, parent span, operation id) and optionally
bumps counters, but only while ``Tracer.enabled`` is set, so an untraced
operation pays one attribute test per wrapped call.  Spans stay in memory
until the run ends.

Counters labelled ``macs`` and ``tape_mb`` are computed from shapes and
array sizes, not measured.
"""

import functools
import json
import math
import time

from stats import self_times

# tape nodes whose op does multiply-accumulate work
COMPUTE_OPS = ("conv_nd", "conv_transpose_nd", "matmul")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.op = None
        self.spans = []        # [name, start, end, parent index, op id]
        self.counts = {}
        self.flop_checks = []  # (op, 2 * counted MACs, count_flops) per forward
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name=None, counter=None):
        """``fn`` under a span ``name`` (None: no span); ``counter(tracer,
        args, result)`` runs after the call, outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.end(idx)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, spans).  A span
        nested inside another of the same name adds only to the self sum."""
        selfs = self_times(self.spans)
        out = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            incl = end - start
            p = parent
            while p is not None:
                if self.spans[p][0] == name:
                    incl = 0.0
                    break
                p = self.spans[p][3]
            t = out.setdefault(name, [0.0, 0.0, 0])
            t[0] += incl
            t[1] += selfs[i]
            t[2] += 1
        return out

    def dump(self, path, extra):
        doc = {**extra,
               "span_fields": ["name", "start_s", "end_s", "parent", "op"],
               "spans": self.spans,
               "counts": self.counts,
               "flop_checks": self.flop_checks}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


# ---------------------------------------------------------------------------
# instrumentation of the phnet modules
# ---------------------------------------------------------------------------

def _replace_everywhere(modules, orig, new):
    """Rebind every module attribute that is ``orig`` (``from x import f``
    copies a function into the importing module's namespace)."""
    for m in modules:
        for k, v in list(vars(m).items()):
            if v is orig:
                setattr(m, k, new)


def _conv_macs(tracer, args, out):
    x, k = args[0], args[1]
    macs = x.shape[0] * k.shape[0] * k.shape[1] * math.prod(k.shape[2:]) \
        * math.prod(out.shape[2:])
    tracer.count("layers.conv_nd.calls")
    tracer.count("layers.conv_nd.macs", macs)
    tracer.count("macs", macs)


def _conv_transpose_macs(tracer, args, out):
    x, k = args[0], args[1]
    macs = x.shape[0] * k.shape[0] * k.shape[1] * math.prod(k.shape[2:]) \
        * math.prod(x.shape[2:])
    tracer.count("layers.conv_transpose_nd.calls")
    tracer.count("layers.conv_transpose_nd.macs", macs)
    tracer.count("macs", macs)


def _linear_macs(tracer, args, out):
    x, w = args[0], args[1]
    macs = math.prod(x.shape[:-1]) * w.shape[0] * w.shape[1]
    tracer.count("layers.linear.macs", macs)
    tracer.count("macs", macs)


def instrument(tracer):
    """Wrap the phnet layers; returns nothing and is not undone (a run is
    one process)."""
    import phnet
    from phnet import autograd, data, harness, layers, metrics, mlpp, model, optim

    modules = [phnet, autograd, data, harness, layers, metrics, mlpp, model, optim]

    def fn(module, attr, name=None, counter=None):
        orig = getattr(module, attr)
        _replace_everywhere(modules, orig, tracer.wrap(orig, name, counter))

    def method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))

    # autograd: every tape node's backward closure gets its own span, and
    # backward reports the tape it is about to walk
    orig_make_node = autograd.make_node
    orig_trace = autograd.trace

    def make_node(data_, parents, op, backward_fn):
        out = orig_make_node(data_, parents, op, backward_fn)
        if tracer.enabled and out._backward is not None:
            out._backward = tracer.wrap(out._backward, f"autograd.backward.{op}")
        return out

    _replace_everywhere(modules, orig_make_node, make_node)

    def tape_stats(loss):
        nodes = orig_trace(loss)
        tracer.count("autograd.tape_nodes", len(nodes))
        tracer.count("autograd.tape_compute_nodes",
                     sum(n._op in COMPUTE_OPS for n in nodes))
        tracer.count("autograd.tape_mb",
                     sum(n.data.nbytes for n in nodes if n._backward is not None) / 1e6)

    orig_backward = autograd.backward
    traced_backward = tracer.wrap(orig_backward, "autograd.backward")

    def backward(loss):
        if tracer.enabled:
            tape_stats(loss)
        return traced_backward(loss)

    _replace_everywhere(modules, orig_backward, backward)

    # layers
    fn(layers, "conv_nd", "layers.conv_nd.fwd", _conv_macs)
    fn(layers, "conv_transpose_nd", "layers.conv_transpose_nd.fwd", _conv_transpose_macs)
    fn(layers, "linear", None, _linear_macs)
    method(layers.Linear, "forward", "layers.Linear.fwd")
    method(layers.InstanceNorm, "forward", "layers.InstanceNorm.fwd")
    method(layers.ChannelNorm, "forward", "layers.ChannelNorm.fwd")

    # mlpp
    for cls in (mlpp.IPMLP, mlpp.AAMLP, mlpp.TPMLP):
        method(cls, "forward", f"mlpp.{cls.__name__}.fwd")

    # model: whole forward with the FLOP cross-check, and per-instance
    # wrappers naming each encoder stage, decoder stage and the head
    orig_forward = model.PHNet.forward
    traced_forward = tracer.wrap(orig_forward, "model.forward")

    def forward(self, x):
        if not tracer.enabled:
            return orig_forward(self, x)
        before = tracer.counts.get("macs", 0)
        out = traced_forward(self, x)
        counted = 2 * (tracer.counts.get("macs", 0) - before)
        tracer.flop_checks.append((tracer.op, counted, self.count_flops(x.shape)[0]))
        return out

    model.PHNet.forward = forward

    orig_init = model.PHNet.__init__

    @functools.wraps(orig_init)
    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        for group, mods in (("encoder", self.stages), ("decoder", self.decoder)):
            for i, m in enumerate(mods):
                m.forward = tracer.wrap(m.forward, f"model.{group}.{i}.fwd")
        self.head.forward = tracer.wrap(self.head.forward, "model.head.fwd")

    model.PHNet.__init__ = init

    # metrics
    fn(metrics, "dice_ce_loss", "metrics.dice_ce_loss")
    fn(metrics, "evaluate_case", "metrics.evaluate_case")
    fn(metrics, "surface_dice", "metrics.surface_dice")
    fn(metrics, "hausdorff", "metrics.hausdorff")
    fn(metrics, "surface_points_mm", None,
       lambda t, args, out: t.count("metrics.surface_points", len(out)))

    # optim
    method(optim.AdamW, "step", "optim.AdamW.step")

    # data
    fn(data, "sample_patches", "data.sample_patches")
    fn(data, "resample_to_spacing", "data.resample_to_spacing")
    fn(data, "resample_to_grid", "data.resample_to_grid")
    fn(data, "read_volume", "data.read_volume",
       lambda t, args, out: t.count("data.read_volume_calls"))

    # harness
    fn(harness, "sliding_window_logits", "harness.sliding_window_logits")
    fn(harness, "stitch_windows", "harness.stitch_windows",
       lambda t, args, out: t.count("harness.windows", len(args[1])))
    fn(harness, "predict_label_volume", "harness.predict_label_volume")
