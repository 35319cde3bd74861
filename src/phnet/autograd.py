"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float64 for verification, float32 for training).
Every operation returns a new ``Tensor`` that records its parents and a
backward closure, so the computation DAG is the tape: calling ``backward``
on a scalar node walks the DAG in reverse topological order and accumulates
gradients (summing where a node feeds several consumers).

A graph is walked once.  As the walk passes a node it takes the node's
``grad`` (the loss keeps its own), runs the node's closure on it and then
releases the node's closure and parents, so the arrays the closures
captured are freed during the walk rather than after it.  Leaves
(``Parameter``s and inputs made with ``requires_grad``) have no closure;
they keep their ``grad`` and accumulate into it across walks until it is
reset.

The walk keeps no reference to the cotangent it hands a closure.  On
CPython >= 3.11 a call moves its arguments into the callee's frame, so the
closure may free its cotangent once it has read it (``del g``), and with it
whatever it was built from.  On 3.10 the caller keeps an argument alive
until the call returns, so the cotangent lives as long as the closure runs.
A closure must never write into its cotangent: one array may be the
cotangent of several nodes, since ``mlpp.mix`` hands one array to every map
it sums and the attention gate hands its own cotangent to its skip.

A loss whose parents head graphs that share no op node, only leaves (the
training loss over two half-batches), is walked one branch at a time: each
branch accumulates its leaf gradients into buffers of its own, which are
then added into the leaves in parent order.  The branch walks are run by
``overlap`` with each loaded OpenBLAS on one thread, so the gradients do
not depend on the CPU count.

The engine's own ops, ``mul`` (of operands of one shape) and
``Tensor.sum``, serve the gradient probes.  PHNet runs fused primitives,
one node each, with a closed-form backward: convolution with its bias or
with its instance-norm, residual-add and ReLU epilogue (``layers.conv_nd``),
normalization, which broadcasts its per-channel parameters inside the node,
an MLPP pathway (``mlpp.mix``: the sum of its input maps, their move into
token rows, the FC with its bias, the move back and a residual add), the
attention gate with its residual (``mlpp.residual_attention_fuse``), and
the Dice+CE training loss (``metrics.dice_ce_loss``).  So the engine has no
add, activation or shape op of its own.  An op can ask ``will_record``
whether its node will be kept, and if not, write its result over the
arrays that only its backward would need.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import partial

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "will_record",
    "make_node",
    "mul",
    "trace",
    "usable_cpus",
    "overlap",
    "backward",
    "grad_check",
]


class _GradMode(threading.local):
    """Whether graph recording is on, per thread; on in every new thread."""
    enabled = True


_grad_enabled = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording (inference / benchmarking / finite differences)
    in the calling thread; other threads keep recording."""
    prev = _grad_enabled.enabled
    _grad_enabled.enabled = False
    try:
        yield
    finally:
        _grad_enabled.enabled = prev


def _as_float_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A node of the computation graph holding a numpy array.

    ``data`` is treated as immutable once the tensor participates in an op.
    ``grad`` is populated by ``backward``.  On a leaf it accumulates across
    consumers and across successive backward calls until reset.  An op
    result keeps its ``grad``, closure and parents only until ``backward``
    has walked it (the loss keeps its ``grad``); it cannot be walked again.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_float_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._op = "leaf"
        self._backward = None

    # -- array metadata ------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, op={self._op!r})"

    # -- operator sugar --------------------------------------------------
    def __mul__(self, other):
        return mul(self, other)

    # -- method sugar ------------------------------------------------------
    def sum(self):
        shape = self.shape
        return make_node(self.data.sum(), (self,), "sum",
                         lambda g: (np.broadcast_to(g, shape),))


class Parameter(Tensor):
    """Trainable leaf tensor with an always-present grad."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.grad = np.zeros_like(self.data)

    def reset_grad(self):
        self.grad = np.zeros_like(self.data)


def will_record(parents):
    """Whether ``make_node`` records a node over ``parents``: not inside
    ``no_grad`` on this thread, and some parent requires grad.  An op whose
    node will not be recorded may write its result over arrays that only its
    backward needs."""
    return _grad_enabled.enabled and any(p.requires_grad for p in parents)


def make_node(data, parents, op, backward_fn):
    """Wrap an op result as a graph node.

    ``backward_fn(gout)`` must return one gradient array (or None) per parent.
    Recording is skipped when ``will_record(parents)`` is false.

    ``backward`` calls ``backward_fn`` once, with no other reference to
    ``gout`` held by the walk, so on CPython >= 3.11 the closure may drop
    ``gout`` once it has read it and have it freed there (on 3.10 the
    caller keeps it until the call returns).  It must not write into
    ``gout``, which other nodes may share (see the module docstring).
    """
    out = Tensor(data)
    if will_record(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._op = op
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def mul(a, b):
    if a.shape != b.shape:
        raise ValueError(f"mul: operand shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    return make_node(ad * bd, (a, b), "mul", lambda g: (g * bd, g * ad))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def trace(root):
    """All nodes reachable from ``root``, parents before children."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def usable_cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def overlap(first, second):
    """``(first(), second())``, with the two calls overlapped when a second
    CPU can take one of them.

    With two or more usable CPUs ``first`` runs on one worker thread started
    for this call while ``second`` runs on the calling thread.  On one CPU
    both run here in turn, ``first`` first: a worker there runs no faster,
    and its thread's heap arena added about 44 MB to a demo training step's
    peak RSS.  Both calls have ended when this returns or raises.  An error
    from ``first`` is raised ahead of one from ``second``, which it carries
    as its ``__context__``; so the error raised is the one that comes first
    in call order, as when the two run in turn.
    """
    if usable_cpus() < 2:
        return first(), second()
    result, error = [], []

    def run():
        try:
            result.append(first())
        except BaseException as e:
            error.append(e)

    worker = threading.Thread(target=run, name="phnet-overlap")
    worker.start()
    try:
        out = second()
    finally:
        worker.join()
        if error:
            raise error[0]
    return result[0], out


def _openblas_thread_setters():
    """``openblas_set_num_threads_local`` of each OpenBLAS library loaded in
    this process (NumPy's and SciPy's wheels each bundle one), found by file
    name in ``/proc/self/maps``.  That call (OpenBLAS >= 0.3.27) sets the
    library's thread count for the whole process and returns the previous
    one.  Empty where the file or the call is missing."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            fn = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
        setters.append(fn)
    return setters


@contextmanager
def _one_blas_thread():
    """Run each loaded OpenBLAS on one thread inside the block, and restore
    its thread count after.  Two walks that each call a multi-threaded
    OpenBLAS oversubscribe the CPUs: on a 2-vCPU VM a demo step's branch
    walk took 0.70-0.87 s with NumPy's and SciPy's default two BLAS threads,
    against 0.18 s with one (0.33 s for one walk of the whole graph).  The
    thread count can change which GEMM kernel OpenBLAS picks, and so the
    low bits of its sums; the branch walks run on one BLAS thread on either
    schedule, so both do the same arithmetic."""
    setters = _openblas_thread_setters()
    previous = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, n in zip(setters, previous):
            set_threads(n)


def _disjoint_branches(root):
    """The trace of each parent of ``root`` when there are two or more, each
    is an op result, and no op result lies in two traces (leaves may);
    otherwise None."""
    tops = root._parents
    if len(tops) < 2 or any(top._backward is None for top in tops):
        return None
    branches, seen = [], set()
    for top in tops:
        order = trace(top)
        ops = {id(node) for node in order if node._backward is not None}
        if not seen.isdisjoint(ops):
            return None
        seen |= ops
        branches.append(order)
    return branches


def _take_grad(node):
    """``node.grad``, which is set to None: a closure handed the result holds
    the walk's last reference to it."""
    g, node.grad = node.grad, None
    return g


def _accumulate(parents, grads, leaf_grads):
    """Add each gradient of ``grads`` into its parent's ``.grad``, or for a
    leaf into ``leaf_grads`` (leaf -> array) when it is given.  Called with
    a closure's result, so no name of the walk keeps those arrays alive
    once they have been handed on."""
    for parent, g in zip(parents, grads):
        if g is None or not parent.requires_grad:
            continue
        if leaf_grads is not None and parent._op == "leaf":
            held = leaf_grads.get(parent)
            leaf_grads[parent] = g if held is None else held + g
        else:
            parent.grad = g if parent.grad is None else parent.grad + g


def _walk(order, root, leaf_grads=None):
    """Run the closures of ``order`` (parents before children) from its end,
    releasing each op result but ``root`` as it goes.  Leaf gradients go
    into ``leaf_grads`` (leaf -> array) when it is given, else into each
    leaf's ``.grad``.  Each op result but ``root`` is handed its cotangent
    with the node's reference taken off it (see ``make_node``)."""
    # popping drops the walk's own reference to each node
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            _accumulate(node._parents,
                        node._backward(node.grad if node is root else _take_grad(node)),
                        leaf_grads)
        node._backward = None
        node._parents = ()


def backward(loss):
    """Accumulate d(loss)/d(node) into ``.grad`` of every leaf reachable from
    ``loss`` that requires grad, walking the graph once.

    Each op result is released as the walk passes it: its ``grad`` is taken
    off it and handed to its closure (``loss`` keeps its own), and once the
    closure has run, the node drops its closure and parents, so the walk
    frees the tape as it goes.  Leaf grads, such as those of
    ``Parameter``s, keep accumulating across walks until reset.
    Walking a graph a second time raises ``ValueError``.

    When ``loss`` has two or more parents, each an op result, and no op
    result is reachable from two of them, ``loss``'s closure runs first and
    then each parent's graph (a branch) is walked on its own, into leaf
    gradient buffers of its own; the buffers are then added into the leaves'
    ``.grad`` in parent order.  ``overlap`` walks the first branch beside
    the others, with each loaded OpenBLAS on one thread, so the arithmetic
    and the gradients are the same whatever the CPU count; they agree with
    one walk of the whole graph up to the order of the leaf sums.  A closure
    that raises is raised once every walk has ended, and then no leaf
    ``.grad`` has moved.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = trace(loss)
    # an op result without a closure has been walked (a leaf never had one)
    if any(node._backward is None and node._op != "leaf" for node in order):
        raise ValueError("backward: this graph was already walked, and a graph "
                         "can be walked only once; build it again for another gradient")
    loss.grad = np.ones_like(loss.data) if loss.grad is None \
        else loss.grad + np.ones_like(loss.data)
    branches = _disjoint_branches(loss)
    if branches is None:
        _walk(order, loss)
        return
    del order
    # the loss's closure hands each branch top its cotangent
    _walk([loss], loss)
    leaf_grads = [{} for _ in branches]
    walks = [partial(_walk, order, loss, grads) for order, grads in zip(branches, leaf_grads)]
    with _one_blas_thread():
        overlap(walks[0], lambda: [walk() for walk in walks[1:]])
    for grads in leaf_grads:
        for leaf, g in grads.items():
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic gradient of scalar ``f`` at ``x``
    and central finite differences with step ``h``.

    Per-coordinate relative error is |a - n| / max(|a|, |n|, 1e-12).
    """
    seed = Tensor(x.data.copy(), requires_grad=True)
    y = f(seed)
    if y.size != 1:
        raise ValueError("grad_check: f must be scalar-valued")
    backward(y)
    analytic = seed.grad if seed.grad is not None else np.zeros_like(seed.data)

    numeric = np.zeros_like(x.data)
    flat = numeric.reshape(-1)
    base = x.data.copy()
    with no_grad():
        for i in range(base.size):
            probe = base.reshape(-1)
            orig = probe[i]
            probe[i] = orig + h
            hi = f(Tensor(base)).item()
            probe[i] = orig - h
            lo = f(Tensor(base)).item()
            probe[i] = orig
            flat[i] = (hi - lo) / (2.0 * h)

    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        raise FloatingPointError("grad_check: non-finite values encountered")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))
