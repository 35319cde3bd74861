import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phnet import autograd as ag
from phnet.autograd import (
    Tensor,
    Parameter,
    backward,
    grad_check,
    make_node,
    mul,
    no_grad,
    trace,
)
from phnet.optim import AdamW


def rand(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


def relu(t):
    """A ReLU node made with ``make_node``.  The engine has no relu op (PHNet's
    ReLUs run inside ``layers.conv_nd``); these tests use it as a nonlinear
    node with a subgradient of 0 at exactly 0."""
    x = t.data
    return make_node(np.maximum(x, 0.0), (t,), "relu", lambda g: (g * (x > 0),))


def add(a, b):
    """A sum node made with ``make_node``.  The engine has no add op (PHNet's
    sums run inside ``mlpp.mix``, the attention gate and ``layers.conv_nd``);
    these tests use it to join graphs and to fan a node out."""
    ad, bd = a.data, b.data
    return make_node(ad + bd, (a, b), "add", lambda g: (g, g))


def matmul(a, b):
    """A matrix-product node made with ``make_node``.  The engine has no
    matmul op (PHNet's FC maps run inside ``mlpp.mix`` nodes); these tests
    use it as a bilinear node."""
    ad, bd = a.data, b.data
    return make_node(ad @ bd, (a, b), "matmul", lambda g: (g @ bd.T, ad.T @ g))


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_mul_identity():
    x = rand((4,), seed=10)
    out = mul(Tensor(x), Tensor(np.ones(4)))
    np.testing.assert_array_equal(out.data, x)


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_grad_zero_at_zero():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    backward(relu(x).sum())
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_sum_all_axes():
    assert Tensor(np.ones((2, 3))).sum().item() == 6.0


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_grad_of_sum_is_ones():
    x = Tensor(rand((3, 4), seed=12), requires_grad=True)
    backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_grad_of_square_sum():
    x = Tensor(rand((5,), seed=13), requires_grad=True)
    backward((x * x).sum())
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-15)


def test_backward_rejects_nonscalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(x * x)


def test_matmul_chain_finite_differences():
    rng = np.random.default_rng(14)
    W1 = rng.normal(size=(4, 6))
    W2 = rng.normal(size=(6, 2))

    def f(x):
        h = matmul(x, Tensor(W1))
        return matmul(h * h, Tensor(W2)).sum()

    err = grad_check(f, Tensor(rng.normal(size=(3, 4))), h=1e-5)
    assert err < 1e-6


def test_gradient_accumulation_fan_out():
    # y feeds two consumers; grad(y) must equal the duplicated-graph sum
    x = rand((4,), seed=15)

    xt = Tensor(x, requires_grad=True)
    y = xt * xt
    z = add(relu(y), y * Tensor(np.full(4, 3.0))).sum()
    backward(z)

    x1 = Tensor(x, requires_grad=True)
    x2 = Tensor(x, requires_grad=True)
    backward(relu(x1 * x1).sum())
    backward(((x2 * x2) * Tensor(np.full(4, 3.0))).sum())

    np.testing.assert_allclose(xt.grad, x1.grad + x2.grad, atol=1e-15)


# ---------------------------------------------------------------------------
# one walk per graph
# ---------------------------------------------------------------------------

def test_backward_releases_op_results_and_keeps_loss_and_leaf_grads():
    x = Tensor(rand((4,), seed=30), requires_grad=True)
    y = x * x
    z = relu(y)
    loss = z.sum()
    backward(loss)
    for node in (y, z):
        assert node.grad is None
        assert node._backward is None and node._parents == ()
    np.testing.assert_array_equal(loss.grad, np.ones(()))
    assert loss._backward is None and loss._parents == ()
    np.testing.assert_array_equal(x.grad, 2 * x.data * (x.data * x.data > 0))


def test_walk_frees_each_op_result_before_reaching_its_inputs():
    # when the first op's closure runs, the results downstream of it have
    # been walked and nothing, not even the walk's own list, still holds them
    x = Tensor(rand((3,), seed=33), requires_grad=True)
    alive = []

    def first_bk(g):
        alive.append([r() is not None for r in refs])
        return (g,)

    h = make_node(x.data * 1.0, (x,), "first", first_bk)
    a = h * h
    b = a * a
    loss = b.sum()
    refs = [weakref.ref(a.data), weakref.ref(b.data)]
    del a, b
    backward(loss)
    assert alive == [[False, False]]
    np.testing.assert_allclose(x.grad, 4 * x.data ** 3, rtol=1e-14)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller keeps each argument alive until "
                           "the call returns, so a closure cannot free its cotangent")
def test_a_closure_frees_its_cotangent_when_it_drops_its_name():
    x = Tensor(rand((5,), seed=34), requires_grad=True)
    freed = []

    def bk(g):
        ref = weakref.ref(g)
        twice = 2.0 * g
        del g
        freed.append(ref() is None)
        return (twice,)

    h = make_node(x.data * 2.0, (x,), "probe", bk)
    loss = (h * Tensor(np.full(5, 3.0))).sum()
    backward(loss)
    assert freed == [True]
    assert h.grad is None
    np.testing.assert_array_equal(loss.grad, np.ones(()))
    np.testing.assert_array_equal(x.grad, np.full(5, 6.0))


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_loss_keeps_its_grad_after_a_branch_walk(monkeypatch, cpus):
    monkeypatch.setattr(ag, "usable_cpus", lambda: cpus)
    x, y = (Tensor(rand((3,), seed=s), requires_grad=True) for s in (35, 36))
    loss = add((x * x).sum(), (y * y).sum())
    backward(loss)
    np.testing.assert_array_equal(loss.grad, np.ones(()))
    np.testing.assert_array_equal(x.grad, 2 * x.data)
    np.testing.assert_array_equal(y.grad, 2 * y.data)


def test_one_cotangent_handed_to_two_parents_reaches_both():
    # as ``mlpp.mix`` hands one array to every map it sums: each parent's
    # closure takes the same array, and the first one's reading it leaves
    # it intact for the second
    x, w = Tensor(rand((4,), seed=37), requires_grad=True), rand((4,), seed=38)
    seen = []

    def scaled(factor):
        def bk(g):
            seen.append(g)
            out = factor * g
            del g
            return (out,)
        return make_node(x.data * factor, (x,), f"scale{factor}", bk)

    a, b = scaled(2.0), scaled(3.0)
    top = make_node(a.data + b.data, (a, b), "shared", lambda g: (g * 1.0,) * 2)
    backward((top * Tensor(w)).sum())
    assert len(seen) == 2 and seen[0] is seen[1]
    np.testing.assert_array_equal(seen[0], w)
    np.testing.assert_array_equal(x.grad, 3.0 * w + 2.0 * w)


def test_second_walk_of_a_graph_raises():
    x = Tensor(rand((4,), seed=31), requires_grad=True)
    y = x * x
    loss = y.sum()
    backward(loss)
    first = x.grad.copy()
    with pytest.raises(ValueError, match="walked only once"):
        backward(loss)
    # a walked node inside a new graph is refused too, before any grad moves
    with pytest.raises(ValueError, match="walked only once"):
        backward((y * y).sum())
    np.testing.assert_array_equal(x.grad, first)


def test_a_leaf_loss_can_be_walked_again():
    # a leaf has no closure to release, so it is not a walked graph
    p = Tensor(np.array(2.0), requires_grad=True)
    backward(p)
    backward(p)
    np.testing.assert_array_equal(p.grad, np.array(2.0))


def test_two_graphs_accumulate_into_a_shared_leaf():
    p = Parameter(rand((3,), seed=32))
    backward((p * p).sum())
    backward((p * Tensor(np.full(3, 3.0))).sum())
    np.testing.assert_allclose(p.grad, 2 * p.data + 3.0, rtol=0, atol=1e-15)


def test_trace_topological_order():
    x = Tensor(rand((3,), seed=16), requires_grad=True)
    y = x * x
    z = add(y, relu(y)).sum()
    order = trace(z)
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_composite_gradients_at_random_points():
    # mixed matmul/square/reduce composition, many random points
    rng = np.random.default_rng(17)
    W = rng.normal(size=(6, 3))

    def f(x):
        y = matmul(x, Tensor(W))
        return (y * y).sum()

    for i in range(100):
        pt = rng.normal(size=(2, 6)) + 0.1
        assert grad_check(f, Tensor(pt), h=1e-5) < 1e-5


def test_no_grad_disables_recording():
    x = Tensor(rand((3,), seed=22), requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert y._backward is None and not y.requires_grad


def test_no_grad_on_a_worker_thread_leaves_the_main_thread_recording():
    """The grad mode is per thread: while a worker holds a ``no_grad`` block
    open, the main thread's ops still record and backpropagate, and the
    worker's do not record."""
    x = Tensor(rand((3,), seed=22), requires_grad=True)
    inside, release = threading.Event(), threading.Event()
    worker_recorded = []

    def worker():
        with no_grad():
            inside.set()
            worker_recorded.append((x * x).sum().requires_grad)
            release.wait(timeout=30)

    t = threading.Thread(target=worker)
    t.start()
    try:
        assert inside.wait(timeout=30)
        y = (x * x).sum()
        assert y.requires_grad and y._backward is not None
        backward(y)
        np.testing.assert_array_equal(x.grad, 2 * x.data)
    finally:
        release.set()
        t.join(timeout=30)
    assert not t.is_alive()
    assert worker_recorded == [False]
    assert (x * x).sum().requires_grad


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# ---------------------------------------------------------------------------
# overlap: two calls, on two threads when two CPUs are usable
# ---------------------------------------------------------------------------

def _job(tag, log, fail=False, wait_for=None, done=None):
    """A call that logs its tag and thread, waits for ``wait_for``, sets
    ``done`` as it ends and then returns its tag, or raises if ``fail``."""
    def run():
        log.append((tag, threading.current_thread().name))
        try:
            if wait_for is not None:
                assert wait_for.wait(10)
            if fail:
                raise RuntimeError(f"{tag} failed")
            return tag
        finally:
            if done is not None:
                done.set()
    return run


@pytest.mark.parametrize("cpus", [1, 2])
def test_overlap_returns_both_results_and_leaves_no_thread(cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    log = []
    assert ag.overlap(_job("first", log), _job("second", log)) == ("first", "second")
    main = threading.main_thread().name
    if cpus == 1:
        # in turn on the calling thread, first first
        assert log == [("first", main), ("second", main)]
    else:
        assert dict(log) == {"first": "phnet-overlap", "second": main}
    assert not any(t.name == "phnet-overlap" for t in threading.enumerate())


def test_overlap_on_one_cpu_does_not_start_second_after_first_raised(monkeypatch):
    _cpus(monkeypatch, 1)
    log = []
    with pytest.raises(RuntimeError, match="first failed"):
        ag.overlap(_job("first", log, fail=True), _job("second", log))
    assert [tag for tag, _ in log] == ["first"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_overlap_raises_the_error_of_second_once_first_has_ended(cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    second_failed, first_done = threading.Event(), threading.Event()
    # with two CPUs, first ends only after second has raised
    first = _job("first", [], wait_for=second_failed if cpus == 2 else None, done=first_done)

    def second():
        second_failed.set()
        raise RuntimeError("second failed")

    with pytest.raises(RuntimeError, match="second failed"):
        ag.overlap(first, second)
    assert first_done.is_set()


def test_overlap_raises_the_error_of_first_ahead_of_one_from_second(monkeypatch):
    # first raises only after second has raised on the calling thread
    _cpus(monkeypatch, 2)
    second_failed = threading.Event()

    def second():
        second_failed.set()
        raise ValueError("second failed")

    with pytest.raises(RuntimeError, match="first failed") as info:
        ag.overlap(_job("first", [], fail=True, wait_for=second_failed), second)
    assert isinstance(info.value.__context__, ValueError)
    assert str(info.value.__context__) == "second failed"
    assert not any(t.name == "phnet-overlap" for t in threading.enumerate())


# ---------------------------------------------------------------------------
# branch walk: a loss over graphs that share only leaves
# ---------------------------------------------------------------------------


def _probe(t, tag, log, fail):
    """Identity node whose closure logs the thread that runs it, and raises
    when ``tag == fail``."""
    def bk(g):
        log.append((tag, threading.current_thread().name))
        if tag == fail:
            raise RuntimeError(f"closure of branch {tag} failed")
        return (g,)
    return make_node(t.data.copy(), (t,), "probe", bk)


def _branch_loss(params, xs, log=None, fail=None, shared=None):
    """sum_i sum(((x_i W1)^2 W2)^2): one branch per input, joined by
    ``add``s; every branch reads the same two Parameters, and each also
    reads the op result ``shared`` when one is given."""
    w1, w2 = params
    tops = []
    for i, x in enumerate(xs):
        h = matmul(Tensor(x), w1)
        if shared is not None:
            h = add(h, shared)
        h = _probe(matmul(h * h, w2), i, [] if log is None else log, fail)
        tops.append((h * h).sum())
    loss = tops[0]
    for top in tops[1:]:
        loss = add(loss, top)
    return loss


def _branch_params(seed):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(size=(4, 5))), Parameter(rng.normal(size=(5, 3)))]


def _branch_inputs(seed, n=2):
    rng = np.random.default_rng(seed + 1)
    return [rng.normal(size=(2, 4)) for _ in range(n)]


def test_branch_walk_matches_one_walk_of_the_whole_graph(monkeypatch):
    _cpus(monkeypatch, 2)
    for seed in range(5):
        for n in (2, 3):
            xs = _branch_inputs(seed, n)
            split = _branch_params(seed)
            loss = _branch_loss(split, xs)
            assert len(ag._disjoint_branches(loss)) == 2
            backward(loss)
            whole = _branch_params(seed)
            with monkeypatch.context() as m:
                m.setattr(ag, "_disjoint_branches", lambda root: None)
                backward(_branch_loss(whole, xs))
            for a, b in zip(split, whole):
                np.testing.assert_allclose(a.grad, b.grad, rtol=1e-13, atol=1e-13)
            assert loss.grad == 1.0


def test_branch_walk_is_bitwise_the_same_on_one_cpu_and_on_two(monkeypatch):
    grads, threads = [], []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        params, log = _branch_params(40), []
        backward(_branch_loss(params, _branch_inputs(40), log))
        grads.append([p.grad for p in params])
        threads.append(dict(log))
    for a, b in zip(*grads):
        assert np.array_equal(a, b)
    main = threading.main_thread().name
    # one CPU: both branches here; two: branch 0 on the call's worker
    assert threads[0] == {0: main, 1: main}
    assert threads[1] == {0: "phnet-overlap", 1: main}


def test_branch_buffers_are_added_into_the_leaves_in_parent_order(monkeypatch):
    # each branch's buffer equals what a walk of that branch alone gives a
    # fresh leaf; onto a grad already held, branch 0's is added first
    _cpus(monkeypatch, 2)
    xs = _branch_inputs(47, 4)
    alone = []
    for half in (xs[:2], xs[2:]):
        params = _branch_params(47)
        backward(_branch_loss(params, half))
        alone.append([q.grad for q in params])
    params = _branch_params(47)
    held = [np.random.default_rng(48).normal(size=q.shape) for q in params]
    for q, h in zip(params, held):
        q.grad = h.copy()
    backward(add(_branch_loss(params, xs[:2]), _branch_loss(params, xs[2:])))
    in_order = [(h + a) + b for h, a, b in zip(held, *alone)]
    reversed_order = [(h + b) + a for h, a, b in zip(held, *alone)]
    assert not all(np.array_equal(a, b) for a, b in zip(in_order, reversed_order))
    for q, want in zip(params, in_order):
        assert np.array_equal(q.grad, want)


def test_branch_walk_under_frequent_thread_switches(monkeypatch):
    # both walks add into the same Parameters; with the interpreter
    # switching threads every microsecond, a gradient added into a shared
    # leaf rather than into its walk's own buffer could be lost or summed
    # in another order, and the result would drift from the one-CPU walk
    xs = _branch_inputs(45, 4)

    def grads(cpus):
        _cpus(monkeypatch, cpus)
        params = _branch_params(45)
        backward(add(_branch_loss(params, xs[:2]), _branch_loss(params, xs[2:])))
        return [p.grad for p in params]

    want = grads(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            assert all(np.array_equal(a, b) for a, b in zip(grads(2), want))
    finally:
        sys.setswitchinterval(interval)


def test_branch_walks_run_blas_on_one_thread_and_restore_its_count(monkeypatch):
    setters = ag._openblas_thread_setters()
    if not setters:
        pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")

    def blas_threads():
        # a call sets the count and returns the previous one
        counts = [set_threads(1) for set_threads in setters]
        for set_threads, n in zip(setters, counts):
            set_threads(n)
        return counts

    before = blas_threads()
    seen = []

    def record(t):
        """Identity node that logs the BLAS thread counts when it is made
        and when its closure runs."""
        def bk(g):
            seen.append(blas_threads())
            return (g,)
        seen.append(blas_threads())
        return make_node(t.data.copy(), (t,), "record", bk)

    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        params = _branch_params(46)
        backward(add(record(_branch_loss(params, _branch_inputs(46)[:1])),
                     record(_branch_loss(params, _branch_inputs(46)[1:]))))
        assert blas_threads() == before
    # two forwards and two closures per schedule
    assert seen[:2] == [before] * 2 and seen[4:6] == [before] * 2
    assert seen[2:4] == seen[6:8] == [[1] * len(setters)] * 2


def test_a_raising_closure_on_the_worker_branch_is_raised_here(monkeypatch):
    _cpus(monkeypatch, 2)
    # leaves with no gradient yet, then leaves holding one from an earlier walk
    for held in (False, True):
        params, log = _branch_params(41), []
        if held:
            for i, p in enumerate(params):
                p.grad = rand(p.shape, seed=i)
        before = [None if p.grad is None else p.grad.copy() for p in params]
        loss = _branch_loss(params, _branch_inputs(41), log, fail=0)
        with pytest.raises(RuntimeError, match="branch 0 failed"):
            backward(loss)
        assert dict(log)[0] == "phnet-overlap"
        assert not any(t.name == "phnet-overlap" for t in threading.enumerate())
        # branch 1 finished, but no leaf gradient was added
        for p, g in zip(params, before):
            assert p.grad is None if g is None else np.array_equal(p.grad, g)


def test_branches_that_share_an_op_result_are_walked_as_one_graph(monkeypatch):
    _cpus(monkeypatch, 2)
    params, log = _branch_params(42), []
    x = Tensor(rand((2, 5), seed=42), requires_grad=True)
    shared = x * x
    loss = _branch_loss(params, _branch_inputs(42), log, shared=shared)
    assert ag._disjoint_branches(loss) is None
    backward(loss)
    main = threading.main_thread().name
    assert sorted(log) == [(0, main), (1, main)]
    assert shared.grad is None and shared._backward is None
    # the same graph without the branch split, walked the same way
    params2 = _branch_params(42)
    x2 = Tensor(x.data, requires_grad=True)
    with monkeypatch.context() as m:
        m.setattr(ag, "_disjoint_branches", lambda root: None)
        backward(_branch_loss(params2, _branch_inputs(42), shared=x2 * x2))
    for a, b in zip(params + [x], params2 + [x2]):
        assert np.array_equal(a.grad, b.grad)


def test_a_loss_with_a_leaf_parent_is_walked_as_one_graph():
    params = _branch_params(43)
    leaf = Tensor(np.array(2.0), requires_grad=True)
    loss = add(_branch_loss(params, _branch_inputs(43, 1)), leaf)
    assert ag._disjoint_branches(loss) is None
    backward(loss)
    assert leaf.grad == 1.0


def test_second_walk_of_a_branch_graph_raises(monkeypatch):
    _cpus(monkeypatch, 2)
    params = _branch_params(44)
    loss = _branch_loss(params, _branch_inputs(44))
    backward(loss)
    first = [p.grad.copy() for p in params]
    with pytest.raises(ValueError, match="walked only once"):
        backward(loss)
    for p, g in zip(params, first):
        assert np.array_equal(p.grad, g)


# ---------------------------------------------------------------------------
# grad_check + Parameter
# ---------------------------------------------------------------------------

def test_grad_check_linear_map():
    w = rand((5,), seed=23)

    def f(x):
        return (x * Tensor(w)).sum()

    assert grad_check(f, Tensor(rand((5,), seed=24)), h=1e-5) < 1e-8


def test_grad_check_exp_network():
    rng = np.random.default_rng(25)
    W1 = rng.normal(size=(3, 8))
    W2 = rng.normal(size=(8, 1))

    def f(x):
        h = matmul(x, Tensor(W1))
        return matmul(h * h, Tensor(W2)).sum()

    assert grad_check(f, Tensor(rng.normal(size=(2, 3))), h=1e-5) < 1e-6


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ValueError):
        grad_check(lambda x: x * x, Tensor(np.ones(3)))


def test_parameter_reset():
    # a Parameter has no gradient until a walk reaches it, accumulates
    # across walks, and starts again from none once zero_grad drops it
    p = Parameter(rand((3,), seed=26))
    assert p.grad is None
    backward((p * p).sum())
    np.testing.assert_array_equal(p.grad, 2 * p.data)
    backward((p * p).sum())
    np.testing.assert_array_equal(p.grad, 4 * p.data)
    opt = AdamW([p], lr=0.1)
    opt.zero_grad()
    assert p.grad is None
    backward((p * p).sum())
    np.testing.assert_array_equal(p.grad, 2 * p.data)
