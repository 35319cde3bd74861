"""Tests for the learning-rate rule and AdamW.

The optimizer is checked against an independent scalar oracle: a plain-Python
loop applying the textbook update one coordinate at a time.
"""

import math

import numpy as np
import pytest

from phnet.autograd import Parameter
from phnet.optim import AdamW, TrainingError, lr_for_batch


# ---------------------------------------------------------------------------
# scalar oracle
# ---------------------------------------------------------------------------

def adamw_oracle(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=1e-2):
    """Scalar-at-a-time AdamW: p0 is a list of floats, grads is a list of
    per-step float lists.  Returns final parameter values."""
    p = list(p0)
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    for t, g_t in enumerate(grads, start=1):
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for i, g in enumerate(g_t):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            p[i] = p[i] * (1.0 - lr * wd) - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def make_param(values, dtype=np.float64):
    return Parameter(np.asarray(values, dtype=dtype))


# ---------------------------------------------------------------------------
# learning-rate rule
# ---------------------------------------------------------------------------

class TestLRRule:
    def test_reference_point(self):
        assert lr_for_batch(1024) == 1e-3

    def test_batch_two_exact(self):
        assert lr_for_batch(2) == 1.953125e-6

    def test_linear_in_batch(self):
        for b in (1, 2, 4, 8, 16, 256):
            assert lr_for_batch(2 * b) == 2 * lr_for_batch(b)

    def test_batch_one(self):
        assert lr_for_batch(1) == 1e-3 / 1024

    def test_invalid_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            lr_for_batch(0)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

class TestAdamW:
    def test_lr_from_batch_size(self):
        opt = AdamW([make_param([1.0])], batch_size=2)
        assert opt.lr == 1.953125e-6

    def test_explicit_lr_overrides(self):
        opt = AdamW([make_param([1.0])], batch_size=2, lr=0.5)
        assert opt.lr == 0.5

    def test_needs_lr_or_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            AdamW([make_param([1.0])])

    def test_zero_grad_zero_state_is_pure_decay(self):
        # with zero gradient and fresh state the update must be exactly
        # p * (1 - lr*wd), bit for bit
        rng = np.random.default_rng(0)
        p = make_param(rng.normal(size=(7, 5)))
        want = p.data * (1.0 - 0.1 * 1e-2)
        p.grad = np.zeros_like(p.data)
        AdamW([p], lr=0.1, weight_decay=1e-2).step()
        assert np.array_equal(p.data, want)

    def test_missing_grad_treated_as_zero(self):
        p = make_param([2.0, -3.0])
        want = p.data * (1.0 - 0.1 * 1e-2)
        AdamW([p], lr=0.1).step()
        assert np.array_equal(p.data, want)

    def test_first_step_hand_oracle(self):
        # g=0.5, lr=0.1, wd=0: m_hat=0.5, v_hat=0.25,
        # update = 0.1*0.5/(0.5+1e-8)
        p = make_param([1.0])
        p.grad = np.array([0.5])
        AdamW([p], lr=0.1, weight_decay=0.0).step()
        want = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert abs(float(p.data[0]) - want) <= 1e-12

    def test_hundred_step_oracle(self):
        # deterministic synthetic gradient schedule, float64, two parameters
        rng = np.random.default_rng(1)
        p0 = rng.normal(size=6).tolist()
        grads = [[math.sin(0.1 * t + i) for i in range(6)] for t in range(100)]
        want = adamw_oracle(p0, grads, lr=0.01)

        pa = make_param(p0[:3])
        pb = make_param(p0[3:])
        opt = AdamW([pa, pb], lr=0.01)
        for g_t in grads:
            pa.grad = np.asarray(g_t[:3])
            pb.grad = np.asarray(g_t[3:])
            opt.step()
        got = np.concatenate([pa.data, pb.data])
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-12

    def test_oracle_with_batch_rule_lr(self):
        grads = [[0.3, -0.7], [1.2, 0.4], [-0.5, 0.9]]
        want = adamw_oracle([0.5, -0.25], grads, lr=lr_for_batch(8))
        p = make_param([0.5, -0.25])
        opt = AdamW([p], batch_size=8)
        for g_t in grads:
            p.grad = np.asarray(g_t)
            opt.step()
        assert np.max(np.abs(p.data - np.asarray(want))) <= 1e-12

    def test_decay_is_decoupled_from_gradient_scale(self):
        # the decay contribution must not pass through the adaptive rescaling:
        # doubling the gradient leaves the decay part identical
        runs = []
        for scale in (1.0, 2.0):
            p = make_param([1.0])
            p.grad = np.array([0.5 * scale])
            AdamW([p], lr=0.1, weight_decay=0.0).step()
            runs.append(float(p.data[0]))
        # adaptive term is ~invariant to gradient scale (sign(g) behavior)
        assert abs(runs[0] - runs[1]) < 1e-7

    def test_non_finite_gradient_raises_with_step(self):
        p = make_param([1.0])
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([0.1])
        opt.step()
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingError, match="step 2"):
            opt.step()

    def test_inf_gradient_raises(self):
        p = make_param([1.0])
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([np.inf])
        with pytest.raises(TrainingError, match="non-finite"):
            opt.step()

    def test_step_returns_the_global_gradient_norm(self):
        rng = np.random.default_rng(3)
        params = [make_param(rng.normal(size=s)) for s in ((3,), (2, 4), (5,))]
        for p in params[:2]:
            p.grad = rng.normal(size=p.data.shape)
        # the third parameter has no gradient, which counts as zero
        assert params[2].grad is None
        grads = np.concatenate([p.grad.ravel() for p in params[:2]])
        norm = AdamW(params, lr=1e-3).step()
        assert norm == pytest.approx(float(np.linalg.norm(grads)), rel=1e-14)

    def test_zero_grad_resets(self):
        p = make_param([1.0])
        p.grad = np.array([5.0])
        AdamW([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_float32_params_stay_float32(self):
        p = make_param([1.0, 2.0], dtype=np.float32)
        p.grad = np.array([0.5, -0.5], dtype=np.float32)
        AdamW([p], lr=0.1).step()
        assert p.data.dtype == np.float32

    def test_shapes_preserved(self):
        p = make_param(np.zeros((2, 3, 4)))
        p.grad = np.ones((2, 3, 4))
        AdamW([p], lr=0.1).step()
        assert p.data.shape == (2, 3, 4)

    def test_bad_hyperparams_rejected(self):
        p = [make_param([1.0])]
        with pytest.raises(ValueError, match="betas"):
            AdamW(p, lr=0.1, betas=(1.0, 0.999))
        with pytest.raises(ValueError, match="eps"):
            AdamW(p, lr=0.1, eps=0.0)
        with pytest.raises(ValueError, match="weight_decay"):
            AdamW(p, lr=0.1, weight_decay=-0.1)
        for lr in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="lr must be positive"):
                AdamW(p, lr=lr)

    @pytest.mark.parametrize("option,message", [("eps", "eps must be positive"),
                                                ("weight_decay", "weight_decay must be >= 0")])
    def test_nan_hyperparams_rejected(self, option, message):
        with pytest.raises(ValueError, match=message):
            AdamW([make_param([1.0])], lr=0.1, **{option: math.nan})

    @pytest.mark.parametrize("option", ["lr", "eps", "weight_decay"])
    def test_infinite_hyperparams_rejected(self, option):
        with pytest.raises(ValueError, match=f"{option} must be .* finite, got inf"):
            AdamW([make_param([1.0])], **{"lr": 0.1, option: math.inf})

    def test_descends_quadratic(self):
        # sanity: 200 steps on f(p) = 0.5*|p|^2 moves p toward zero
        p = make_param([3.0, -2.0])
        opt = AdamW([p], lr=0.05, weight_decay=0.0)
        for _ in range(200):
            p.grad = p.data.copy()
            opt.step()
        assert np.all(np.abs(p.data) < 0.5)
