"""AdamW with decoupled weight decay and the batch-proportional learning-rate
rule.

The reference learning rate is 1e-3 at batch size 1024 and scales linearly:
``lr = 1e-3 * batch_size / 1024``.  Because 1024 is a power of two the scaling
is exact in binary floating point (lr(2) == 1.953125e-6 exactly).

The decay term is applied multiplicatively to the incoming parameter value —
mathematically identical to subtracting ``lr * wd * p`` but guarantees that a
step with zero gradient and zero state shrinks parameters to exactly
``p * (1 - lr * wd)``.
"""

import math

import numpy as np

__all__ = ["TrainingError", "lr_for_batch", "AdamW"]

BASE_LR = 1e-3
BASE_BATCH = 1024


class TrainingError(RuntimeError):
    """Raised when training becomes numerically invalid (non-finite values)."""


def lr_for_batch(batch_size):
    """Linear learning-rate scaling: 1e-3 * batch_size / 1024."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return BASE_LR * batch_size / BASE_BATCH


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Update per parameter (t is the 1-based step count)::

        m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
        m_hat = m / (1-b1^t)          v_hat = v / (1-b2^t)
        p <- p*(1 - lr*wd) - lr * m_hat / (sqrt(v_hat) + eps)

    Exactly one of ``lr`` / ``batch_size`` picks the learning rate; passing
    ``lr`` overrides the batch-size rule.
    """

    def __init__(self, params, batch_size=None, lr=None, betas=(0.9, 0.999),
                 eps=1e-8, weight_decay=1e-2):
        if lr is None:
            if batch_size is None:
                raise ValueError("provide batch_size (for the lr rule) or lr")
            lr = lr_for_batch(batch_size)
        # math.isfinite is false for NaN and for an infinity
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be positive and finite, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be positive and finite, got {eps}")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(f"weight_decay must be >= 0 and finite, got {weight_decay}")
        self.params = list(params)
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.reset_grad()

    def step(self):
        """Apply one update using each parameter's accumulated ``.grad``
        (missing gradients count as zero).  Returns the global L2 norm of
        the gradients, summed in float64."""
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        sq = 0.0
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingError(
                    f"non-finite gradient encountered at step {self.t} "
                    f"(parameter {i}, shape {p.data.shape})")
            sq += float(np.square(g, dtype=np.float64).sum())
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            # overflow here is not a numpy bug but a diverged run; it is
            # detected below and reported as a TrainingError
            with np.errstate(over="ignore", invalid="ignore"):
                p.data = (p.data * (1.0 - self.lr * self.weight_decay)
                          - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
            if not np.all(np.isfinite(p.data)):
                raise TrainingError(
                    f"non-finite parameter value after step {self.t} "
                    f"(parameter {i}, shape {p.data.shape})")
        return math.sqrt(sq)
