"""AdamW optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    """Standard Adam update plus decoupled weight decay.

    Deterministic: identical parameter values, gradients, and step counts
    produce bitwise-identical updates.
    """

    def __init__(self, params, lr=1e-4, weight_decay=0.01):
        self.params = params  # Params registry
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, grads):
        """grads: name -> ndarray, one entry for every parameter."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient for {name}: shape {g.shape} != {p.data.shape}")
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS) - self.lr * self.weight_decay * p.data
