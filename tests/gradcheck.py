"""Central finite-difference oracle shared by the gradient tests.

The oracle only ever calls the forward pass, so it stays independent of the
analytic backward code it checks.
"""

import numpy as np

H = 1e-5


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def numeric_grad(loss_fn, array: np.ndarray, h: float = H) -> np.ndarray:
    """Central differences of a scalar function w.r.t. an array perturbed in place.

    Elements are indexed in place, not through ``reshape(-1)``, which would
    perturb a copy of a non-contiguous view.
    """
    grad = np.zeros_like(array)
    for i in np.ndindex(array.shape):
        orig = array[i]
        array[i] = orig + h
        up = loss_fn()
        array[i] = orig - h
        down = loss_fn()
        array[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad


def check_grads(loss_fn, analytic: dict, arrays: dict, h: float = H) -> dict:
    """Worst relative error per named array; arrays are perturbed in place."""
    return {name: rel_err(analytic[name], numeric_grad(loss_fn, arrays[name], h))
            for name in analytic}
