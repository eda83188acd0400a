"""Reference implementations the tests check the package against."""

from __future__ import annotations

import numpy as np


def gini_oracle(weights) -> float:
    """Sorted-rank Gini, G = (2 * sum i*x_(i)) / (n * sum x) - (n+1)/n.

    Test oracle; returns 0 for fewer than two weights.
    """
    values = np.sort(np.asarray(weights, dtype=float))
    n = values.size
    total = float(values.sum())
    if n < 2 or total <= 0.0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * values).sum()) / (n * total) - (n + 1) / n)


def ols_oracle(y, x) -> tuple[float, float]:
    """Covariance-formula least squares, beta1 = S_xy / S_xx. Test oracle."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("zero variance regressor")
    beta1 = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
    beta0 = float(y.mean()) - beta1 * float(x.mean())
    return beta0, beta1
