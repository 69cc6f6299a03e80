"""Frozen copy of the dense equivalence fit.

`dense_fit` is the regression of `equivalence.fit_equivalence` as it stood
before the fit ran on one logit per model: an (items*J) x J model-dummy design
built row by row, Newton's method by a weighted least-squares solve at every
step, and the cluster sandwich of that design, inverted and formed densely.
It is the oracle for the per-model fit (tests/test_equivalence.py,
tools/fit_probe.py).  Do not edit it to follow the package.
"""

import numpy as np

_MAX_ITER = 100
_DEV_TOL = 1e-10


def _log_likelihood(y, mu):
    mu = np.clip(mu, 1e-12, 1.0 - 1e-12)
    return float(np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)))


def _irls(x, y):
    eta = np.zeros_like(y)
    mu = np.full_like(y, 0.5)
    dev = -2.0 * _log_likelihood(y, mu)
    for it in range(1, _MAX_ITER + 1):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        xtw = x.T * w
        beta = np.linalg.solve(xtw @ x, xtw @ (eta + (y - mu) / w))
        eta = x @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        new_dev = -2.0 * _log_likelihood(y, mu)
        if abs(dev - new_dev) < _DEV_TOL:
            return beta, mu, True, it
        dev = new_dev
    return beta, mu, False, _MAX_ITER


def _cluster_sandwich(x, y, mu, n_clusters, correction):
    w = mu * (1.0 - mu)
    bread = np.linalg.inv((x.T * w) @ x)
    resid = (y - mu)[:, None] * x
    g = resid.reshape(n_clusters, -1, x.shape[1]).sum(axis=1)
    meat = g.T @ g
    if correction == "CR1":
        n_obs, n_par = x.shape
        meat *= (n_clusters / (n_clusters - 1)) * ((n_obs - 1) / (n_obs - n_par))
    return bread @ meat @ bread


def dense_fit(matches, correction="CR0"):
    """Fit an items x J 0/1 match array, its column 0 the baseline and no
    column constant.  Returns (beta, ses, converged, n_iter): beta is the
    intercept and the J - 1 coefficients, ses their standard errors."""
    n_items, j = matches.shape
    y = matches.reshape(-1)  # item-major: observation r is item r // j, model r % j
    x = np.eye(j)[np.arange(y.size) % j]
    x[:, 0] = 1.0
    beta, mu, converged, n_iter = _irls(x, y)
    ses = np.sqrt(np.diag(_cluster_sandwich(x, y, mu, n_items, correction)))
    return beta, ses, converged, n_iter
