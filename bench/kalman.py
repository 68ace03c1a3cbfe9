"""Exact Kalman filter for smcfilter's linear-Gaussian models (Kalman 1960).

Both built-in models are linear with Gaussian noise, so the exact posterior
is known in closed form and serves as an oracle for the particle filter.
The matrices are read off the model itself: F and H are the images of the
unit vectors under ``f`` and ``h``, Q and R the diagonal noise variances.
"""

from __future__ import annotations

import numpy as np


def linear_form(model):
    """(F, H, Q, R) of a linear model with diagonal noise."""
    eye = np.eye(model.state_dim)
    return (
        np.asarray(model.f(eye)).T,
        np.asarray(model.h(eye)).T,
        np.diag(model.process_var),
        np.diag(model.meas_var),
    )


def kalman_filter(model, prior_mean, prior_std, measurements):
    """Posterior means (K, n) and covariances (K, n, n) after each measurement.

    The prior N(prior_mean, diag(prior_std**2)) describes the state at k=0;
    ``measurements`` holds z_1..z_K, each preceded by one motion step, which
    is the order the particle filter's ``step`` follows.
    """
    F, H, Q, R = linear_form(model)
    z = np.asarray(measurements, dtype=float).reshape(-1, H.shape[0])
    m = np.asarray(prior_mean, dtype=float)
    P = np.diag(np.asarray(prior_std, dtype=float) ** 2)
    means = np.empty((len(z), m.size))
    covs = np.empty((len(z), m.size, m.size))
    for k, zk in enumerate(z):
        m = F @ m
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        gain = np.linalg.solve(S, H @ P).T
        m = m + gain @ (zk - H @ m)
        P = P - gain @ S @ gain.T
        P = 0.5 * (P + P.T)
        means[k] = m
        covs[k] = P
    return means, covs


def rw1d_steady_state_var(q: float, r: float) -> float:
    """Closed-form fixed point of the scalar Riccati recursion for rw1d.

    The predicted variance p solves p = p r / (p + r) + q, so
    p = (q + sqrt(q^2 + 4 q r)) / 2 and the posterior variance is p r / (p + r).
    """
    p = 0.5 * (q + np.sqrt(q * q + 4.0 * q * r))
    return p * r / (p + r)


def kf_gap(model, estimates, kf_means, kf_covs) -> float:
    """RMS of (estimate - Kalman mean) in measurement space over the RMS
    Kalman posterior std there; 0 for an exact filter, about 1 for a draw
    from the posterior."""
    _, H, _, _ = linear_form(model)
    diff = (np.asarray(estimates, dtype=float) - kf_means) @ H.T
    var = np.einsum("oi,kij,oj->ko", H, kf_covs, H)
    return float(np.sqrt(np.mean(diff**2) / np.mean(var)))
