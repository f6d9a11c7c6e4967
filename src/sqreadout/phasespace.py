"""Gaussian phase space of the integrated output mode.

The record M at homodyne angle phi relates to the quadratures of the
time-integrated output mode A through M = 2 sqrt(kappa tau) (X cos phi + Y sin phi),
so the moments at three homodyne angles reconstruct the full Gaussian state
(mean, 2x2 covariance) without any new integrals.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import IndefiniteCovarianceError, QubitState, ReadoutParams, Record

PROBE_ANGLES = (0.0, math.pi / 4.0, math.pi / 2.0)
VACUUM_VARIANCE = 0.25


class GaussianState2D(Record):
    """Mean and covariance of (X_out, Y_out) with [X, Y] = i."""

    mean: tuple[float, float]
    cov: np.ndarray

    def __post_init__(self):
        import numpy as np
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        object.__setattr__(self, "cov", cov)
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * (1.0 + abs(cov[0, 1])):
            raise ValueError("covariance must be symmetric")
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] <= 0:
            raise IndefiniteCovarianceError(
                f"covariance not positive definite (eigenvalues {eigs})")

    @property
    def det(self) -> float:
        import numpy as np
        return float(np.linalg.det(self.cov))


class EllipseDiagnostics(Record):
    """Noise-ellipse orientation and squeezing measures.

    theta_N : angle of the minor-variance axis from the measurement direction,
              folded into [-pi/2, pi/2]
    xi2_N   : normalized noise <M_N^2>/(kappa tau) at the measurement angle
    xi2_dB  : 10 log10 of the minor variance over the vacuum variance 1/4
    """

    theta_N: float
    xi2_N: float
    xi2_dB: float


def reconstruct_state(samples: Sequence[tuple[float, float]], kappa: float,
                      tau: float) -> GaussianState2D:
    """Build the Gaussian state of A from the (signal, noise) at PROBE_ANGLES.

    The means come from the signals at 0 and pi/2, the covariance from the
    noises at all three angles.  Angles are measured from the scheme's
    measurement direction.
    """
    import numpy as np
    kt = kappa * tau
    rows = []
    for phi in PROBE_ANGLES:
        c, s = math.cos(phi), math.sin(phi)
        rows.append([c * c, 2.0 * c * s, s * s])
    scale = 2.0 * math.sqrt(kt)
    mean = (samples[0][0] / scale, samples[2][0] / scale)
    rhs = [noise / (4.0 * kt) for _, noise in samples]
    dxx, dxy, dyy = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
    return GaussianState2D(mean, np.array([[dxx, dxy], [dxy, dyy]]))


def ellipse(state: GaussianState2D) -> EllipseDiagnostics:
    """Eigen-analysis of the covariance into squeeze direction and degree."""
    import numpy as np
    cov = state.cov
    eigvals, eigvecs = np.linalg.eigh(cov)
    lam_min = float(eigvals[0])
    lam_max = float(eigvals[-1])
    if lam_max - lam_min <= 1e-12 * lam_max:
        theta = 0.0
    else:
        vx, vy = eigvecs[:, 0]
        theta = math.atan2(vy, vx)
        if theta > math.pi / 2.0:
            theta -= math.pi
        elif theta <= -math.pi / 2.0:
            theta += math.pi
    return EllipseDiagnostics(theta_N=theta, xi2_N=4.0 * float(cov[0, 0]),
                              xi2_dB=10.0 * math.log10(lam_min / VACUUM_VARIANCE))


def wigner_grid(state: GaussianState2D, window: tuple[float, float],
                resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample W(X, Y) on a square grid; returns (x, y, W) with W[iy, ix].

    W = exp(-G^T D^-1 G / 2) / (2 pi sqrt(det D)); the grid sum times the cell
    area approaches 1 once the window covers the state.
    """
    import numpy as np
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    det = state.det
    if det <= 0:
        raise IndefiniteCovarianceError("singular covariance")
    inv = np.linalg.inv(state.cov)
    x = np.linspace(window[0], window[1], resolution)
    y = np.linspace(window[0], window[1], resolution)
    gx = x[None, :] - state.mean[0]
    gy = y[:, None] - state.mean[1]
    quad = inv[0, 0] * gx ** 2 + 2.0 * inv[0, 1] * gx * gy + inv[1, 1] * gy ** 2
    w = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
    return x, y, w


def pointer_state(params: ReadoutParams, cfg) -> dict[QubitState, GaussianState2D]:
    """Gaussian pointer states of a scheme for both qubit states.

    One cfg.moments call at the measurement angle turned by each of
    PROBE_ANGLES answers for both states.  The X axis of each state is the
    measurement direction phi_h of the scheme's operating point (theta/2 for
    the combined scheme).
    """
    params, cfg = cfg.operating_point(params)
    base = params.phi_h
    probed = [cfg.moments(params.with_(phi_h=base + phi)) for phi in PROBE_ANGLES]
    return {state: reconstruct_state([m.of(state) for m in probed], params.kappa, params.tau)
            for state in QubitState}
