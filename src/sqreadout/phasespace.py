"""Gaussian phase space of the integrated output mode.

The record M at homodyne angle phi relates to the quadratures of the
time-integrated output mode A through M = 2 sqrt(kappa tau) (X cos phi + Y sin phi),
so the moments at three homodyne angles reconstruct the full Gaussian state
(mean, 2x2 covariance) without any new integrals.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import IndefiniteCovarianceError, QubitState, ReadoutError, ReadoutParams, Record

PROBE_ANGLES = (0.0, math.pi / 4.0, math.pi / 2.0)
VACUUM_VARIANCE = 0.25


class GaussianState2D(Record):
    """Mean and covariance, as float rows ((xx, xy), (xy, yy)), of (X_out, Y_out), [X, Y] = i."""

    mean: tuple[float, float]
    cov: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        (xx, xy), (yx, yy) = ((float(a), float(b)) for a, b in self.cov)
        if abs(xy - yx) > 1e-12 * (1.0 + abs(xy)):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "cov", ((xx, xy), (xy, yy)))
        if not (xx > 0.0 and self.det > 0.0):
            raise IndefiniteCovarianceError(
                f"covariance not positive definite (xx={xx}, det={self.det})")

    @property
    def det(self) -> float:
        (xx, xy), (_, yy) = self.cov
        return xx * yy - xy * xy

    @property
    def eigenvalues(self) -> tuple[float, float]:
        """(minor, major) variance; the minor one is det/major, free of cancellation."""
        (xx, xy), (_, yy) = self.cov
        major = 0.5 * (xx + yy) + math.hypot(0.5 * (xx - yy), xy)
        return self.det / major, major


class EllipseDiagnostics(Record):
    """Noise-ellipse orientation and squeezing measures.

    theta_N : angle of the minor-variance axis from the measurement direction,
              in (-pi/2, pi/2]
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
    noises 4 kappa tau (xx cos^2 + 2 xy cos sin + yy sin^2) at all three
    angles.  Angles are measured from the scheme's measurement direction.
    """
    kt = kappa * tau
    scale = 2.0 * math.sqrt(kt)
    (sx, nx), (_, nd), (sy, ny) = samples
    xx, yy = nx / (4.0 * kt), ny / (4.0 * kt)
    xy = nd / (4.0 * kt) - 0.5 * (xx + yy)
    return GaussianState2D((sx / scale, sy / scale), ((xx, xy), (xy, yy)))


def ellipse(state: GaussianState2D) -> EllipseDiagnostics:
    """Squeeze direction and degree of the covariance, in closed form."""
    (xx, xy), (_, yy) = state.cov
    minor, major = state.eigenvalues
    if major - minor <= 1e-12 * major:     # round
        theta = 0.0
    elif abs(xy) <= 1e-12 * major:         # diagonal up to rounding: the axes are X and Y
        theta = 0.0 if xx <= yy else math.pi / 2.0
    else:
        theta = 0.5 * math.atan2(-2.0 * xy, yy - xx)
    return EllipseDiagnostics(theta_N=theta, xi2_N=4.0 * xx,
                              xi2_dB=10.0 * math.log10(minor / VACUUM_VARIANCE))


def wigner_grid(state: GaussianState2D, window: tuple[float, float],
                resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample W(X, Y) on a square grid; returns (x, y, W) with W[iy, ix].

    W = exp(-G^T D^-1 G / 2) / (2 pi sqrt(det D)); the grid sum times the cell
    area approaches 1 once the window covers the state.  A window so wide that
    the quadratic form overflows (inf - inf) makes a non-finite W, which raises
    ReadoutError.
    """
    import numpy as np
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be finite with lo < hi, got {window}")
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    (xx, xy), (_, yy) = state.cov
    det = state.det
    x = np.linspace(lo, hi, resolution)
    y = np.linspace(lo, hi, resolution)
    gx = x[None, :] - state.mean[0]
    gy = y[:, None] - state.mean[1]
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (yy * gx ** 2 - 2.0 * xy * gx * gy + xx * gy ** 2) / det
        w = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
    if not np.isfinite(w).all():
        raise ReadoutError(f"Wigner function W not finite on the window [{lo:g}, {hi:g}]")
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
