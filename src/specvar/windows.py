"""Even test windows given by their Fourier transform on [-1, 1].

Only psi-hat ever enters a formula: sums over geodesics truncate where
psi_hat(ell/L) vanishes, and the Gaussian-ensemble variance constants are
integrals of t * psi_hat(t)^2.  The triangle window (Fejer kernel) has
analytic constants 1/3, 1/6, 1/12; the smooth bump is the standard
exp(-1/(1-t^2)) profile normalized to 1 at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

KINDS = ("triangle", "smooth_bump")

# Gauss-Legendre node count of the coarse rule; the fine rule has twice
# as many, and their difference is the error estimate
_GAUSS_NODES = 128
# bound on that difference for the variance constants
_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Window:
    """Window defined through psi_hat, supported in [-1, 1].

    ``amplitude`` rescales psi_hat linearly; variance constants are then
    quadratic in it.
    """

    kind: str
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}")

    def psi_hat(self, t):
        """Evaluate psi_hat, exactly zero outside (-1, 1)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        if self.kind == "triangle":
            out[inside] = 1.0 - np.abs(ti)
        else:
            out[inside] = np.exp(-ti * ti / (1.0 - ti * ti))
        if out.ndim == 0:
            return float(out) * self.amplitude
        return out * self.amplitude


def window(kind: str, amplitude: float = 1.0) -> Window:
    """Build a window; accepts ``bump`` as shorthand for ``smooth_bump``."""
    if kind == "bump":
        kind = "smooth_bump"
    return Window(kind=kind, amplitude=amplitude)


@lru_cache(maxsize=None)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of n points, mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _unit_integral(f, tolerance: float) -> float:
    """Integral of f over [0, 1]: Gauss-Legendre at 256 nodes.

    f maps an array of nodes to an array of values.  The difference from
    the 128-node value is the error estimate; above tolerance it raises
    RuntimeError.  The rule is exact for polynomials of degree below 512,
    so for the triangle window it is exact up to rounding.
    """
    coarse, fine = (
        float(f(t) @ w) for t, w in (_gauss_rule(_GAUSS_NODES), _gauss_rule(2 * _GAUSS_NODES))
    )
    if abs(fine - coarse) > tolerance:
        raise RuntimeError(f"quadrature error {abs(fine - coarse)} above tolerance")
    return fine


def sigma2_goe(w: Window) -> float:
    """GOE variance constant 4 * integral_0^1 t * psi_hat(t)^2 dt."""
    return 4.0 * _unit_integral(lambda t: t * w.psi_hat(t) ** 2, _TOLERANCE)


def sigma2_gue(w: Window) -> float:
    """Half the GOE constant: time-reversal symmetry is broken."""
    return sigma2_goe(w) / 2.0
