"""Orbit sums: equidistribution checks, the orbit CLT, and the flux transition.

Three families of geodesic sums live here.  Sum rules weight each class
by l_sharp/|I - P| and converge to window integrals; they certify that
long orbits equidistribute at the rate the variance pipeline assumes.
The orbit ensemble puts the same weights, localized near length T,
behind a sampler for the homology pairing X_T, whose Gaussian limit has
variance Var(a) measurable from the spectrum itself.
That variance finally drives the interpolation between the GOE and GUE
constants as the flux strength s grows.  Each experiment returns the rows
of its CSV artifact (``sumrule``, ``orbit-clt``, ``transition``) as a
mapping of plain Python numbers keyed by column.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from . import Refused
from .characters import FluxCharacter, phases_on_lattice
from .fuchsian import LengthSpectrum
from .rng import stream
from .variance import (
    SigmaEvaluator,
    _flux_pairing,
    _pair_values_bulk,
    _require_certified,
    energy_average,
)
from .windows import _TOLERANCE, Window, _unit_integral, sigma2_gue


class NonCompactPreset(UserWarning):
    """Sum-rule targets assume a co-compact group; cusps and funnels bias them."""


class EmptyEnsemble(Refused):
    """No geodesic class falls inside the requested length window."""


@lru_cache(maxsize=None)
def _half_mass(kind: str) -> float:
    """integral of psi_hat over [0, 1] at unit amplitude.

    psi_hat is even, so the mass over [-1, 1] is twice this.
    """
    return _unit_integral(Window(kind).psi_hat, 1e-11)


def unit_mass_bump() -> Window:
    """The default orbit weight: smooth bump rescaled to unit mass."""
    return Window("smooth_bump", amplitude=1.0 / (2.0 * _half_mass("smooth_bump")))


def _flux_array(flux_vector, rank: int) -> np.ndarray:
    """Flux vector as an array (zero if None); ``_flux_pairing`` checks its rank."""
    if flux_vector is None:
        return np.zeros(rank)
    return np.asarray(
        flux_vector.flux if isinstance(flux_vector, FluxCharacter) else flux_vector,
        dtype=float,
    )


def _equidistribution_weight(spectrum: LengthSpectrum, rows) -> np.ndarray:
    """l_sharp / |I - P| on the given rows."""
    return spectrum.primitive_length[rows] * np.exp(-spectrum.log_det[rows])


# ---------------------------------------------------------------------------
# sum rules


def _warn_if_not_cocompact(spectrum: LengthSpectrum) -> None:
    if not spectrum.group.cocompact:
        warnings.warn(
            f"preset {spectrum.group.name!r} is not co-compact; geodesics are"
            " too sparse for the equidistribution target",
            NonCompactPreset,
            stacklevel=3,
        )


def sum_rule_check(spectrum: LengthSpectrum, phi: Window, L: float, char=None) -> dict:
    """(1/L) sum of Re chi(gamma) l_sharp phi(l/L) / |I - P| vs its limit.

    The limit is the integral of phi over [0, inf) when chi is trivial and
    0 otherwise: nontrivial characters kill the leading equidistribution
    term.  All classes enter, powers included (their |I - P| weight makes
    them negligible but they belong to the sum).  Returns the row of the
    ``sumrule`` table at this cutoff.
    """
    if not L > 0:
        raise Refused(f"sum rule cutoff L must be positive, got {L:g}")
    _require_certified(spectrum, L)
    _warn_if_not_cocompact(spectrum)
    d_trivial = 1.0 if phases_on_lattice(char, 2.0 * math.pi) else 0.0
    rows = np.arange(len(spectrum.records))
    weight = _equidistribution_weight(spectrum, rows)
    re_chi = 0.5 * _pair_values_bulk(char, spectrum, rows, 1)[0]
    total = float(np.sum(re_chi * weight * phi.psi_hat(spectrum.length / L)))
    target = float(d_trivial * phi.amplitude * _half_mass(phi.kind))
    value = total / L
    return {"L": float(L), "value": value, "target": target, "gap": abs(value - target)}


# ---------------------------------------------------------------------------
# the orbit ensemble and its CLT


def _alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias tables: O(1) draws from a finite distribution."""
    n = len(probs)
    prob = np.zeros(n)
    alias = np.zeros(n, dtype=np.int64)
    scaled = probs * n
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] - (1.0 - scaled[s])
        (small if scaled[g] < 1.0 else large).append(g)
    for i in large:
        prob[i] = 1.0
    for i in small:
        prob[i] = 1.0
    return prob, alias


class OrbitEnsemble:
    """Spectrum ``rows`` near length T, ``probs`` ~ l_sharp omega(l - T) / |I - P|
    with omega the ``unit_mass_bump``."""

    def __init__(self, spectrum: LengthSpectrum, T: float) -> None:
        omega = unit_mass_bump()
        _require_certified(spectrum, T + 1.0, "T+1")
        near = np.flatnonzero(np.abs(spectrum.length - T) < 1.0)
        w = _equidistribution_weight(spectrum, near) * omega.psi_hat(spectrum.length[near] - T)
        keep = w > 0.0
        if not keep.any():
            raise EmptyEnsemble(f"no class within distance 1 of T={T:.6g}")
        probs = w[keep]
        probs /= probs.sum()
        self.T = float(T)
        self.rows = near[keep]
        self.probs = probs
        self._prob, self._alias = _alias_table(probs)

    def sample_indices(self, draws: int, seed: int) -> np.ndarray:
        if draws < 1:
            raise Refused("draws must be >= 1")
        g = stream(seed)
        idx = g.integers(0, len(self.probs), draws)
        u = g.random(draws)
        return np.where(u < self._prob[idx], idx, self._alias[idx])


def orbit_clt_experiment(
    spectrum: LengthSpectrum,
    flux_vector,
    T: float,
    draws: int,
    seed: int,
    eps: float = 1.0,
) -> dict:
    """Sample X_T = <flux, homology>/sqrt(T) from the orbit ensemble.

    The exact ensemble moments (weighted sums over the finite class list)
    come along for free and separate Monte Carlo noise from the window
    bias when comparing against variance_estimator, which is read on
    [T, T + eps] and, where the spectrum certifies them, at T - 1 and
    T + 1: ``joint_band`` is 3 variance SE plus half the spread of that
    sweep.  Returns the row of the ``orbit-clt`` table.
    """
    if draws < 2:
        raise Refused(f"draws must be >= 2 for a sample variance, got {draws}")
    ens = OrbitEnsemble(spectrum, T)
    flux = _flux_array(flux_vector, spectrum.group.rank)
    x_class = _flux_pairing(spectrum, ens.rows, flux) / math.sqrt(T)
    # the estimator refuses its window before any draw is made
    estimator = variance_estimator(spectrum, flux, T, eps)
    sweep = [estimator]
    for t in (T - 1.0, T + 1.0):
        if 0.0 < t and t + eps <= spectrum.certified_l_max:
            sweep.append(variance_estimator(spectrum, flux, t, eps))

    idx = ens.sample_indices(draws, seed)
    x = x_class[idx]
    mean = float(x.mean())
    centered = x - mean
    var = float(np.dot(centered, centered) / (draws - 1))
    m2 = var * (draws - 1) / draws
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    variance_se = math.sqrt(max(m4 - m2**2, 0.0) / draws)
    exact_mean = float(np.dot(ens.probs, x_class))
    return {
        "T": ens.T,
        "draws": draws,
        "mean": mean,
        "mean_se": math.sqrt(var / draws),
        "variance": var,
        "variance_se": variance_se,
        "skewness": m3 / m2**1.5 if m2 > 0 else 0.0,
        "excess_kurtosis": m4 / m2**2 - 3.0 if m2 > 0 else 0.0,
        "exact_mean": exact_mean,
        "exact_variance": float(np.dot(ens.probs, (x_class - exact_mean) ** 2)),
        "n_classes": len(ens.rows),
        "estimator": estimator,
        "joint_band": 3.0 * variance_se + 0.5 * (max(sweep) - min(sweep)),
    }


def variance_estimator(
    spectrum: LengthSpectrum, flux_vector, T: float, eps: float = 1.0
) -> float:
    """Var(a) from the length window [T, T+eps].

    eps^{-1} sum over l in [T, T+eps] of (l_sharp/|I-P|) <flux, h>^2 / T;
    homology pairings squared against the equidistribution weight estimate
    the diffusion variance of the flux observable.
    """
    if not 0.0 < eps <= 1.0:
        raise Refused(f"window width epsilon must lie in (0, 1], got {eps:g}")
    if T <= 0:
        raise Refused("T must be positive")
    _require_certified(spectrum, T + eps, "T+eps")
    flux = _flux_array(flux_vector, spectrum.group.rank)
    length = spectrum.length
    sel = np.flatnonzero((T <= length) & (length <= T + eps))
    pairing = _flux_pairing(spectrum, sel, flux)
    total = float(np.sum(_equidistribution_weight(spectrum, sel) * pairing**2))
    return total / (eps * T)


# ---------------------------------------------------------------------------
# the GOE -> GUE transition


def transition_curve(w: Window, variance: float, s_grid) -> np.ndarray:
    """Sigma^2(s) = 2 * integral (1 + e^{-2 variance s^2 t}) t psi_hat^2 dt.

    Equals the GOE constant at s = 0 and decreases to the GUE constant
    as the damping exponent 2 variance s^2 per unit t grows.
    """
    if variance < 0:
        raise Refused("variance must be nonnegative")
    s = np.asarray(s_grid, dtype=float)
    gue = sigma2_gue(w)
    vals = np.empty(len(s))
    for i, si in enumerate(s):
        rate = 2.0 * variance * si * si
        # past t = 40/rate the integrand's tail holds under 2e-16 of the
        # integral, so the nodes span [0, min(1, 40/rate)] only
        span = min(1.0, 40.0 / rate) if rate > 0 else 1.0
        value = span * _unit_integral(
            lambda u: np.exp(-rate * span * u) * (span * u) * w.psi_hat(span * u) ** 2,
            _TOLERANCE,
        )
        vals[i] = gue + 2.0 * value
    return vals


def empirical_transition(
    spectrum: LengthSpectrum,
    flux_vector,
    s_grid,
    lam: float,
    L: float,
    delta: float,
    w: Window,
    variance: float,
    with_average: bool = True,
) -> dict:
    """Desk-scale transition: geodesic sums against the predicted curve.

    For each s the flux phase is alpha = s/sqrt(L) and the empirical value
    is Sigma^2_GUE + (4/L^2) sum over P0 of cos(2 alpha <flux, h>)
    * l^2 psi_hat^2(l/L) / |I - P| -- the squared character, phase 2 alpha,
    not alpha.  ``sigma2_avg`` holds the direct energy average of the full
    variance profile at character scale alpha over [lam, lam + delta],
    which the displayed sum approximates to O(1/L^2) (nan without
    ``with_average``); ``sigma2_pred`` is ``transition_curve`` at
    ``variance``.  Returns the ``transition`` table as one list per column.
    """
    s = np.asarray(s_grid, dtype=float)
    predicted = transition_curve(w, variance, s)  # refuses a bad variance before the sums
    trivial = SigmaEvaluator(spectrum, None, w, L)
    flux = _flux_array(flux_vector, spectrum.group.rank)

    # l^2 psi_hat^2(l/L) / |I - P| is (weight / 2)^2 of the trivial k = 1 coefficient
    theta = _flux_pairing(spectrum, trivial.rows, flux)
    base = (0.5 * trivial.weights[0]) ** 2
    alpha = s / math.sqrt(L)
    gue = sigma2_gue(w)
    empirical = [
        gue + 4.0 / L**2 * float(np.dot(np.cos(2.0 * a * theta), base)) for a in alpha
    ]

    averaged = np.full(len(s), np.nan)
    if with_average:
        for i, a in enumerate(alpha):
            chi = None if a == 0.0 else FluxCharacter(flux=tuple(flux.tolist()), scale=a)
            ev = trivial if chi is None else SigmaEvaluator(spectrum, chi, w, L)
            averaged[i] = energy_average(ev.sigma2, lam, delta, L)

    return {
        "s": s.tolist(),
        "alpha": alpha.tolist(),
        "sigma2_pred": predicted.tolist(),
        "sigma2_emp": empirical,
        "sigma2_avg": averaged.tolist(),
    }
