"""Orbit sums: equidistribution checks, the orbit CLT, and the flux transition.

Three families of geodesic sums live here.  Sum rules and cluster sums
weight each class by l_sharp/|I - P| and converge to window integrals;
they certify that long orbits equidistribute at the rate the variance
pipeline assumes.  The orbit ensemble puts the same weights, localized
near length T, behind a sampler for the homology pairing X_T, whose
Gaussian limit has variance Var(a) measurable from the spectrum itself.
That variance finally drives the interpolation between the GOE and GUE
constants as the flux strength s grows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .characters import FluxCharacter, phases_on_lattice
from .fuchsian import LengthSpectrum
from .rng import stream
from .variance import (
    SigmaEvaluator,
    _check_flux_rank,
    _pair_values_bulk,
    _require_certified,
    character_id,
    energy_average,
)
from .windows import Window, sigma2_goe, sigma2_gue


class NonCompactPreset(UserWarning):
    """Sum-rule targets assume a co-compact group; cusps and funnels bias them."""


class EmptyEnsemble(LookupError):
    """No geodesic class falls inside the requested length window."""


@lru_cache(maxsize=None)
def _base_mass(kind: str) -> float:
    """integral of psi_hat over [-1, 1] at unit amplitude."""
    w = Window(kind)
    value, err = quad(w.psi_hat, -1.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    if err > 1e-11:
        raise RuntimeError(f"quadrature error {err} above tolerance")
    return value


def window_mass(w: Window) -> float:
    return w.amplitude * _base_mass(w.kind)


def unit_mass_bump() -> Window:
    """The default orbit weight: smooth bump rescaled to unit mass."""
    return Window("smooth_bump", amplitude=1.0 / _base_mass("smooth_bump"))


def _flux_array(flux_vector, rank: int) -> np.ndarray:
    """Flux vector as an array, one entry per generator (zero if None)."""
    if flux_vector is None:
        return np.zeros(rank)
    flux = np.asarray(
        flux_vector.flux if isinstance(flux_vector, FluxCharacter) else flux_vector,
        dtype=float,
    )
    _check_flux_rank(flux, rank)
    return flux


def _orbit_weights(spectrum: LengthSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and equidistribution weights l_sharp / |I - P| of all records."""
    recs = spectrum.records
    length = np.array([r.length for r in recs])
    ell = np.array([r.primitive_length for r in recs])
    log_det = np.array([r.log_det for r in recs])
    return length, ell * np.exp(-log_det)


# ---------------------------------------------------------------------------
# sum rules and cluster sums


@dataclass(frozen=True)
class SumRuleReport:
    value: float
    target: float
    gap: float
    L: float
    char_id: str
    window_kind: str

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "target": self.target,
            "gap": self.gap,
            "L": self.L,
            "character": self.char_id,
            "window": self.window_kind,
        }


def _warn_if_not_cocompact(spectrum: LengthSpectrum) -> None:
    if not spectrum.group.cocompact:
        warnings.warn(
            f"preset {spectrum.group.name!r} is not co-compact; geodesics are"
            " too sparse for the equidistribution target",
            NonCompactPreset,
            stacklevel=3,
        )


def sum_rule_check(
    spectrum: LengthSpectrum, phi: Window, L: float, char=None
) -> SumRuleReport:
    """(1/L) sum of Re chi(gamma) l_sharp phi(l/L) / |I - P| vs its limit.

    The limit is the integral of phi over [0, inf) when chi is trivial and
    0 otherwise: nontrivial characters kill the leading equidistribution
    term.  All classes enter, powers included (their |I - P| weight makes
    them negligible but they belong to the sum).
    """
    _require_certified(spectrum, L)
    _warn_if_not_cocompact(spectrum)
    d_trivial = 1.0 if phases_on_lattice(char, 2.0 * math.pi) else 0.0
    length, weight = _orbit_weights(spectrum)
    re_chi = 0.5 * _pair_values_bulk(char, spectrum.records, 1)[0]
    total = float(np.sum(re_chi * weight * phi.psi_hat(length / L)))
    half_mass, err = quad(phi.psi_hat, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    if err > 1e-11:
        raise RuntimeError(f"quadrature error {err} above tolerance")
    target = d_trivial * half_mass
    value = total / L
    return SumRuleReport(
        value=value,
        target=target,
        gap=abs(value - target),
        L=L,
        char_id=character_id(char),
        window_kind=phi.kind,
    )


@dataclass(frozen=True)
class ClusterReport:
    value: float
    mass: float
    T: float
    unit_window_sum: float
    window_kind: str

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "mass": self.mass,
            "T": self.T,
            "unitWindowSum": self.unit_window_sum,
            "window": self.window_kind,
        }


def cluster_sum(spectrum: LengthSpectrum, omega: Window, T: float) -> ClusterReport:
    """sum of l_sharp omega(l - T) / |I - P|, limiting to the mass of omega.

    The companion unit-window sum (indicator on [T-1, T+1]) is the
    boundedness check: cluster sums stay O(1) uniformly in T.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    _require_certified(spectrum, T + 1.0, "T+1")
    length, weight = _orbit_weights(spectrum)
    x = length - T
    near = np.abs(x) < 1.0
    value = float(np.sum(weight[near] * omega.psi_hat(x[near])))
    unit = float(np.sum(weight[near]))
    return ClusterReport(
        value=value,
        mass=window_mass(omega),
        T=T,
        unit_window_sum=unit,
        window_kind=omega.kind,
    )


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
    """Classes near length T weighted by l_sharp omega(l - T) / |I - P|."""

    def __init__(
        self, spectrum: LengthSpectrum, T: float, omega: Window | None = None
    ) -> None:
        if omega is None:
            omega = unit_mass_bump()
        _require_certified(spectrum, T + 1.0, "T+1")
        length, weight = _orbit_weights(spectrum)
        near = np.flatnonzero(np.abs(length - T) < 1.0)
        w = weight[near] * omega.psi_hat(length[near] - T)
        keep = w > 0.0
        if not keep.any():
            raise EmptyEnsemble(f"no class within distance 1 of T={T:.6g}")
        probs = w[keep]
        probs /= probs.sum()
        self.T = float(T)
        self.omega = omega
        self.records = tuple(spectrum.records[i] for i in near[keep])
        self.probs = probs
        self._prob, self._alias = _alias_table(probs)

    def sample_indices(self, draws: int, seed: int) -> np.ndarray:
        if draws < 1:
            raise ValueError("draws must be >= 1")
        g = stream(seed)
        idx = g.integers(0, len(self.probs), draws)
        u = g.random(draws)
        return np.where(u < self._prob[idx], idx, self._alias[idx])


@dataclass(frozen=True)
class OrbitCltReport:
    draws: int
    T: float
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    skewness: float
    excess_kurtosis: float
    exact_mean: float
    exact_variance: float
    n_classes: int
    flux: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "draws": self.draws,
            "T": self.T,
            "mean": self.mean,
            "meanSE": self.mean_se,
            "variance": self.variance,
            "varianceSE": self.variance_se,
            "skewness": self.skewness,
            "excessKurtosis": self.excess_kurtosis,
            "exactMean": self.exact_mean,
            "exactVariance": self.exact_variance,
            "nClasses": self.n_classes,
            "flux": list(self.flux),
        }


def orbit_clt_experiment(
    spectrum: LengthSpectrum,
    flux_vector,
    T: float,
    draws: int,
    seed: int,
    omega: Window | None = None,
) -> OrbitCltReport:
    """Sample X_T = <flux, homology>/sqrt(T) from the orbit ensemble.

    The exact ensemble moments (weighted sums over the finite class list)
    come along for free and separate Monte Carlo noise from the window
    bias when comparing against variance_estimator.
    """
    ens = OrbitEnsemble(spectrum, T, omega)
    flux = _flux_array(flux_vector, spectrum.group.rank)
    pairing = np.array([np.dot(flux, r.homology) for r in ens.records])
    x_class = pairing / math.sqrt(T)

    idx = ens.sample_indices(draws, seed)
    x = x_class[idx]
    mean = float(x.mean())
    centered = x - mean
    var = float(np.dot(centered, centered) / (draws - 1))
    m2 = var * (draws - 1) / draws
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    exact_mean = float(np.dot(ens.probs, x_class))
    exact_var = float(np.dot(ens.probs, (x_class - exact_mean) ** 2))
    return OrbitCltReport(
        draws=draws,
        T=ens.T,
        mean=mean,
        mean_se=math.sqrt(var / draws),
        variance=var,
        variance_se=math.sqrt(max(m4 - m2**2, 0.0) / draws),
        skewness=m3 / m2**1.5 if m2 > 0 else 0.0,
        excess_kurtosis=m4 / m2**2 - 3.0 if m2 > 0 else 0.0,
        exact_mean=exact_mean,
        exact_variance=exact_var,
        n_classes=len(ens.records),
        flux=tuple(flux.tolist()),
    )


def variance_estimator(
    spectrum: LengthSpectrum, flux_vector, T: float, eps: float = 1.0
) -> float:
    """Var(a) from the length window [T, T+eps].

    eps^{-1} sum over l in [T, T+eps] of (l_sharp/|I-P|) <flux, h>^2 / T;
    homology pairings squared against the equidistribution weight estimate
    the diffusion variance of the flux observable.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if T <= 0:
        raise ValueError("T must be positive")
    _require_certified(spectrum, T + eps, "T+eps")
    flux = _flux_array(flux_vector, spectrum.group.rank)
    length, weight = _orbit_weights(spectrum)
    sel = np.flatnonzero((T <= length) & (length <= T + eps))
    hom = np.array([spectrum.records[i].homology for i in sel], dtype=float)
    pairing = hom.reshape(len(sel), len(flux)) @ flux
    total = float(np.sum(weight[sel] * pairing**2))
    return total / (eps * T)


# ---------------------------------------------------------------------------
# the GOE -> GUE transition


@dataclass(frozen=True)
class TransitionCurve:
    variance: float
    s: np.ndarray
    sigma2: np.ndarray
    damping: np.ndarray
    goe: float
    gue: float
    window_kind: str

    def as_dict(self) -> dict:
        return {
            "variance": self.variance,
            "s": self.s.tolist(),
            "sigma2": self.sigma2.tolist(),
            "damping": self.damping.tolist(),
            "goe": self.goe,
            "gue": self.gue,
            "window": self.window_kind,
        }


def transition_curve(w: Window, variance: float, s_grid) -> TransitionCurve:
    """Sigma^2(s) = 2 * integral (1 + e^{-2 variance s^2 t}) t psi_hat^2 dt.

    Equals the GOE constant at s = 0 and decreases to the GUE constant;
    the damping exponent 2 variance s^2 per unit t is reported alongside.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    s = np.asarray(s_grid, dtype=float)
    gue = sigma2_gue(w)
    vals = np.empty(len(s))
    for i, si in enumerate(s):
        rate = 2.0 * variance * si * si
        value, err = quad(
            lambda t: math.exp(-rate * t) * t * w.psi_hat(t) ** 2,
            0.0,
            1.0,
            epsabs=w.tolerance / 4,
            epsrel=w.tolerance,
            limit=200,
        )
        if err > w.tolerance:
            raise RuntimeError(f"quadrature error {err} above tolerance")
        vals[i] = gue + 2.0 * value
    return TransitionCurve(
        variance=float(variance),
        s=s,
        sigma2=vals,
        damping=2.0 * variance * s**2,
        goe=sigma2_goe(w),
        gue=gue,
        window_kind=w.kind,
    )


@dataclass(frozen=True)
class TransitionComparison:
    s: np.ndarray
    alpha: np.ndarray
    predicted: np.ndarray
    empirical: np.ndarray
    averaged: np.ndarray
    variance: float
    goe: float
    gue: float
    lam: float
    L: float
    delta: float
    window_kind: str
    flux: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "s": self.s.tolist(),
            "alpha": self.alpha.tolist(),
            "sigma2Pred": self.predicted.tolist(),
            "sigma2Emp": self.empirical.tolist(),
            "sigma2Averaged": self.averaged.tolist(),
            "variance": self.variance,
            "goe": self.goe,
            "gue": self.gue,
            "lambda": self.lam,
            "L": self.L,
            "delta": self.delta,
            "window": self.window_kind,
            "flux": list(self.flux),
        }


def empirical_transition(
    spectrum: LengthSpectrum,
    flux_vector,
    s_grid,
    lam: float,
    L: float,
    delta: float,
    w: Window,
    variance: float | None = None,
    with_average: bool = True,
) -> TransitionComparison:
    """Desk-scale transition: geodesic sums against the predicted curve.

    For each s the flux phase is alpha = s/sqrt(L) and the empirical value
    is Sigma^2_GUE + (2/L^2) sum over primitives of cos(2 alpha <flux, h>)
    * l^2 psi_hat^2(l/L) / |I - P| -- the squared character, phase 2 alpha,
    not alpha.  ``averaged`` holds the direct energy average of the full
    variance profile at character scale alpha over [lam, lam + delta],
    which the displayed sum approximates to O(1/L^2).

    ``variance`` defaults to variance_estimator at the deepest certified
    window (T = certified - 1, eps = 1).
    """
    _require_certified(spectrum, L)
    s = np.asarray(s_grid, dtype=float)
    flux = _flux_array(flux_vector, spectrum.group.rank)
    if variance is None:
        variance = variance_estimator(
            spectrum, flux, spectrum.certified_l_max - 1.0, 1.0
        )

    prims = [r for r in spectrum.primitives() if r.primitive_length <= L]
    ells = np.array([r.primitive_length for r in prims])
    theta = np.array([np.dot(flux, r.homology) for r in prims])
    base = (
        ells**2
        * np.asarray(w.psi_hat(ells / L)) ** 2
        * np.exp(-np.array([r.log_det for r in prims]))
    )
    alpha = s / math.sqrt(L)
    gue = sigma2_gue(w)
    empirical = np.array(
        [
            gue + 2.0 / L**2 * float(np.dot(np.cos(2.0 * a * theta), base))
            for a in alpha
        ]
    )

    averaged = np.full(len(s), np.nan)
    if with_average:
        for i, a in enumerate(alpha):
            chi = None if a == 0.0 else FluxCharacter(flux=tuple(flux.tolist()), scale=a)
            ev = SigmaEvaluator(spectrum, chi, w, L)
            averaged[i] = energy_average(ev.sigma2, lam, delta, L)

    curve = transition_curve(w, variance, s)
    return TransitionComparison(
        s=s,
        alpha=alpha,
        predicted=curve.sigma2,
        empirical=empirical,
        averaged=averaged,
        variance=float(variance),
        goe=curve.goe,
        gue=gue,
        lam=lam,
        L=L,
        delta=delta,
        window_kind=w.kind,
        flux=tuple(flux.tolist()),
    )
