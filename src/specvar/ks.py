"""The two-sided one-sample Kolmogorov-Smirnov test against N(0, 1).

The p-value is P(D_n >= d) by the rules of Simard & L'Ecuyer, "Computing
the two-sided Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11),
2011, as SciPy's ``stats.kstwo.sf`` applies them:

- Ruben-Gambino closed forms for n d <= 1 and n d >= n - 1;
- 2 P(D_n^+ >= d), the one-sided Birnbaum-Tingey sum, for d >= 1/2, for
  n d^2 >= 2.2 (n > 140) and for n d^2 > 4 (n <= 140);
- otherwise 1 - P(D_n < d): the Durbin matrix (Marsaglia, Tsang & Wang,
  J. Stat. Softw. 8(18), 2003) for n <= 140, and for n <= 100,000 with
  n d^1.5 <= 1.4; the Pelz-Good expansion (J. R. Stat. Soc. B 38, 1976)
  above.

Two departures from SciPy 1.17: for n <= 140 and 0.754693 < n d^2 <= 4
it uses the Pomeranz recursion, here the Durbin matrix, exact as well;
and for n > 1,000,000 it replaces the Birnbaum-Tingey sum by an
asymptotic formula, here the sum stays exact.
"""

from __future__ import annotations

import math

import numpy as np

# Stirling's series of log m! - (m log m - m) - log(2 pi m) / 2, highest
# power first: B_2j / (2j (2j - 1)) in powers of 1/m^2, times 1/m
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_EXACT_BELOW = 30
_REST_SMALL = np.array(
    [math.lgamma(m + 1) - (m * math.log(m) - m if m else 0.0) for m in range(_EXACT_BELOW)]
)


def _log_factorial_rest(m) -> np.ndarray:
    """log m! - (m log m - m) for integers m >= 0, without the cancellation.

    Exact lgamma values below 30, Stirling's series (next term below 4e-17)
    from there on.
    """
    m = np.asarray(m)
    x = np.maximum(m, _EXACT_BELOW).astype(float)
    r = 1.0 / x
    series = 0.5 * np.log(2.0 * math.pi * x) + r * np.polyval(_STIRLING, r * r)
    return np.where(m < _EXACT_BELOW, _REST_SMALL[np.minimum(m, _EXACT_BELOW - 1)], series)


def _log_nfactorial_over_n_pow_n(n: int) -> float:
    return float(_log_factorial_rest(n)) - n


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d) for 1/n < d < 1, by the Birnbaum-Tingey sum.

    d * sum_j C(n, j) (d + j/n)^(j-1) (1 - d - j/n)^(n-j) over 0 <= j <=
    n (1 - d).  Each term is summed from its logarithm, written so that no
    two large numbers cancel: log n - log(nd + j) + j log1p(nd / j) +
    (n - j) log1p(-nd / (n - j)) plus the Stirling rests of n, j and n - j.
    """
    nd = n * d
    j = np.arange(n - math.ceil(nd) + 1)
    rest = n - j
    stirling = _log_factorial_rest(np.arange(n + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = j * np.log1p(nd / j)
        lower[0] = 0.0
        log_term = (
            (math.log(n) + stirling[n])
            - np.log(nd + j)
            + lower
            + rest * np.log1p(-nd / rest)
            - stirling[j]
            - stirling[rest]
        )
    return d * float(np.exp(log_term).sum())


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) from the k-th diagonal entry of H^n, n d > 1/2.

    Write d = (k - h)/n with 0 <= h < 1.  H is (2k - 1) x (2k - 1); the
    matrix power is taken by squaring, rescaled by 2^-128 whenever the
    entry grows past 2^128.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.ones(m + 1)
    for i in range(1, m + 1):
        inv_fact[i] = inv_fact[i - 1] / i  # may underflow to 0; harmless
    rows = np.arange(m)
    lag = rows[:, None] - rows[None, :] + 1
    H = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    v = (1.0 - h ** (rows + 1)) * inv_fact[1:]
    v[-1] = (1.0 + max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h**m) * inv_fact[m]
    H[:, 0] = v
    H[-1, :] = v[::-1]

    power, power_exp = np.eye(m), 0
    base_exp = 0
    e = n
    while e:
        if e & 1:
            power = power @ H
            power_exp += base_exp
        e >>= 1
        if e:
            H = H @ H
            base_exp *= 2
            if abs(H[k - 1, k - 1]) > 2.0**128:
                H = np.ldexp(H, -128)
                base_exp += 128
    entry = power[k - 1, k - 1]
    if entry <= 0.0:
        return 0.0
    return math.exp(
        math.log(entry) + power_exp * math.log(2.0) + _log_nfactorial_over_n_pow_n(n)
    )


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n < d) by the Pelz-Good expansion to order n^(-3/2)."""
    z = math.sqrt(n) * d
    z2, z3, z4, z6 = z**2, z**3, z**4, z**6
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    q_log = -pi2 / 8.0 / z2
    if q_log < -708:
        return 0.0
    q = math.exp(q_log)

    # sums over odd m = 2k - 1 of q^(m^2) times a polynomial in m^2,
    # accumulated by a Horner scheme in q^(8k)
    k1a, k1b = -z2, pi2 / 4
    k2a, k2b, k2c = 6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * pi2 / 4, pi4 * (1 - 2 * z2) / 16
    k3a = -30 * z6 - 90 * z**8
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    terms = np.zeros(4)
    max_k = int(math.ceil(16 * z / math.pi))
    for k in range(max_k, 0, -1):
        m2 = float((2 * k - 1) ** 2)
        terms *= q ** (8 * k)
        terms += (
            1.0,
            k1a + k1b * m2,
            k2a + k2b * m2 + k2c * m2**2,
            k3a + k3b * m2 + k3c * m2**2 + k3d * m2**3,
        )
    terms *= q * math.sqrt(2 * math.pi)
    terms /= (z, 6 * z4, 72 * z**7, 6480 * z**10)

    # sums over all k of q'^(k^2), q' = exp(-pi^2 / (2 z^2))
    ks = np.arange(max_k, 0, -1)
    ks2 = ks**2
    q_pow = math.exp(-pi2 / 2 / z2) ** ks2
    terms[2] += np.sum(ks2 * q_pow) * pi2 * math.sqrt(2 * math.pi) / (-36 * z3)
    root3z = math.sqrt(3) * z
    terms[3] += (
        np.sum((root3z + math.pi * ks) * (root3z - math.pi * ks) * ks2 * q_pow)
        * pi2 * math.sqrt(2 * math.pi) / (216 * z6)
    )
    terms /= np.power(float(n), np.arange(4) / 2.0)
    return float(sum(terms))


def kstwo_sf(n: int, d: float) -> float:
    """P(D_n >= d): the two-sided p-value of a KS statistic d at sample size n."""
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        cdf = math.exp(_log_nfactorial_over_n_pow_n(n) + n * math.log(2.0 * t - 1.0))
        return min(max(1.0 - cdf, 0.0), 1.0)
    if t >= n - 1:
        return min(2.0 * (1.0 - d) ** n, 1.0)
    nd2 = t * d
    if n > 140 and nd2 >= 370.0:
        return 0.0
    if d >= 0.5 or nd2 > 4.0 or (n > 140 and nd2 >= 2.2):
        return min(2.0 * _smirnov_sf(n, d), 1.0)
    if n <= 140 or (n <= 100_000 and n * d**1.5 <= 1.4):
        cdf = _durbin_cdf(n, d)
    else:
        cdf = _pelz_good_cdf(n, d)
    return min(max(1.0 - cdf, 0.0), 1.0)


# Abramowitz & Stegun 7.1.26: erfc(z) = t P(t) exp(-z^2) + e(z) for z >= 0,
# t = 1 / (1 + p z), |e(z)| <= 1.5e-7 (coefficients highest power first)
_AS_P = 0.3275911
_AS_COEFFS = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)
_AS_ERROR = 1.5e-7


def _normal_cdf_approx(xs: np.ndarray) -> np.ndarray:
    """erfc(-xs / sqrt 2) / 2 within _AS_ERROR / 2, by A&S 7.1.26 at |xs|.

    Worked in place on two scratch arrays, so a large sample costs a few
    copies of itself, not one per operation.
    """
    a = np.abs(xs)
    a *= math.sqrt(0.5)
    t = a * _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    cdf = np.full_like(t, _AS_COEFFS[0])
    for c in _AS_COEFFS[1:]:
        cdf *= t
        cdf += c
    cdf *= t
    np.square(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    cdf *= a
    cdf *= 0.5  # the CDF at -|x|; the upper half by symmetry
    np.subtract(1.0, cdf, out=cdf, where=xs > 0.0)
    return cdf


def ks_normal(x) -> tuple[float, float]:
    """(D, p) of the two-sided KS test of the sample x against N(0, 1).

    D = max(D+, D-) over the sorted sample, with the normal CDF taken as
    erfc(-x / sqrt 2) / 2.  An approximate CDF, within eps = _AS_ERROR / 2,
    moves every deviation by at most eps, so the maximum lies among the
    indices whose approximate deviation is within 2 eps (plus rounding) of
    the approximate maximum.  Only those get the exact ``math.erfc``,
    which gives the D of exact erfc at every index bit for bit.
    """
    xs = np.sort(np.asarray(x, dtype=float))
    n = len(xs)
    # at index i, D- is cdf - i/n and D+ is 1/n minus that, so the larger
    # of the two is |cdf - (i + 1/2)/n| + 1/(2n)
    dev = _normal_cdf_approx(xs)
    mid = np.arange(0.5, n)
    mid /= n
    dev -= mid
    np.abs(dev, out=dev)
    near = np.flatnonzero(~(dev < dev.max() - (_AS_ERROR + 1e-12)))  # NaN keeps all
    z = -xs[near] / math.sqrt(2.0)
    cdf = 0.5 * np.array([math.erfc(v) for v in z.tolist()])
    d_plus = float(np.max((near + 1.0) / n - cdf))
    d_minus = float(np.max(cdf - near / n))
    d = max(d_plus, d_minus)
    return d, kstwo_sf(n, d)
