"""Closed-form ABER analysis for the D-DF system with weighted selection combining.

All expressions are in N0-normalized units.  The derived constants
u_i = 1 + gbar_i, v_i = 1 + 2*gbar_i (v0 and v2 only) and phi = gbar2/gbar1
are carried in an immutable ClosedFormContext shared by every evaluator.

Exponential-integral products exp(a)*E1(z) are evaluated as
exp(a - z) * (exp(z)*E1(z)).  WSC2 takes them in pairs of reduced arguments
(_e1_pair): every argument is a product, never a difference of O(gbar)
terms, and a - z <= 0 by construction, so the closed forms stay finite at
any SNR.  Against a 60-digit evaluation of the printed expressions, float64
aber_wsc2 is within 1e-6 relative for every gbar_i in [1e-3, 1e8] (1e-8 at
symmetric SNRs to 80 dB).  Above 1e8 its E1 differences at tiny r lose
digits: it warns up to gbar_i = 1e12 (worst seen 2.7e-4 relative, over 120
random unequal links with the largest gbar_i in [1e11, 1e12]) and raises
ValueError above that (symmetric points: 1.6e-3 off at 140 dB, 8.3x at 180).
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "ClosedFormContext",
    "pdf_xi0",
    "cdf_xi0",
    "cdf_abs_xi0",
    "pdf_xiw",
    "cdf_xiw",
    "cdf_abs_xiw",
    "aber_wsc1",
    "aber_wsc2",
    "aber_asymptotic_wsc2",
    "exp_integral_e1_scaled",
    "optimize_beta",
]

_EULER_GAMMA = 0.5772156649015328606


def _db_to_power(p0_over_n0_db: float) -> float:
    """P0 = 10**(dB/10); ValueError unless that is a finite float."""
    try:
        p0 = 10.0 ** (p0_over_n0_db / 10.0)
    except OverflowError:
        p0 = math.inf
    if not math.isfinite(p0):
        raise ValueError(f"P0/N0 = {p0_over_n0_db} dB gives a non-finite power P0")
    return p0


def _check_variances(sigma_sq) -> None:
    """ValueError unless every channel variance is finite and >= 0; the message quotes them as given."""
    if not all(math.isfinite(s) and s >= 0 for s in sigma_sq):
        raise ValueError(f"channel variances must be finite and >= 0, got {sigma_sq}")


@dataclass(frozen=True)
class ClosedFormContext:
    """Average SNRs and the derived constants used throughout the analysis."""

    gbar0: float
    gbar1: float
    gbar2: float

    def __post_init__(self):
        for g in (self.gbar0, self.gbar1, self.gbar2):
            if not math.isfinite(g) or g < 0:
                raise ValueError(f"average SNRs must be finite and >= 0, got {g}")

    @property
    def u0(self) -> float:
        return 1.0 + self.gbar0

    @property
    def u1(self) -> float:
        return 1.0 + self.gbar1

    @property
    def u2(self) -> float:
        return 1.0 + self.gbar2

    @property
    def v0(self) -> float:
        return 1.0 + 2.0 * self.gbar0

    @property
    def v2(self) -> float:
        return 1.0 + 2.0 * self.gbar2

    @property
    def phi(self) -> float:
        if self.gbar1 <= 0:
            raise ValueError("phi requires gbar1 > 0")
        return self.gbar2 / self.gbar1

    @classmethod
    def from_db(cls, p0_over_n0_db: float, sigma_sq=(1.0, 1.0, 1.0)) -> "ClosedFormContext":
        p0 = _db_to_power(p0_over_n0_db)
        _check_variances(sigma_sq)
        return cls(p0 * sigma_sq[0], p0 * sigma_sq[1], p0 * sigma_sq[2])


# ---------------------------------------------------------------------------
# Decision-variable distributions
# ---------------------------------------------------------------------------

def pdf_xi0(x, ctx: ClosedFormContext):
    """Density of the direct-link decision variable averaged over fading."""
    x = np.asarray(x, dtype=float)
    u0, v0 = ctx.u0, ctx.v0
    out = np.where(x <= 0, np.exp(2.0 * np.minimum(x, 0.0)), np.exp(-2.0 * np.maximum(x, 0.0) / v0)) / u0
    return out if out.ndim else float(out)


def cdf_xi0(x, ctx: ClosedFormContext):
    x = np.asarray(x, dtype=float)
    u0, v0 = ctx.u0, ctx.v0
    neg = np.exp(2.0 * np.minimum(x, 0.0)) / (2.0 * u0)
    pos = 1.0 - v0 * np.exp(-2.0 * np.maximum(x, 0.0) / v0) / (2.0 * u0)
    out = np.where(x <= 0, neg, pos)
    return out if out.ndim else float(out)


def cdf_abs_xi0(x, ctx: ClosedFormContext):
    """CDF of |xi0|; defined for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("cdf_abs_xi0 requires x >= 0")
    u0, v0 = ctx.u0, ctx.v0
    out = 1.0 - np.exp(-2.0 * x) / (2.0 * u0) - v0 * np.exp(-2.0 * x / v0) / (2.0 * u0)
    return out if out.ndim else float(out)


def _psi(gamma1):
    return 2.0 - np.exp(-gamma1)


def _weights(beta) -> np.ndarray:
    """beta as a float array; ValueError unless every weight is > 0."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError(f"beta must be > 0, got {beta.min()}")
    return beta


def pdf_xiw(x, beta, gamma1, ctx: ClosedFormContext):
    """Density of the weighted relay decision variable, a two-sided Gaussian
    mixture reflecting the instantaneous relay error probability exp(-gamma1)/2.

    x, beta and gamma1 broadcast against each other.
    """
    beta = _weights(beta)
    x, gamma1 = np.asarray(x, dtype=float), np.asarray(gamma1, dtype=float)
    u2, v2 = ctx.u2, ctx.v2
    # Each side is two Laplace tails, of scales beta/2 and v2 beta/2.  The
    # relay's wrong decisions (weight exp(-gamma1)) take the wide one on the
    # negative side and the narrow one on the positive side; the right ones
    # (weight psi) the other.  Built in place, to keep a block's temporaries few.
    left = x <= 0
    a = -2.0 * np.abs(x)
    out = np.exp(a / np.where(left, v2 * beta, beta) - gamma1)
    out += _psi(gamma1) * np.exp(a / np.where(left, beta, v2 * beta))
    out /= 2.0 * u2 * beta
    return out if out.ndim else float(out)


def cdf_xiw(x, beta, gamma1, ctx: ClosedFormContext):
    """CDF of the weighted relay decision variable; x, beta and gamma1 broadcast."""
    beta = _weights(beta)
    x, gamma1 = np.asarray(x, dtype=float), np.asarray(gamma1, dtype=float)
    u2, v2 = ctx.u2, ctx.v2
    psi = _psi(gamma1)
    xn = np.minimum(x, 0.0)
    xp = np.maximum(x, 0.0)
    neg = (psi * np.exp(2.0 * xn / beta) + v2 * np.exp(2.0 * xn / (v2 * beta) - gamma1)) / (4.0 * u2)
    pos = 1.0 - (np.exp(-2.0 * xp / beta - gamma1) + v2 * psi * np.exp(-2.0 * xp / (v2 * beta))) / (4.0 * u2)
    out = np.where(x <= 0, neg, pos)
    return out if out.ndim else float(out)


def cdf_abs_xiw(x, beta, ctx: ClosedFormContext):
    """CDF of |xi_w|; independent of the instantaneous relay SNR.  x and beta broadcast."""
    beta = _weights(beta)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("cdf_abs_xiw requires x >= 0")
    u2, v2 = ctx.u2, ctx.v2
    out = 1.0 - (np.exp(-2.0 * x / beta) + v2 * np.exp(-2.0 * x / (v2 * beta))) / (2.0 * u2)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Exponential integral
# ---------------------------------------------------------------------------

def _e1_continued_fraction(x: float) -> float:
    """Modified Lentz evaluation of exp(x)*E1(x), valid for x > 1."""
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    return h


def _e1_series(x: float) -> float:
    """Power series for E1(x), x in (0, 1]."""
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0
    for n in range(1, 60):
        term *= -x / n
        contrib = -term / n
        total += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def exp_integral_e1_scaled(x: float) -> float:
    """exp(x) * E1(x), finite for arbitrarily large x."""
    if not x > 0:
        raise ValueError(f"exp_integral_e1_scaled requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_continued_fraction(x)


def _exp_e1(a_minus_z: float, z: float) -> float:
    """exp(a) * E1(z) evaluated via exp(a - z) * (exp(z) E1(z)); a - z <= 0 by construction."""
    return math.exp(a_minus_z) * exp_integral_e1_scaled(z)


# ---------------------------------------------------------------------------
# WSC1 closed form
# ---------------------------------------------------------------------------

def _i1(beta: float, ctx: ClosedFormContext) -> float:
    u0, u2, v0, v2 = ctx.u0, ctx.u2, ctx.v0, ctx.v2
    return -(1.0 - u2) * (
        2.0 * u2 * v0 ** 2
        - u0 * (1.0 - 2.0 * u2 - 4.0 * u2 ** 2) * v0 * beta
        + 4.0 * u0 ** 2 * u2 * v2 * beta ** 2
        + u0 * v2 ** 2 * beta ** 3
    )


def _i2(beta: float, ctx: ClosedFormContext) -> float:
    u0, u1, u2, v0, v2 = ctx.u0, ctx.u1, ctx.u2, ctx.v0, ctx.v2
    return u1 * (
        v2 * beta ** 2 * (1.0 - 2.0 * u2 - u0 * (2.0 - 2.0 * u0 - 4.0 * u2 - v2 * beta))
        + v0 ** 2
        - u0 * (1.0 - 4.0 * u2) * v0 * beta
    )


def _wsc1_terms(beta: float, ctx: ClosedFormContext) -> tuple[tuple[float, float], tuple[float, float]]:
    """Pe1 and Pe2 of the printed WSC1 expression, each as a (numerator, denominator) pair."""
    u0, u1, u2, v0, v2 = ctx.u0, ctx.u1, ctx.u2, ctx.v0, ctx.v2
    return ((u2 + v2 * beta, 2.0 * u0 * u2 * (1.0 + beta) * (1.0 + v2 * beta)),
            (beta * (_i1(beta, ctx) + _i2(beta, ctx)),
             2.0 * u0 * u1 * u2 * (1.0 + beta) * (v0 + beta) * (1.0 + v2 * beta) * (v0 + v2 * beta)))


def aber_wsc1(beta: float, ctx: ClosedFormContext) -> float:
    """Closed-form average BER of WSC with a fixed weight factor.

    beta = 1 gives the conventional SC scheme.  Envelope: wherever every
    numerator and denominator of the printed Pe1 and Pe2 is finite in
    float64, the result agrees with a 50-digit evaluation of the same
    expression to within 1e-15 relative (worst 6.9e-16 over 10 500 random
    draws, log-uniform gbar_i and beta in boxes up to 10^[-300, 300]; the
    tests check 1e-9).  Where one overflows it is a ValueError that names
    gamma_bar: at unit variances and beta = 1, above about 510 dB, where
    Pe2's denominator overflows and Pe2 would read 0.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _wsc1_terms(beta, ctx)
    except OverflowError:
        terms = ((math.inf, 1.0),)
    if not all(math.isfinite(x) for term in terms for x in term):
        raise ValueError(f"aber_wsc1 at beta = {beta:g}, gamma_bar = ({ctx.gbar0:g}, {ctx.gbar1:g}, "
                         f"{ctx.gbar2:g}) is out of range: a product of its closed form overflows float64")
    return sum(num / den for num, den in terms)


# ---------------------------------------------------------------------------
# WSC2 closed form
# ---------------------------------------------------------------------------

def _e1_pair(r: float, s: float, g: float) -> float:
    """exp((1+2g)r) * (E1((1+2g)r) - E1(2(g+s)r)) for r > 0, s >= 1, g >= 0."""
    return _exp_e1(0.0, (1.0 + 2.0 * g) * r) - _exp_e1(-(2.0 * s - 1.0) * r, 2.0 * (g + s) * r)


def _wsc2_l1(ctx: ClosedFormContext) -> float:
    u0, u2, v2, phi = ctx.u0, ctx.u2, ctx.v2, ctx.phi
    return phi / (4.0 * u0 * u2) * (_e1_pair(phi, 1.0, 0.0) + _e1_pair(phi / v2, u2, 0.0))


def _wsc2_l2(ctx: ClosedFormContext) -> float:
    u0, u2, phi = ctx.u0, ctx.u2, ctx.phi
    return (3.0 * u2 - 1.0) / (8.0 * u0 * u2 ** 2) * math.exp(-phi)


def _wsc2_k1(ctx: ClosedFormContext) -> float:
    u0, u1, u2, v0, v2, phi = ctx.u0, ctx.u1, ctx.u2, ctx.v0, ctx.v2, ctx.phi
    g0, g1, g2 = ctx.gbar0, ctx.gbar1, ctx.gbar2

    # Elementary part, with exponents combined so every one is <= 0:
    # exp(gbar2 - (1+u1)phi + phi) = exp(-phi), exp(u1 phi - u1 phi) = 1.
    elementary = (1.0 + g1 + g2 - g2 * math.exp(-u1 * phi) - u1 * math.exp(-phi)) / (2.0 * u1 * u2)

    # The three Xi terms with the exp(-(1+u1)phi) prefactor folded in.  In the
    # printed Xi(x1..x5) the net exponent a reduces to r and a2 to v0 r.
    xi_sum = sum(
        -g2 * x1 * (_e1_pair(r, s, 0.0) + v0 ** 2 * _e1_pair(r, s, g0))
        for x1, r, s in ((1.0, u1 * phi / v2, u2), (2.0, phi, 1.0), (-1.0, u1 * phi, 1.0))
    )
    return elementary + xi_sum / (8.0 * u0 * g1 * u2)


def _wsc2_k2(ctx: ClosedFormContext) -> float:
    u0, u1, u2, phi = ctx.u0, ctx.u1, ctx.u2, ctx.phi
    w = 1.0 - u0 - u2
    # The e and e**u2 factors of the printed J1/J2 are folded into the
    # exp(-1 - u1*phi) prefactor: exponents -u1*phi and u2-1-u1*phi = -phi.
    j1_core = (1.0 - u2) * (u2 + u0 * (1.0 - 7.0 * u2 - u0 * (1.0 - 4.0 * u2 - 8.0 * u2 ** 2)))
    j2_core = 2.0 * (3.0 * u0 - 1.0) * u1 * w * u2
    num = j1_core * math.exp(-u1 * phi) + j2_core * math.exp(-phi)
    return num / (16.0 * u0 ** 2 * u1 * w * u2 ** 2)


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_stacklevel() -> int:
    """The stacklevel that makes its caller's warning name the first frame outside this package.

    So a warning raised through the scheme table or a sweep points at the
    user's call.  (warnings.warn's skip_file_prefixes needs Python 3.12.)
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def aber_wsc2(ctx: ClosedFormContext) -> float:
    """Closed-form average BER of WSC with the adaptive weight min(1, gamma1/gbar2)."""
    if ctx.gbar1 <= 0:
        raise ValueError("gamma_bar_1 must be positive for the wsc2 closed form")
    if ctx.gbar2 <= 0:
        raise ValueError("gamma_bar_2 must be positive for the wsc2 closed form")
    top = max(ctx.gbar0, ctx.gbar1, ctx.gbar2)
    at = f"gamma_bar = ({ctx.gbar0:g}, {ctx.gbar1:g}, {ctx.gbar2:g})"
    if top > 1e12:
        raise ValueError(f"aber_wsc2 at {at} is out of range (all <= 1e12): above it float64 loses the "
                         "result (1.6e-3 relative error at 140 dB, 8.3x at 180 dB)")
    if top > 1e8:  # the top of the range checked to 1e-6 relative
        warnings.warn(f"aber_wsc2 at {at} is outside its checked range (all <= 1e8) and may lose digits: "
                      "up to 2.7e-4 relative", RuntimeWarning, stacklevel=_outside_stacklevel())
    aber = _wsc2_l1(ctx) + _wsc2_l2(ctx) + _wsc2_k1(ctx) + _wsc2_k2(ctx)
    if not math.isfinite(aber):
        raise ValueError(f"aber_wsc2 at {at} is not finite: its E1 arguments, multiples of "
                         f"phi = gamma_bar_2/gamma_bar_1 = {ctx.gbar2 / ctx.gbar1:g}, overflow float64")
    return aber


# ---------------------------------------------------------------------------
# Asymptote and weight optimization
# ---------------------------------------------------------------------------

def aber_asymptotic_wsc2(p0: float) -> float:
    """High-SNR approximation of the WSC2 ABER for the symmetric unit-variance
    channel, evaluated with the published fitted coefficients.

    ValueError where p0**8 overflows float64 (P0/N0 above about 385 dB).
    """
    if not p0 > 0:
        raise ValueError(f"p0 must be > 0, got {p0}")
    lp = math.log(p0)
    try:
        num = (
            0.03
            - 0.09 * p0
            + p0 ** 2 * (-0.16 - 0.03 * lp)
            + p0 ** 3 * (1.75 + 0.06 * lp)
            + p0 ** 4 * (4.53 + 0.47 * lp)
            + p0 ** 5 * (3.84 + 0.63 * lp)
            + p0 ** 6 * (1.11 + 0.25 * lp)
        )
        den = p0 ** 4 + p0 ** 5 + p0 ** 6 + p0 ** 7 + p0 ** 8
    except OverflowError:
        raise ValueError(f"the WSC2 asymptote overflows float64 at p0 = {p0:g}") from None
    return num / den


def optimize_beta(ctx: ClosedFormContext) -> tuple[float, float]:
    """(beta, aber_wsc1(beta, ctx)) at the exact optimum over all beta > 0.

    The ABER is N/D up to a constant, with N = u1 (u2 + v2 b)(v0 + b)(v0 + v2 b)
    + b (I1 + I2) and D = (1 + b)(1 + v2 b)(v0 + b)(v0 + v2 b), so the optimum
    is the best positive real root of N'D - ND'.  Those roots are checked by a
    search on the ABER itself (_searched_optimum), whose result replaces them
    where it is lower by more than 1e-13 relative: with huge or very unequal
    gbar the polynomial's coefficients cancel or span too many decades, and
    its roots miss or blur the optimum (at unit variances, from about 368 dB).
    The result is within 1e-12 of a 50-digit search.  With a dead link (a gbar
    of exactly 0) the ABER only approaches its beta -> 0 or beta -> inf
    limit, so no finite optimum exists and ValueError is raised.  With every
    link live a finite optimum exists, but where the ABER is flat to within
    float precision neither finds it; that also raises ValueError, with a
    message that says so, as does a gbar so large that the polynomial's
    coefficients overflow float64 (above about 381 dB at unit variances).
    """
    b = Polynomial([0.0, 1.0])
    u1, u2, v0, v2 = ctx.u1, ctx.u2, ctx.v0, ctx.v2
    at = f"gamma_bar = ({ctx.gbar0:g}, {ctx.gbar1:g}, {ctx.gbar2:g})"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            n = u1 * (u2 + v2 * b) * (v0 + b) * (v0 + v2 * b) + b * (_i1(b, ctx) + _i2(b, ctx))
            d = (1.0 + b) * (1.0 + v2 * b) * (v0 + b) * (v0 + v2 * b)
            stationary = n.deriv() * d - n * d.deriv()
    except OverflowError:
        stationary = None
    if stationary is None or not np.all(np.isfinite(stationary.coef)):
        raise ValueError(f"the WSC1 ABER polynomial overflows float64 at {at}; give a fixed beta")
    candidates = [r for r in stationary.roots().real.tolist() if r > 0]
    # Not decided by the limits: at gbar = (10, 10, 1e-9) the optimum beats the
    # beta -> 0 limit by ~1e-18 relative, as rounding does at (10, 10, 0).
    dead = 0.0 in (ctx.gbar0, ctx.gbar1, ctx.gbar2)
    limit, where = min((1.0 / (2.0 * ctx.u0), "beta -> 0 (direct link only)"),
                       ((ctx.gbar2 + u1) / (2.0 * u1 * u2), "beta -> inf (relay branch only)"))
    if dead:
        raise ValueError(f"no finite optimal WSC1 weight at {at}: a link is dead, so the ABER only "
                         f"approaches its {where} limit {limit:.6g}; give a fixed beta")
    beta = _searched_optimum(ctx, min(candidates, key=lambda c: aber_wsc1(c, ctx), default=None), limit)
    if beta is None:
        raise ValueError(f"optimal WSC1 weight lost to rounding at {at}: every link is live, so a finite "
                         f"optimum exists, but the ABER is flat to within float precision near its {where} "
                         f"limit {limit:.6g}; give a fixed beta")
    return beta, aber_wsc1(beta, ctx)


def _aber_wsc1_on_grid(beta: np.ndarray, ctx: ClosedFormContext) -> np.ndarray:
    """aber_wsc1 at an array of weights, inf outside its envelope (where a product overflows)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _wsc1_terms(beta, ctx)
            aber = sum(num / den for num, den in terms)
    except OverflowError:
        return np.full(beta.shape, math.inf)
    return np.where(np.all([np.isfinite(x) for term in terms for x in term], axis=0), aber, math.inf)


def _searched_optimum(ctx: ClosedFormContext, beta: float | None, limit: float) -> float | None:
    """``beta``, or a weight whose ABER beats beta's (``limit`` if beta is None) by more than 1e-13 relative.

    A grid of ln beta spans the ABER's poles and four decades beyond, [1e-4/v2, 1e4 v0],
    at 8 points a decade.  The window one grid step either side of ``beta``, or of the
    grid's best point where that beats ``beta``, is zoomed in on to 1e-8 in ln beta.
    """
    beat = (limit if beta is None else aber_wsc1(beta, ctx)) * (1.0 - 1e-13)
    lo, hi = math.log(1e-4 / ctx.v2), math.log(1e4 * ctx.v0)
    x = np.linspace(lo, hi, math.ceil((hi - lo) / math.log(10.0) * 8) + 1)
    aber = _aber_wsc1_on_grid(np.exp(x), ctx)
    k = int(np.argmin(aber))
    centre = x[k] if beta is None or aber[k] < beat else math.log(beta)
    x = np.linspace(centre - (x[1] - x[0]), centre + (x[1] - x[0]), 41)
    while True:
        aber = _aber_wsc1_on_grid(np.exp(x), ctx)
        k = int(np.argmin(aber))
        if x[1] - x[0] < 1e-8:
            return math.exp(x[k]) if aber[k] < beat else beta
        x = np.linspace(x[max(k - 1, 0)], x[min(k + 1, x.size - 1)], 41)
