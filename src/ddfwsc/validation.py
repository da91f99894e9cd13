"""Independent numerical-integration oracles for the closed-form ABER expressions.

The error probability decomposes into

    Pe1 = Pr(|xi0| > |xi_w|, xi0 < 0) = int_0^inf f_xi0(-t) F_|xiw|(t) dt
    Pe2 = Pr(|xi0| < |xi_w|, xi_w < 0) = int_0^inf f_xiw(-t) F_|xi0|(t) dt

with xi_w = beta*xi2, averaged over gamma1 ~ Exp(gbar1).  These are
integrated directly with adaptive quadrature from the pdf/CDF primitives,
so a transcription error in any printed closed form (I1/I2, L1/L2, K1/K2,
Xi) is caught by comparison.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from . import analysis
from .analysis import ClosedFormContext

__all__ = [
    "aber_wsc1_by_integration",
    "aber_wsc2_by_integration",
    "run_checks",
    "CheckResult",
]


def _pe1_given_beta(beta: float, ctx: ClosedFormContext) -> float:
    """Pr(select relay-free error): gamma1-free since F_|xiw| is."""
    f = lambda t: analysis.pdf_xi0(-t, ctx) * analysis.cdf_abs_xiw(t, beta, ctx)
    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-10, limit=200)
    return val


def _pe2_given(beta: float, gamma1: float, ctx: ClosedFormContext) -> float:
    f = lambda t: analysis.pdf_xiw(-t, beta, gamma1, ctx) * analysis.cdf_abs_xi0(t, ctx)
    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-10, limit=200)
    return val


def _average_over_gamma1(fn, gbar1: float, split: float | None = None) -> float:
    """E[fn(gamma1)] for gamma1 ~ Exp(mean gbar1), via substitution gamma1 = gbar1*s."""
    g = lambda s: fn(gbar1 * s) * np.exp(-s)
    if split is not None and split > 0:
        s0 = split / gbar1
        v1, _ = integrate.quad(g, 0.0, s0, epsabs=1e-13, epsrel=1e-9, limit=200)
        v2, _ = integrate.quad(g, s0, np.inf, epsabs=1e-13, epsrel=1e-9, limit=200)
        return v1 + v2
    val, _ = integrate.quad(g, 0.0, np.inf, epsabs=1e-13, epsrel=1e-9, limit=200)
    return val


def aber_wsc1_by_integration(beta: float, ctx: ClosedFormContext) -> float:
    """Direct quadrature of the error decomposition at a fixed weight factor."""
    pe1 = _pe1_given_beta(beta, ctx)
    pe2 = _average_over_gamma1(lambda g1: _pe2_given(beta, g1, ctx), ctx.gbar1)
    return pe1 + pe2


def aber_wsc2_by_integration(ctx: ClosedFormContext) -> float:
    """Direct quadrature with the adaptive weight beta(gamma1) = min(1, gamma1/gbar2).

    The gamma1 average is split at gbar2 where beta switches branch.
    """
    gbar2 = ctx.gbar2

    def conditional(g1: float) -> float:
        beta = min(1.0, g1 / gbar2)
        if beta <= 0:
            # Degenerate weight: the direct link is always selected.
            return analysis.cdf_xi0(0.0, ctx)
        return _pe1_given_beta(beta, ctx) + _pe2_given(beta, g1, ctx)

    return _average_over_gamma1(conditional, ctx.gbar1, split=gbar2)


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        return f"CheckResult({self.name!r}, passed={self.passed})"


def _check_pdf_normalization(rng) -> CheckResult:
    worst = 0.0
    for gbar0 in (0.0, 1.0, 10.0, 100.0):
        ctx = ClosedFormContext(gbar0, 1.0, 1.0)
        val, _ = integrate.quad(lambda x: analysis.pdf_xi0(x, ctx), -np.inf, np.inf, limit=200)
        worst = max(worst, abs(val - 1.0))
    for beta in (0.3, 1.0, 2.0):
        for g1 in (0.0, 1.0, 5.0):
            for gbar2 in (1.0, 10.0):
                ctx = ClosedFormContext(1.0, 1.0, gbar2)
                val, _ = integrate.quad(
                    lambda x: analysis.pdf_xiw(x, beta, g1, ctx), -np.inf, np.inf, limit=200
                )
                worst = max(worst, abs(val - 1.0))
    return CheckResult("pdf normalization", worst < 1e-9, f"max |integral - 1| = {worst:.2e}")


def _check_abs_cdf_identities(rng) -> CheckResult:
    worst = 0.0
    xs = rng.uniform(0.0, 10.0, size=10)
    for x in xs:
        for gbar in (0.1, 1.0, 7.0):
            ctx = ClosedFormContext(gbar, 1.0, gbar)
            worst = max(worst, abs(
                analysis.cdf_abs_xi0(x, ctx) - (analysis.cdf_xi0(x, ctx) - analysis.cdf_xi0(-x, ctx))
            ))
            for beta in (0.3, 1.0):
                for g1 in (0.0, 0.5, 3.0, 20.0):
                    lhs = analysis.cdf_xiw(x, beta, g1, ctx) - analysis.cdf_xiw(-x, beta, g1, ctx)
                    worst = max(worst, abs(lhs - analysis.cdf_abs_xiw(x, beta, ctx)))
    return CheckResult("abs-CDF identities", worst < 1e-12, f"max deviation = {worst:.2e}")


def _check_formula_vs_integration(rng, n_tuples: int = 8) -> CheckResult:
    worst = 0.0
    for _ in range(n_tuples):
        gb = 10.0 ** rng.uniform(-1, 4, size=3)
        beta = rng.uniform(0.05, 2.0)
        ctx = ClosedFormContext(*gb)
        ref = aber_wsc1_by_integration(beta, ctx)
        got = analysis.aber_wsc1(beta, ctx)
        worst = max(worst, abs(got - ref) / ref)
        ref = aber_wsc2_by_integration(ctx)
        got = analysis.aber_wsc2(ctx)
        worst = max(worst, abs(got - ref) / ref)
    return CheckResult("formula vs integration", worst < 1e-4, f"max rel err = {worst:.2e}")


def _check_formula_vs_simulation(rng) -> CheckResult:
    from .simulator import SimConfig, run_simulation
    from .link import SystemParams
    from .combiners import SchemeId

    params = SystemParams(p0_over_n0_db=10.0)
    cfg = SimConfig(params=params, schemes=(SchemeId.SC, SchemeId.WSC2),
                    max_blocks=20000, min_errors=500, seed=20260824)
    results = {r.scheme: r for r in run_simulation(cfg)}
    ctx = ClosedFormContext.from_db(10.0)
    ok_sc = results[SchemeId.SC].ci95_low <= analysis.aber_wsc1(1.0, ctx) <= results[SchemeId.SC].ci95_high
    ok_w2 = results[SchemeId.WSC2].ci95_low <= analysis.aber_wsc2(ctx) <= results[SchemeId.WSC2].ci95_high
    detail = (f"SC sim {results[SchemeId.SC].ber:.4g} vs formula {analysis.aber_wsc1(1.0, ctx):.4g}; "
              f"WSC2 sim {results[SchemeId.WSC2].ber:.4g} vs formula {analysis.aber_wsc2(ctx):.4g}")
    return CheckResult("formula vs simulation (10 dB)", ok_sc and ok_w2, detail)


def run_checks(quick: bool = False, seed: int = 12345) -> list[CheckResult]:
    """Run the oracle suite; quick mode skips the Monte Carlo comparison."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    checks = [
        _check_pdf_normalization(rng),
        _check_abs_cdf_identities(rng),
        _check_formula_vs_integration(rng, n_tuples=4 if quick else 10),
    ]
    if not quick:
        checks.append(_check_formula_vs_simulation(rng))
    return checks
