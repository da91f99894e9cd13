"""Independent numerical-integration oracles for the closed-form ABER expressions.

The error probability decomposes into

    Pe1 = Pr(|xi0| > |xi_w|, xi0 < 0) = int_0^inf f_xi0(-t) F_|xiw|(t) dt
    Pe2 = Pr(|xi0| < |xi_w|, xi_w < 0) = int_0^inf f_xiw(-t) F_|xi0|(t) dt

with xi_w = beta*xi2, averaged over gamma1 ~ Exp(gbar1).  These are
integrated directly from the pdf/CDF primitives, so a transcription error in
any printed closed form (I1/I2, L1/L2, K1/K2, Xi) is caught by comparison.

At a fixed weight (WSC1) the gamma1 average is exact: gamma1 enters only
f_xiw, through exp(-gamma1) and psi = 2 - exp(-gamma1), so Pe1 + Pe2 given
gamma1 is affine in exp(-gamma1) and averages to its value at
E[exp(-gamma1)] = 1/(1 + gbar1), i.e. at gamma1 = log1p(gbar1).

The rule is fixed and needs numpy only: composite 16-point Gauss-Legendre
on panels 0.5 wide in ln t and in ln gamma1, so every node is resolved on
a relative scale however far apart the link SNRs are.

- t runs from 1e-12 x the smallest scale of the integrand to 80 x the
  largest; the scales are 1/2, v0/2, beta/2 and v2*beta/2, the decay
  lengths of the four exponentials in the pdfs and CDFs.  The lower end
  is at least the smallest normal float.  That binds only for beta <
  5e-296, where a live relay branch (below) needs v2 > 1e277, so the beta/2
  component it leaves unresolved, of weight 1/(2 u2) < 1e-277, cannot move Pe.
- Under WSC2 beta depends on gamma1, so that oracle averages over gamma1
  nodes from 1e-14 x min(1, gbar1, gbar2) to 60*gbar1, with panel edges at
  1 (the relay's error probability exp(-gamma1)/2 turns there) and at gbar2
  (the kink of beta): 1-1.5k nodes.  It integrates one ln gamma1 panel (16
  nodes) per call, on a (16 x t) grid: the panel shares one t rule that
  spans all 16 nodes' scales (beta varies by at most e^0.5 across it), so
  a criterion-1 tuple takes 73-93 such calls and peaks at about 1.5 MB.
- Where beta * v2 < 2^-60 (a dead R-D link, or a gbar1 so small that
  beta = gamma1/gbar2 never matters) the relay branch cannot move the
  result in float64, and the direct link's 1/(2 u0) is used
  (_conditional_aber).
- The pdf-normalization check integrates both half-lines with the same
  t rule.

Halving the panel width moves neither oracle by more than 1e-12 relative
on criterion-1 draws (gbar_i in 10^[-1, 4]) nor at extreme
phi = gbar2/gbar1 such as gbar = (1e4, 1e-3, 1e4); the tests check 1e-9.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import analysis
from .analysis import ClosedFormContext
from .combiners import beta_wsc2

__all__ = [
    "aber_wsc1_by_integration",
    "aber_wsc2_by_integration",
    "run_checks",
    "CheckResult",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANEL = 0.5  # panel width in the log variable
_NEGLIGIBLE = 2.0 ** -60  # beta * v2 below which the relay branch cannot move Pe (_conditional_aber)


def _log_rule(lo: float, hi: float, splits=()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum(w * g(x)) ~ int_lo^hi g(x) dx, panels in ln x."""
    edges = [math.log(lo), *sorted({math.log(s) for s in splits if lo < s < hi}), math.log(hi)]
    nodes, weights = [], []
    for a, b in zip(edges, edges[1:]):
        n = math.ceil((b - a) / _PANEL)
        h = (b - a) / n
        left = a + h * np.arange(n)
        nodes.append((left[:, None] + 0.5 * h * (_GL_X + 1.0)).ravel())
        weights.append(np.tile(0.5 * h * _GL_W, n))
    x = np.exp(np.concatenate(nodes))
    return x, np.concatenate(weights) * x


def _t_rule(beta, ctx: ClosedFormContext) -> tuple[np.ndarray, np.ndarray]:
    """The rule over t in (0, inf) for integrands built from f_xi0, f_xiw and their CDFs.

    One rule serves every weight in beta: it spans the union of their scales.
    An upper end that overflows is a ValueError.
    """
    lo, hi = float(np.min(beta)), float(np.max(beta))
    scales = (0.5, 0.5 * ctx.v0, 0.5 * lo, 0.5 * ctx.v2 * hi)
    end = 80.0 * max(scales)
    if not math.isfinite(end):
        raise ValueError(f"gamma_bar ({ctx.gbar0:g}, {ctx.gbar1:g}, {ctx.gbar2:g}) is too large: "
                         f"the t rule's upper end, 80 x max(1, v0, beta, beta v2) / 2, overflows")
    return _log_rule(max(1e-12 * min(scales), sys.float_info.min), end)


def _average_over_gamma1(fn, ctx: ClosedFormContext, split: float | None = None) -> float:
    """E[fn(gamma1)] for gamma1 ~ Exp(mean gbar1); a point mass at 0 when gbar1 = 0.

    fn takes an array of gamma1 nodes, one panel of the rule at a time, and
    returns its values there.  A gbar1 or gbar2 below the smallest normal
    float is a ValueError: the lowest node would underflow; so is a gbar1
    whose highest node, 60 gbar1, overflows.
    """
    gbar1 = ctx.gbar1
    if gbar1 == 0:
        return float(fn(np.zeros(1))[0])
    smallest = min(g for g in (1.0, gbar1, ctx.gbar2) if g > 0)
    if smallest < sys.float_info.min:
        raise ValueError(f"gamma_bar {smallest:g} is subnormal: the gamma1 rule needs gbar1 and gbar2 "
                         f"to be 0 or at least {sys.float_info.min:g}")
    if not math.isfinite(60.0 * gbar1):
        raise ValueError(f"gamma_bar {gbar1:g} is too large: the gamma1 rule needs 60 x gbar1 to be finite")
    g1, w = _log_rule(1e-14 * smallest, 60.0 * gbar1, (1.0,) if split is None else (1.0, split))
    vals = np.concatenate([fn(panel) for panel in g1.reshape(-1, _GL_X.size)])
    return float(vals @ (w * np.exp(-g1 / gbar1))) / gbar1


def _conditional_aber(beta, g1, ctx: ClosedFormContext):
    """Pe1 + Pe2 given gamma1 = g1 at weight beta; arrays of the two broadcast and share one t rule.

    Where beta * v2 < 2^-60 the relay branch moves the result by less than
    2^-59 relative (|Pe(beta) - Pe(0)| <= 2 beta E|xi2| / u0 <= beta v2 / u0,
    and Pe(0) = 1/(2 u0)), so there, as at beta = 0, the direct link is
    always selected and the result is cdf_xi0(0).  A v0 = 1 + 2 gbar0 that
    overflows is a ValueError.
    """
    if not math.isfinite(ctx.v0):
        raise ValueError(f"gamma_bar {ctx.gbar0:g} is too large: v0 = 1 + 2 gbar0 overflows")
    beta, g1 = np.broadcast_arrays(np.asarray(beta, dtype=float), np.asarray(g1, dtype=float))
    out = np.full(beta.shape, analysis.cdf_xi0(0.0, ctx))
    live = beta * ctx.v2 >= _NEGLIGIBLE
    if np.any(live):
        b, g = beta[live][:, None], g1[live][:, None]
        t, w = _t_rule(b, ctx)
        with np.errstate(over="ignore"):  # t/beta overflows to inf only where exp(-2t/beta) is 0
            out[live] = (analysis.pdf_xi0(-t, ctx) * analysis.cdf_abs_xiw(t, b, ctx)
                         + analysis.pdf_xiw(-t, b, g, ctx) * analysis.cdf_abs_xi0(t, ctx)) @ w
    return out if out.ndim else float(out)


def aber_wsc1_by_integration(beta: float, ctx: ClosedFormContext) -> float:
    """Direct quadrature at a fixed weight factor, its gamma1 average exact (module docstring)."""
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    return _conditional_aber(beta, math.log1p(ctx.gbar1), ctx)


def aber_wsc2_by_integration(ctx: ClosedFormContext) -> float:
    """Direct quadrature with the adaptive weight beta(gamma1) = combiners.beta_wsc2(gamma1, gbar2).

    Independent of the closed forms it checks, but not of the model's weight rule, which it
    shares with the simulator: a dead R-D link (gbar2 = 0) has weight 0, so the direct link decides alone.
    """
    def panel(g1):
        return _conditional_aber(beta_wsc2(g1, ctx.gbar2), g1, ctx)

    return _average_over_gamma1(panel, ctx, split=ctx.gbar2)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check_pdf_normalization() -> CheckResult:
    worst = 0.0
    for gbar0 in (0.0, 1.0, 10.0, 100.0):
        ctx = ClosedFormContext(gbar0, 1.0, 1.0)
        t, w = _t_rule(1.0, ctx)
        val = w @ (analysis.pdf_xi0(t, ctx) + analysis.pdf_xi0(-t, ctx))
        worst = max(worst, abs(val - 1.0))
    for beta in (0.3, 1.0, 2.0):
        for g1 in (0.0, 1.0, 5.0):
            for gbar2 in (1.0, 10.0):
                ctx = ClosedFormContext(1.0, 1.0, gbar2)
                t, w = _t_rule(beta, ctx)
                val = w @ (analysis.pdf_xiw(t, beta, g1, ctx) + analysis.pdf_xiw(-t, beta, g1, ctx))
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


def _check_formula_vs_integration(rng, n_tuples: int) -> CheckResult:
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


def _check_formula_vs_simulation() -> CheckResult:
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
        _check_pdf_normalization(),
        _check_abs_cdf_identities(rng),
        _check_formula_vs_integration(rng, n_tuples=4 if quick else 10),
    ]
    if not quick:
        checks.append(_check_formula_vs_simulation())
    return checks
