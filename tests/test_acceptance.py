"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria use short blocks where a calibrated bit-level Wilson
interval is needed (the BER is invariant to block length) and frozen
seeds so the whole gate is deterministic.
"""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ddfwsc import analysis
from ddfwsc.analysis import (
    ClosedFormContext,
    aber_asymptotic_wsc2,
    aber_wsc1,
    aber_wsc2,
    optimize_beta,
)
from ddfwsc.combiners import SchemeId
from ddfwsc.link import SystemParams
from ddfwsc.simulator import SimConfig, run_simulation, sweep
from ddfwsc.validation import aber_wsc1_by_integration, aber_wsc2_by_integration


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_formula_vs_integration():
    rng = np.random.default_rng(20240101)
    worst1 = worst2 = 0.0
    for _ in range(30):
        gb = 10.0 ** rng.uniform(-1, 4, size=3)
        beta = rng.uniform(0.05, 2.0)
        ctx = ClosedFormContext(*gb)
        ref = aber_wsc1_by_integration(beta, ctx)
        worst1 = max(worst1, abs(aber_wsc1(beta, ctx) - ref) / ref)
    for _ in range(30):
        gb = 10.0 ** rng.uniform(-1, 4, size=3)
        ctx = ClosedFormContext(*gb)
        ref = aber_wsc2_by_integration(ctx)
        worst2 = max(worst2, abs(aber_wsc2(ctx) - ref) / ref)
    ok = worst1 < 1e-4 and worst2 < 1e-4
    report(1, "formula vs integration", ok,
           f"max rel err: wsc1 {worst1:.2e}, wsc2 {worst2:.2e}")


def test_criterion_2_simulation_vs_formula():
    failures = []
    for db in (5.0, 10.0, 15.0, 20.0):
        ctx = ClosedFormContext.from_db(db)
        beta_opt, _ = optimize_beta(ctx)
        truth = {
            SchemeId.SC: aber_wsc1(1.0, ctx),
            SchemeId.WSC1: aber_wsc1(beta_opt, ctx),
            SchemeId.WSC2: aber_wsc2(ctx),
        }
        params = SystemParams(p0_over_n0_db=db, block_len=4)
        cfg = SimConfig(params=params, schemes=tuple(truth), beta_wsc1=beta_opt,
                        max_blocks=3_000_000, min_errors=500, seed=1)
        for est in run_simulation(cfg):
            assert est.bit_errors >= 500
            if not est.ci95_low <= truth[est.scheme] <= est.ci95_high:
                failures.append(f"{db} dB {est.scheme.value}")
    report(2, "simulation within Wilson CI of closed form", not failures,
           f"failures: {failures or 'none'}")


def test_criterion_3_zero_snr_anchor():
    exact = abs(aber_wsc1(1.0, ClosedFormContext(0, 0, 0)) - 0.5) < 1e-12
    params = SystemParams(p0_over_n0_db=0.0, sigma_sq=(0.0, 0.0, 0.0), block_len=256)
    cfg = SimConfig(params=params, schemes=(SchemeId.SC,), max_blocks=391,
                    min_errors=0, seed=17)
    est = run_simulation(cfg)[0]
    ok = exact and est.bits >= 10 ** 5 and abs(est.ber - 0.5) <= 0.01
    report(3, "zero-SNR anchor", ok, f"formula exact: {exact}, sim {est.ber:.4f}")


def test_criterion_4_gamma1_cancellation():
    ctx = ClosedFormContext(1.0, 1.0, 2.5)
    worst = 0.0
    for x in np.linspace(0.0, 12.0, 10):
        for beta in np.linspace(0.1, 2.0, 10):
            ref = analysis.cdf_abs_xiw(x, beta, ctx)
            for g1 in (0.0, 0.7, 4.0, 25.0):
                lhs = analysis.cdf_xiw(x, beta, g1, ctx) - analysis.cdf_xiw(-x, beta, g1, ctx)
                worst = max(worst, abs(lhs - ref))
    report(4, "gamma1-cancellation identity", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_5_weight_factor_behavior():
    # Monotonicity of the optimal weight at 30 dB.
    p0 = 10.0 ** 3
    b_vs_s1 = [optimize_beta(ClosedFormContext(p0, p0 * s, p0))[0] for s in (0.25, 1, 4, 16)]
    b_vs_s2 = [optimize_beta(ClosedFormContext(p0, p0, p0 * s))[0] for s in (0.25, 1, 4, 16)]
    mono = (all(b >= a for a, b in zip(b_vs_s1, b_vs_s1[1:]))
            and all(b <= a for a, b in zip(b_vs_s2, b_vs_s2[1:])))

    # Simulated sweep minimum, downscaled to 20 dB: all weights evaluated
    # on common realizations so the shallow minimum is resolvable.
    db = 20.0
    ctx = ClosedFormContext.from_db(db)
    beta_opt, _ = optimize_beta(ctx)
    grid = np.logspace(np.log10(0.05), np.log10(2.0), 20)
    step = np.log(grid[1] / grid[0])
    # One sweep over blocks 0..29999 of seed 1: its points draw each block
    # once and share one link pass, since they differ only in the weight.
    cfg = SimConfig(params=SystemParams(p0_over_n0_db=db, block_len=256), schemes=(SchemeId.WSC1,),
                    max_blocks=30_000, min_errors=0, seed=1)
    errs = np.array([estimates[0].bit_errors
                     for estimates in sweep([replace(cfg, beta_wsc1=float(b)) for b in grid])])
    sim_min = grid[int(np.argmin(errs))]
    within = abs(np.log(sim_min / beta_opt)) <= step * 1.0001
    ok = mono and within and errs.min() >= 300
    report(5, "weight-factor monotonicity and sweep minimum", ok,
           f"beta_opt {beta_opt:.4f}, sim argmin {sim_min:.4f}, "
           f"min errors {errs.min()}, monotone {mono}")


def diversity_order_estimate(points) -> float:
    """Least-squares slope of -log10(BER) against P0/N0(dB)/10."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    x = np.array([p[0] for p in pts], dtype=float) / 10.0
    y = np.array([p[1] for p in pts], dtype=float)
    if np.any(y <= 0):
        raise ValueError("BER values must be > 0")
    if np.any(np.diff(x) <= 0):
        raise ValueError("p0_db values must be strictly increasing")
    slope = np.polyfit(x, -np.log10(y), 1)[0]
    return float(slope)


class TestDiversityOrder:
    def test_synthetic_power_law(self):
        pts = [(db, 10 ** (-2 * db / 10)) for db in (10, 20, 30, 40)]
        assert diversity_order_estimate(pts) == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            diversity_order_estimate([(10, 0.1)])
        with pytest.raises(ValueError):
            diversity_order_estimate([(10, 0.1), (5, 0.2)])
        with pytest.raises(ValueError):
            diversity_order_estimate([(10, 0.0), (20, 0.1)])


def test_criterion_6_diversity_orders():
    dbs = np.arange(25.0, 40.1, 2.5)
    slope_w2 = diversity_order_estimate(
        [(db, aber_wsc2(ClosedFormContext.from_db(db))) for db in dbs])
    slope_sc = diversity_order_estimate(
        [(db, aber_wsc1(1.0, ClosedFormContext.from_db(db))) for db in dbs])
    ok = 1.7 <= slope_w2 <= 2.0 and 0.9 <= slope_sc <= 1.1
    report(6, "diversity orders from closed forms", ok,
           f"WSC2 {slope_w2:.3f}, SC {slope_sc:.3f}")


def test_criterion_7_asymptotic_tightness():
    gaps = []
    for db in (25.0, 30.0, 35.0, 40.0):
        p0 = 10.0 ** (db / 10.0)
        gaps.append(abs(aber_asymptotic_wsc2(p0) / aber_wsc2(ClosedFormContext(p0, p0, p0)) - 1))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] < 0.5
    report(7, "asymptotic tightness", ok,
           f"rel gaps {['%.2e' % g for g in gaps]}")


def test_criterion_8_scheme_ordering():
    db = 20.0
    ctx = ClosedFormContext.from_db(db)
    beta_opt, _ = optimize_beta(ctx)
    params = SystemParams(p0_over_n0_db=db, block_len=256)
    cfg = SimConfig(params=params,
                    schemes=(SchemeId.SC, SchemeId.WSC1, SchemeId.WSC2, SchemeId.LAR),
                    beta_wsc1=beta_opt, max_blocks=100_000, min_errors=500, seed=1)
    by_scheme = {e.scheme: e for e in run_simulation(cfg)}
    assert all(e.bit_errors >= 500 for e in by_scheme.values())
    b = {s: by_scheme[s].ber for s in by_scheme}
    ok = (b[SchemeId.WSC2] <= b[SchemeId.WSC1] <= b[SchemeId.SC]
          and b[SchemeId.LAR] > b[SchemeId.WSC2])
    report(8, "paired scheme ordering at 20 dB", ok,
           f"WSC2 {b[SchemeId.WSC2]:.3e} <= WSC1 {b[SchemeId.WSC1]:.3e} "
           f"<= SC {b[SchemeId.SC]:.3e}; LAR {b[SchemeId.LAR]:.3e}")


def test_criterion_9_cli_determinism():
    args = ["simulate", "--schemes", "sc,wsc1,wsc2,lar", "--snr-db", "10",
            "--blocks", "300", "--block-len", "64", "--min-errors", "0", "--seed", "99"]
    outs = []
    for workers in ("1", "8"):
        proc = subprocess.run([sys.executable, "-m", "ddfwsc.cli", *args, "--workers", workers],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    report(9, "CLI byte-identical across worker counts", outs[0] == outs[1],
           f"{len(outs[0])} bytes each")
