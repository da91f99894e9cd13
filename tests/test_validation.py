"""The Gauss-Legendre quadrature oracle where the adaptive one used to fail.

The WSC1 tuples are criterion-1 draws on which the closed form and the old
nested adaptive quadrature differed by 3.0e-4 and 1.1e-4; the WSC2 points
are at extreme phi = gbar2/gbar1, where the old oracle collapsed to ~0.
Each must match the closed form to criterion 1's 1e-4, and the oracle's own
error (the change when its panels are halved) must be far below that.
"""

import warnings

import numpy as np
import pytest

from ddfwsc import validation
from ddfwsc.analysis import ClosedFormContext, aber_wsc1, aber_wsc2
from ddfwsc.validation import aber_wsc1_by_integration, aber_wsc2_by_integration

WSC1_FINDINGS = [((458.04, 8323.32, 1.0326), 1.6152), ((1826.63, 8028.42, 0.6203), 0.8679)]
WSC2_FINDINGS = [(1e3, 1e-2, 1e3), (1e4, 1e-3, 1e4), (1e4, 0.1, 1e4), (1e4, 0.3, 1e4)]


def _criterion_1_draws(per_scheme: int) -> list:
    """The first draws of each half of acceptance criterion 1 (seed 20240101)."""
    rng = np.random.default_rng(20240101)
    wsc1 = []
    for _ in range(30):
        gb = tuple(10.0 ** rng.uniform(-1, 4, size=3))
        wsc1.append((gb, rng.uniform(0.05, 2.0)))
    wsc2 = [tuple(10.0 ** rng.uniform(-1, 4, size=3)) for _ in range(30)]
    return ([("wsc1", gb, beta) for gb, beta in wsc1[:per_scheme]]
            + [("wsc2", gb, None) for gb in wsc2[:per_scheme]])


def _oracle(scheme, gb, beta) -> float:
    ctx = ClosedFormContext(*gb)
    if scheme == "wsc1":
        return aber_wsc1_by_integration(beta, ctx)
    return aber_wsc2_by_integration(ctx)


POINTS = ([("wsc1", gb, beta) for gb, beta in WSC1_FINDINGS]
          + [("wsc2", gb, None) for gb in WSC2_FINDINGS])


@pytest.mark.parametrize("gb,beta", WSC1_FINDINGS)
def test_wsc1_matches_closed_form_at_small_phi(gb, beta):
    ref = aber_wsc1_by_integration(beta, ClosedFormContext(*gb))
    assert aber_wsc1(beta, ClosedFormContext(*gb)) == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize("gb", WSC2_FINDINGS)
def test_wsc2_matches_closed_form_at_extreme_phi(gb):
    ctx = ClosedFormContext(*gb)
    assert aber_wsc2(ctx) == pytest.approx(aber_wsc2_by_integration(ctx), rel=1e-4)


@pytest.mark.parametrize("gb", [(1.0, 1.0, 1.0), (10.0, 5.0, 1.0)])
def test_wsc2_when_the_beta_kink_falls_on_the_gamma1_split(gb):
    # gbar2 = 1 puts both gamma1 panel edges at 1; (1, 1, 1) is from_db(0.0).
    ctx = ClosedFormContext(*gb)
    assert aber_wsc2_by_integration(ctx) == pytest.approx(aber_wsc2(ctx), rel=1e-4)


# Criterion-1 draws, then a zero, a small and a large gbar1.
EXACT_AVERAGE_POINTS = (WSC1_FINDINGS
                        + [(gb, beta) for scheme, gb, beta in _criterion_1_draws(5) if scheme == "wsc1"]
                        + [((10.0, gbar1, 5.0), 0.7) for gbar1 in (0.0, 1e-3, 1e4)])


@pytest.mark.parametrize("gb,beta", EXACT_AVERAGE_POINTS)
def test_wsc1_gamma1_average_taken_exactly(gb, beta):
    # Given gamma1, Pe1 + Pe2 is affine in exp(-gamma1), so its average over
    # gamma1 ~ Exp(gbar1) on the gamma1 nodes is its value at log1p(gbar1).
    ctx = ClosedFormContext(*gb)
    by_nodes = validation._average_over_gamma1(
        lambda g1: validation._conditional_aber(beta, g1, ctx), ctx)
    assert aber_wsc1_by_integration(beta, ctx) == pytest.approx(by_nodes, rel=1e-12)


@pytest.mark.parametrize("scheme,gb,beta", POINTS + _criterion_1_draws(5))
def test_halving_the_panels_moves_the_oracle_by_at_most_1e9(monkeypatch, scheme, gb, beta):
    ref = _oracle(scheme, gb, beta)
    monkeypatch.setattr(validation, "_PANEL", validation._PANEL / 2)
    assert _oracle(scheme, gb, beta) == pytest.approx(ref, rel=1e-9)


def test_zero_relay_snr_is_a_point_mass():
    # gbar1 = 0: gamma1 is 0 on every block, the relay always errs with probability 1/2.
    ctx = ClosedFormContext(3.0, 0.0, 2.0)
    assert aber_wsc1_by_integration(0.7, ctx) == pytest.approx(aber_wsc1(0.7, ctx), rel=1e-9)
    assert aber_wsc2_by_integration(ctx) == pytest.approx(1 / (2 * ctx.u0), rel=1e-12)


@pytest.mark.parametrize("gb", [(1e-3, 1e-295, 1e2), (1e-3, 1e-300, 1e2), (1.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
def test_degenerate_relay_links_give_the_direct_link_alone(gb):
    # gbar1 so small that beta = gamma1/gbar2 never matters, or a dead R-D
    # link, which the simulator also leaves to the direct link.
    ctx = ClosedFormContext(*gb)
    assert aber_wsc2_by_integration(ctx) == pytest.approx(1 / (2 * ctx.u0), rel=1e-12)


@pytest.mark.parametrize("gb, expected", [((1.0, 1.0, 1e300), 0.180670015021648),
                                          ((1e300, 1.0, 1.0), 2.3756397860454052e-301)])
def test_huge_gamma_bar_is_finite_and_quiet(gb, expected):
    # A huge gbar2 makes beta = gamma1/gbar2 subnormal, a huge gbar0 takes t
    # to 1e301, and either way t/beta overflows: the oracle must neither fail
    # nor warn.  The references are its values
    # at 1e200, where the first has converged (1e200 to 1e280 agree to 1e-14)
    # and the second scales as 1/gbar0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert aber_wsc2_by_integration(ClosedFormContext(*gb)) == pytest.approx(expected, rel=1e-12)


def test_subnormal_gamma_bar_is_value_error():
    with pytest.raises(ValueError, match="gamma_bar 1e-310 is subnormal"):
        aber_wsc2_by_integration(ClosedFormContext(1e-3, 1e-310, 1e2))


@pytest.mark.parametrize("gb", [(1.0, 1.0, 1e308), (1e308, 1.0, 1.0), (1.0, 1e308, 1.0)])
def test_overflowing_gamma_bar_is_value_error(gb):
    # v2, v0 or 60 gbar1 overflows: each oracle refuses it, naming gamma_bar,
    # without a warning.  The WSC1 oracle has no gamma1 rule (its average is
    # exact at log1p(gbar1)), so a huge gbar1 alone leaves it finite.
    ctx = ClosedFormContext(*gb)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma_bar .*1e\\+308.* is too large"):
            aber_wsc2_by_integration(ctx)
        if gb[1] == 1e308:
            assert aber_wsc1_by_integration(1.0, ctx) == pytest.approx(0.15625, rel=1e-12)
        else:
            with pytest.raises(ValueError, match="gamma_bar .*1e\\+308.* is too large"):
                aber_wsc1_by_integration(1.0, ctx)


@pytest.mark.parametrize("gb", [(1e4, 1e-3, 1e4), (10.0, 5.0, 1.0), (0.3, 2.0, 3e3)])
def test_conditional_aber_on_a_block_matches_per_node_calls(monkeypatch, gb):
    # One panel of gamma1 nodes across the beta kink at gbar2.  The block
    # shares one t rule, spanning the union of its nodes' scales: on that
    # rule each node is its own call to 1e-15, and on the node's own rule to
    # well within the oracle's accuracy.
    ctx = ClosedFormContext(*gb)
    g1 = ctx.gbar2 * np.geomspace(0.6, 1.6, 16)
    beta = np.minimum(1.0, g1 / ctx.gbar2)
    block = validation._conditional_aber(beta, g1, ctx)
    assert block.shape == (16,)
    own_rules = [validation._conditional_aber(b, g, ctx) for b, g in zip(beta.tolist(), g1.tolist())]
    assert np.allclose(block, own_rules, rtol=1e-12, atol=0.0)
    shared = validation._t_rule(beta, ctx)
    monkeypatch.setattr(validation, "_t_rule", lambda beta, ctx: shared)
    nodes = [validation._conditional_aber(b, g, ctx) for b, g in zip(beta.tolist(), g1.tolist())]
    assert np.allclose(block, nodes, rtol=1e-15, atol=0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: at 10 dB and L = 256 the bit-level Wilson interval is "
                                       "about 6-7x too narrow, so SC's interval misses the closed form; item 4's "
                                       "block-level interval mends it and removes this marker")
def test_full_validate_monte_carlo_check_passes():
    # The check `ddfwsc validate` runs without --quick, with its own seed and block budget.
    result = validation._check_formula_vs_simulation()
    assert result.passed, result.detail
