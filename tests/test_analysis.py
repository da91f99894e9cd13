import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P
from scipy import integrate

from ddfwsc import analysis
from ddfwsc.analysis import (
    ClosedFormContext,
    aber_asymptotic_wsc2,
    aber_wsc1,
    aber_wsc2,
    cdf_abs_xi0,
    cdf_abs_xiw,
    cdf_xi0,
    cdf_xiw,
    exp_integral_e1_scaled,
    optimize_beta,
    pdf_xi0,
    pdf_xiw,
)
from ddfwsc.cli import main
from ddfwsc.combiners import SCHEMES, SchemeId
from ddfwsc.link import SystemParams
from ddfwsc.validation import aber_wsc1_by_integration, aber_wsc2_by_integration


class TestContext:
    def test_derived_constants(self):
        ctx = ClosedFormContext(2.0, 4.0, 6.0)
        assert (ctx.u0, ctx.u1, ctx.u2) == (3.0, 5.0, 7.0)
        assert (ctx.v0, ctx.v2) == (5.0, 13.0)
        assert ctx.phi == 1.5
        assert ctx.v0 == 2 * ctx.u0 - 1

    def test_phi_requires_gbar1(self):
        with pytest.raises(ValueError):
            _ = ClosedFormContext(1.0, 0.0, 1.0).phi

    def test_rejects_bad_snr(self):
        with pytest.raises(ValueError):
            ClosedFormContext(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ClosedFormContext(float("nan"), 1.0, 1.0)

    @pytest.mark.parametrize("db", [4000.0, float("inf"), float("nan")])
    def test_from_db_rejects_non_finite_power(self, db):
        with pytest.raises(ValueError, match="non-finite power"):
            ClosedFormContext.from_db(db)

    @pytest.mark.parametrize("sigma_sq", [(1.0, 1.0, -1.0), (float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0)])
    def test_from_db_rejects_bad_variances_as_system_params_does(self, sigma_sq):
        # One check, one message: it names the variances, not the average SNRs derived from them.
        message = re.escape(f"channel variances must be finite and >= 0, got {sigma_sq}")
        with pytest.raises(ValueError, match=message):
            ClosedFormContext.from_db(10.0, sigma_sq)
        with pytest.raises(ValueError, match=message):
            SystemParams(p0_over_n0_db=10.0, sigma_sq=sigma_sq)


class TestDirectLinkDistributions:
    def test_pdf_at_origin_zero_snr(self):
        assert pdf_xi0(0.0, ClosedFormContext(0, 0, 0)) == 1.0

    @pytest.mark.parametrize("gbar0", [0.0, 1.0, 10.0, 100.0])
    def test_pdf_normalizes(self, gbar0):
        ctx = ClosedFormContext(gbar0, 1.0, 1.0)
        val, _ = integrate.quad(lambda x: pdf_xi0(x, ctx), -np.inf, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_cdf_at_origin(self):
        assert cdf_xi0(0.0, ClosedFormContext(0, 0, 0)) == 0.5
        ctx = ClosedFormContext(3.0, 1.0, 1.0)
        assert cdf_xi0(0.0, ctx) == pytest.approx(1 / (2 * ctx.u0))

    def test_abs_cdf_at_origin(self):
        for gbar0 in (0.0, 2.0, 50.0):
            assert cdf_abs_xi0(0.0, ClosedFormContext(gbar0, 1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_cdf_upper_limit(self):
        ctx = ClosedFormContext(7.0, 1.0, 1.0)
        assert abs(1.0 - cdf_xi0(50 * ctx.v0, ctx)) < 1e-12

    def test_abs_identity(self):
        ctx = ClosedFormContext(1.7, 1.0, 1.0)
        for x in np.linspace(0, 20, 40):
            lhs = cdf_xi0(x, ctx) - cdf_xi0(-x, ctx)
            assert lhs == pytest.approx(cdf_abs_xi0(x, ctx), abs=1e-12)

    def test_abs_cdf_rejects_negative(self):
        with pytest.raises(ValueError):
            cdf_abs_xi0(-0.1, ClosedFormContext(1, 1, 1))

    def test_pdf_is_cdf_derivative(self):
        ctx = ClosedFormContext(4.0, 1.0, 1.0)
        rng = np.random.default_rng(1)
        for x in rng.uniform(-5, 10, size=100):
            h = 1e-5
            num = (cdf_xi0(x + h, ctx) - cdf_xi0(x - h, ctx)) / (2 * h)
            assert num == pytest.approx(pdf_xi0(x, ctx), abs=1e-6)

    def test_conditional_gaussian_marginalization(self):
        # Sampling the conditional Gaussian given the previous received
        # energy and marginalizing must reproduce the fading-averaged pdf.
        gbar0 = 3.0
        ctx = ClosedFormContext(gbar0, 1.0, 1.0)
        rng = np.random.default_rng(9)
        n = 400_000
        y0_sq = rng.exponential(1.0 + gbar0, size=n)
        a = gbar0 / (1.0 + gbar0) * y0_sq
        b = 0.5 * (2 * gbar0 + 1) / (gbar0 + 1) * y0_sq
        xi0 = rng.normal(a, np.sqrt(b))
        x = np.sort(xi0)
        emp = np.arange(1, n + 1) / n
        sup = np.max(np.abs(emp - cdf_xi0(x, ctx)))
        assert sup < 0.005


class TestRelayLinkDistributions:
    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("gamma1", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("gbar2", [1.0, 10.0])
    def test_pdf_normalizes(self, beta, gamma1, gbar2):
        ctx = ClosedFormContext(1.0, 1.0, gbar2)
        val, _ = integrate.quad(lambda x: pdf_xiw(x, beta, gamma1, ctx), -np.inf, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_at_total_confusion(self):
        # gamma1 = 0 means the relay guesses; the density must be even.
        ctx = ClosedFormContext(1.0, 1.0, 4.0)
        for x in np.linspace(0, 15, 30):
            assert pdf_xiw(x, 0.7, 0.0, ctx) == pytest.approx(pdf_xiw(-x, 0.7, 0.0, ctx), rel=1e-12)

    def test_gamma1_cancellation(self):
        ctx = ClosedFormContext(1.0, 1.0, 3.0)
        for x in np.linspace(0, 10, 10):
            for beta in (0.2, 0.7, 1.0, 1.9):
                ref = cdf_abs_xiw(x, beta, ctx)
                for g1 in (0.0, 0.5, 3.0, 20.0):
                    lhs = cdf_xiw(x, beta, g1, ctx) - cdf_xiw(-x, beta, g1, ctx)
                    assert abs(lhs - ref) < 1e-12

    def test_abs_cdf_at_origin(self):
        # 1 + v2 = 2 u2 makes the origin value vanish identically.
        for gbar2 in (0.0, 1.0, 40.0):
            ctx = ClosedFormContext(1.0, 1.0, gbar2)
            assert cdf_abs_xiw(0.0, 0.8, ctx) == pytest.approx(0.0, abs=1e-15)

    def test_pdf_is_cdf_derivative(self):
        ctx = ClosedFormContext(1.0, 1.0, 5.0)
        rng = np.random.default_rng(2)
        for x in rng.uniform(-8, 8, size=100):
            h = 1e-5
            num = (cdf_xiw(x + h, 0.6, 1.3, ctx) - cdf_xiw(x - h, 0.6, 1.3, ctx)) / (2 * h)
            assert num == pytest.approx(pdf_xiw(x, 0.6, 1.3, ctx), abs=1e-6)

    def test_invalid_beta(self):
        ctx = ClosedFormContext(1, 1, 1)
        for fn in (lambda: pdf_xiw(0.0, 0.0, 1.0, ctx),
                   lambda: cdf_xiw(0.0, -1.0, 1.0, ctx),
                   lambda: cdf_abs_xiw(0.0, 0.0, ctx)):
            with pytest.raises(ValueError):
                fn()

    def test_arrays_broadcast_row_by_row(self):
        # A block of (beta, gamma1) rows against a t grid, as the quadrature
        # oracle evaluates them: each row is the scalar call's, to 1 ulp.
        ctx = ClosedFormContext(3.0, 2.0, 40.0)
        x = np.concatenate([-np.geomspace(1e-6, 50.0, 40), [0.0], np.geomspace(1e-6, 50.0, 40)])
        beta = np.array([1e-4, 0.03, 0.5, 1.0, 1.7])[:, None]
        gamma1 = np.array([0.0, 1e-3, 0.7, 4.0, 30.0])[:, None]
        blocks = {
            "pdf_xiw": (pdf_xiw(x, beta, gamma1, ctx), lambda xi, b, g: pdf_xiw(xi, b, g, ctx)),
            "cdf_xiw": (cdf_xiw(x, beta, gamma1, ctx), lambda xi, b, g: cdf_xiw(xi, b, g, ctx)),
            "cdf_abs_xiw": (cdf_abs_xiw(np.abs(x), beta, ctx), lambda xi, b, g: cdf_abs_xiw(abs(xi), b, ctx)),
        }
        for name, (block, scalar) in blocks.items():
            assert block.shape == (5, x.size), name
            for row, b, g in zip(block, beta[:, 0].tolist(), gamma1[:, 0].tolist()):
                ref = np.array([scalar(xi, b, g) for xi in x.tolist()])
                assert np.all(np.abs(row - ref) <= np.spacing(np.abs(ref))), name

    def test_forced_relay_flips_match_mixture(self):
        # Direct Monte Carlo of the conditional relay-link model: Gaussian
        # decision variable with sign flipped at rate exp(-gamma1)/2.
        gamma1, beta, gbar2 = 1.2, 0.8, 4.0
        ctx = ClosedFormContext(1.0, 1.0, gbar2)
        rng = np.random.default_rng(11)
        n = 400_000
        y2_sq = rng.exponential(1.0 + gbar2, size=n)
        a = gbar2 / (1.0 + gbar2) * y2_sq
        b = 0.5 * (2 * gbar2 + 1) / (gbar2 + 1) * y2_sq
        d_hat = np.where(rng.random(n) < 0.5 * np.exp(-gamma1), -1.0, 1.0)
        xiw = beta * rng.normal(d_hat * a, np.sqrt(b))
        x = np.sort(xiw)
        emp = np.arange(1, n + 1) / n
        sup = np.max(np.abs(emp - cdf_xiw(x, beta, gamma1, ctx)))
        assert sup < 0.005


def exp_integral_e1(x):
    """E1(x) from the package's scaled exp(x) * E1(x)."""
    return math.exp(-x) * exp_integral_e1_scaled(x)


class TestExponentialIntegral:
    def test_reference_value(self):
        # Adaptive quadrature of the defining integral at x = 1.
        ref, _ = integrate.quad(lambda t: math.exp(-t) / t, 1.0, np.inf, limit=200)
        assert exp_integral_e1(1.0) == pytest.approx(ref, rel=1e-12)
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552, rel=1e-10)

    def test_matches_quadrature_across_range(self):
        for x in (1e-4, 0.03, 0.7, 1.5, 8.0, 40.0):
            ref, _ = integrate.quad(lambda t: math.exp(-t) / t, x, np.inf, limit=300)
            assert exp_integral_e1(x) == pytest.approx(ref, rel=1e-10)

    def test_asymptotic_identity(self):
        x = 50.0
        assert exp_integral_e1(x) * x * math.exp(x) == pytest.approx(1.0, rel=0.02)

    def test_series_identity_near_zero(self):
        x = 1e-6
        assert abs(exp_integral_e1(x) + math.log(x) + 0.5772156649015329) < 1e-5

    def test_scaled_version_finite_at_large_argument(self):
        x = 5000.0
        val = exp_integral_e1_scaled(x)
        assert val == pytest.approx(1 / x, rel=0.01)

    def test_domain_errors(self):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                exp_integral_e1(x)


class TestAberWsc1:
    def test_zero_snr_anchor(self):
        assert aber_wsc1(1.0, ClosedFormContext(0, 0, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_small_beta_limit_is_direct_link(self):
        ctx = ClosedFormContext(4.0, 2.0, 3.0)
        # beta -> 0 removes the relay branch entirely.
        assert aber_wsc1(1e-6, ctx) == pytest.approx(1 / (2 * ctx.u0), rel=1e-4)
        assert aber_wsc1_by_integration(1e-6, ctx) == pytest.approx(1 / (2 * ctx.u0), rel=1e-4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_integration(self, seed):
        rng = np.random.default_rng(seed)
        gb = 10.0 ** rng.uniform(-1, 3, size=3)
        beta = rng.uniform(0.05, 2.0)
        ctx = ClosedFormContext(*gb)
        ref = aber_wsc1_by_integration(beta, ctx)
        assert aber_wsc1(beta, ctx) == pytest.approx(ref, rel=1e-6)

    def test_decreasing_in_each_snr_at_optimum_weight(self):
        # With a fixed weight, more relay-destination SNR can hurt (error
        # propagation gets selected more often); at the per-point optimal
        # weight extra SNR on any link always helps.
        base = [1.0, 1.0, 1.0]
        for i in range(3):
            vals = []
            for g in (0.5, 2.0, 8.0, 32.0, 128.0):
                gb = list(base)
                gb[i] = g
                vals.append(optimize_beta(ClosedFormContext(*gb))[1])
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_result_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            gb = 10.0 ** rng.uniform(-2, 4, size=3)
            val = aber_wsc1(rng.uniform(0.05, 2.0), ClosedFormContext(*gb))
            assert 0.0 < val <= 0.5 + 1e-12

    def test_rejects_bad_beta(self):
        ctx = ClosedFormContext(1, 1, 1)
        for beta in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                aber_wsc1(beta, ctx)

    @pytest.mark.parametrize("log_range", [(-300, 300, -300, 300), (-3, 160, -100, 100)])
    def test_envelope_against_high_precision(self, log_range):
        # Inside its envelope the float form agrees with a 50-digit evaluation of
        # the same expression; outside it, it is a ValueError that names gamma_bar,
        # never nan, an OverflowError or a Pe2 whose overflowed denominator reads 0.
        g_lo, g_hi, b_lo, b_hi = log_range
        rng = np.random.default_rng(20261020)
        inside = 0
        for _ in range(300):
            gbars = tuple(float(g) for g in 10.0 ** rng.uniform(g_lo, g_hi, size=3))
            beta = float(10.0 ** rng.uniform(b_lo, b_hi))
            try:
                got = aber_wsc1(beta, ClosedFormContext(*gbars))
            except ValueError as exc:
                assert "gamma_bar = (" in str(exc) and "overflows float64" in str(exc)
                continue
            inside += 1
            with mpmath.workdps(50):
                ref = _mp_aber_wsc1(beta, gbars)
                assert abs(got - ref) <= 1e-9 * ref, (gbars, beta, got)
        assert inside >= 30

    def test_envelope_at_unit_variances(self):
        # Exact to 510 dB; above, Pe2's denominator overflows (it read 0, then nan
        # from about 700 dB, then OverflowError from v0 ** 2 at 1540 dB).
        gbars = (10.0 ** 51,) * 3
        with mpmath.workdps(50):
            assert aber_wsc1(1.0, ClosedFormContext(*gbars)) == pytest.approx(float(_mp_aber_wsc1(1.0, gbars)),
                                                                              rel=1e-12)
        for db in (511.0, 700.0, 1540.0):
            with pytest.raises(ValueError, match=r"aber_wsc1 at beta = 1, gamma_bar = \(1\.?\d*e\+\d+"):
                aber_wsc1(1.0, ClosedFormContext.from_db(db))


class TestAberWsc2:
    def test_monotone_in_power(self):
        vals = [aber_wsc2(ClosedFormContext.from_db(db)) for db in (10, 20, 30)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_matches_integration(self, seed):
        rng = np.random.default_rng(seed)
        gb = 10.0 ** rng.uniform(-1, 3, size=3)
        ctx = ClosedFormContext(*gb)
        assert aber_wsc2(ctx) == pytest.approx(aber_wsc2_by_integration(ctx), rel=1e-5)

    def test_decreasing_in_each_snr(self):
        base = [2.0, 2.0, 2.0]
        for i in range(3):
            vals = []
            for g in (0.5, 2.0, 8.0, 32.0, 128.0):
                gb = list(base)
                gb[i] = g
                vals.append(aber_wsc2(ClosedFormContext(*gb)))
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_requires_positive_relay_snrs(self):
        with pytest.raises(ValueError):
            aber_wsc2(ClosedFormContext(1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            aber_wsc2(ClosedFormContext(1.0, 1.0, 0.0))

    @pytest.mark.parametrize("gbars", [(10.0 ** (db / 10),) * 3 for db in (40, 50, 60, 70, 80)]
                             + [(1.2518e5, 1.1425e-3, 5.1315e4), (8.844e5, 2.168, 14.31),
                                (1e4, 1e-3, 1e4), (1e3, 1e-2, 1e3)])
    def test_matches_high_precision_reference(self, gbars):
        ref = _mp_aber_wsc2(gbars)
        assert abs(aber_wsc2(ClosedFormContext(*gbars)) - ref) <= 1e-8 * ref

    @settings(deadline=None, max_examples=300)
    @given(st.tuples(*[st.floats(min_value=-3.0, max_value=8.0)] * 3))
    def test_matches_high_precision_reference_over_range(self, log_gbars):
        gbars = tuple(10.0 ** g for g in log_gbars)
        ref = _mp_aber_wsc2(gbars)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning inside the checked range
            got = aber_wsc2(ClosedFormContext(*gbars))
        assert abs(got - ref) <= 1e-6 * ref

    def test_warns_above_checked_range(self):
        with pytest.warns(RuntimeWarning, match="outside its checked range") as record:
            val = aber_wsc2(ClosedFormContext.from_db(100.0))
        assert len(record) == 1
        assert val == pytest.approx(float(_mp_aber_wsc2((1e10,) * 3)), rel=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aber_wsc2(ClosedFormContext.from_db(80.0))

    @pytest.mark.parametrize("db", [130.0, 200.0, 300.0])
    def test_raises_above_limit(self, db):
        # Above gamma_bar 1e12 float64 loses the result (8.3x off at 180 dB), so no number is returned.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an error, not a warning and a wrong number
            with pytest.raises(ValueError, match="out of range"):
                aber_wsc2(ClosedFormContext.from_db(db))
        with pytest.raises(ValueError, match="out of range"):
            aber_wsc2(ClosedFormContext(1.0, 1.0, 1.1e12))
        with pytest.warns(RuntimeWarning, match="outside its checked range"):
            aber_wsc2(ClosedFormContext(1.0, 1.0, 1e12))

    @pytest.mark.parametrize("gbars", [(10.0, 1e-307, 10.0), (10.0, 1e-310, 10.0)])
    def test_non_finite_result_is_value_error(self, gbars):
        # phi = gbar2/gbar1 is 1e308 and inf: the E1 arguments overflow and the sum is nan.
        with pytest.raises(ValueError, match=r"aber_wsc2 at gamma_bar = \(10, 1e-3\d\d, 10\) is not finite"):
            aber_wsc2(ClosedFormContext(*gbars))
        assert SCHEMES[SchemeId.WSC2].closed_form(1.0, ClosedFormContext(*gbars)) is None

    def test_warning_names_the_first_caller_outside_the_package(self):
        # Not the package line that passed the call on (the WSC2 lambda of
        # the scheme table, or the CLI's analytic column).
        ctx = ClosedFormContext.from_db(100.0)
        argv = ["sweep-snr", "--snr-db", "100", "--schemes", "wsc2", "--blocks", "2", "--block-len", "4",
                "--min-errors", "0"]
        for call in (lambda: aber_wsc2(ctx),
                     lambda: SCHEMES[SchemeId.WSC2].closed_form(1.0, ctx),
                     lambda: main(argv)):
            with pytest.warns(RuntimeWarning, match="outside its checked range") as record:
                call()
            assert [w.filename for w in record] == [__file__]


class TestAsymptotic:
    def test_leading_term(self):
        p0 = 1e6
        lead = (1.11 + 0.25 * math.log(p0)) / p0 ** 2
        assert aber_asymptotic_wsc2(p0) / lead == pytest.approx(1.0, abs=0.05)

    def test_close_to_exact_at_35db(self):
        p0 = 10 ** 3.5
        ratio = aber_asymptotic_wsc2(p0) / aber_wsc2(ClosedFormContext(p0, p0, p0))
        assert 0.5 <= ratio <= 2.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            aber_asymptotic_wsc2(0.0)

    def test_overflow_is_value_error(self):
        # p0**8 overflows float64 above about 385 dB.
        assert aber_asymptotic_wsc2(10.0 ** 38) > 0
        with pytest.raises(ValueError, match="overflows float64"):
            aber_asymptotic_wsc2(10.0 ** 40)


def _mp_aber_wsc1(beta, gbars):
    """The printed WSC1 expressions evaluated in mpmath at the working precision."""
    ctx = ClosedFormContext(*(mpmath.mpf(g) for g in gbars))
    beta = mpmath.mpf(beta)
    return sum(num / den for num, den in analysis._wsc1_terms(beta, ctx))


def _mp_aber_wsc2(gbars):
    """The printed WSC2 expressions in mpmath at 60 digits: the x1..x5 Xi terms
    and their a/a2 exponents as printed, each exp(a)*E1(z) taken directly."""
    with mpmath.workdps(60):
        g0, g1, g2 = (mpmath.mpf(g) for g in gbars)
        u0, u1, u2, v0, v2 = 1 + g0, 1 + g1, 1 + g2, 1 + 2 * g0, 1 + 2 * g2
        phi = g2 / g1
        exp_e1 = lambda a_minus_z, z: mpmath.exp(a_minus_z + z) * mpmath.e1(z)

        l1 = phi / (4 * u0 * u2) * (exp_e1(0, phi) - exp_e1(-phi, 2 * phi)
                                    + exp_e1(0, phi / v2) - exp_e1(-phi, 2 * u2 * phi / v2))
        l2 = (3 * u2 - 1) / (8 * u0 * u2 ** 2) * mpmath.exp(-phi)

        def xi(x1, x2, x3, x4, x5):
            a = (x2 - 1 - u1) * phi
            a2 = a + 2 * g0 * phi * x4
            return g2 * x1 * (exp_e1(a - 2 * phi * x3, 2 * phi * x3) - exp_e1(a - phi * x4, phi * x4)
                              - v0 ** 2 * (exp_e1(a2 - v0 * phi * x4, v0 * phi * x4)
                                           - exp_e1(a2 - 2 * u0 * phi * x5, 2 * u0 * phi * x5)))

        elementary = (1 + g1 + g2 - g2 * mpmath.exp(-u1 * phi)
                      - u1 * mpmath.exp(g2 - (1 + u1) * phi + phi)) / (2 * u1 * u2)
        xi_sum = (xi(1, (2 * (1 + u1) * u2 - 1) / v2, u1 * u2 / v2, u1 / v2, u1 * (u0 + u2 - 1) / (u0 * v2))
                  + xi(2, 2 + u1, 1, 1, 1) + xi(-1, 1 + 2 * u1, u1, u1, u1))
        k1 = elementary + xi_sum / (8 * u0 * g1 * u2)

        w = 1 - u0 - u2
        j1 = mpmath.e * (1 - u2) * (u2 + u0 * (1 - 7 * u2 - u0 * (1 - 4 * u2 - 8 * u2 ** 2)))
        j2 = mpmath.exp(u2) * 2 * (3 * u0 - 1) * u1 * w * u2
        k2 = mpmath.exp(-1 - u1 * phi) * (j1 + j2) / (16 * u0 ** 2 * u1 * w * u2 ** 2)
        return l1 + l2 + k1 + k2


def _mp_optimum(gbars, decades=(-15, 10)):
    """Minimum of the 50-digit ABER: a log-grid scan over [1e-15, 1e10] (or the
    given decades), then golden-section search in log beta between the
    neighbours of the best point."""
    with mpmath.workdps(50):
        grid = [mpmath.mpf(10) ** (mpmath.mpf(k) / 10) for k in range(10 * decades[0], 10 * decades[1] + 1)]
        vals = [_mp_aber_wsc1(b, gbars) for b in grid]
        k = min(range(len(vals)), key=vals.__getitem__)
        assert 0 < k < len(grid) - 1, "optimum outside the reference scan"
        a, b = mpmath.log(grid[k - 1]), mpmath.log(grid[k + 1])
        f = lambda x: _mp_aber_wsc1(mpmath.exp(x), gbars)
        invphi = (mpmath.sqrt(5) - 1) / 2
        for _ in range(120):
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            if f(c) < f(d):
                b = d
            else:
                a = c
        return f((a + b) / 2)


class TestOptimizeBeta:
    @pytest.mark.parametrize("gbars", [(100.0, 100.0, 100.0), (1e3, 10.0, 1e5), (0.1, 1e4, 1e4),
                                       (1e8, 1e-3, 1e8), (1e8, 1e8, 1e8),
                                       (1e-9, 10.0, 10.0), (10.0, 10.0, 1e-9)])
    def test_matches_high_precision_optimum(self, gbars):
        ctx = ClosedFormContext(*gbars)
        beta_opt, pe_min = optimize_beta(ctx)
        assert math.isfinite(beta_opt) and beta_opt > 0
        assert pe_min == aber_wsc1(beta_opt, ctx)
        ref = _mp_optimum(gbars)
        assert abs(pe_min - ref) <= 1e-12 * ref
        with mpmath.workdps(50):
            assert _mp_aber_wsc1(beta_opt, gbars) <= ref * (1 + mpmath.mpf("1e-12"))

    @settings(deadline=None)
    @given(st.tuples(*[st.floats(min_value=-3.0, max_value=8.0)] * 3))
    def test_no_lower_value_on_dense_grid_or_limits(self, log_gbars):
        ctx = ClosedFormContext(*(10.0 ** g for g in log_gbars))
        _, pe_min = optimize_beta(ctx)
        grid = [aber_wsc1(b, ctx) for b in np.logspace(-12, 6, 1801)]
        limits = [1 / (2 * ctx.u0), (ctx.gbar2 + ctx.u1) / (2 * ctx.u1 * ctx.u2)]
        assert pe_min <= min(grid + limits) * (1 + 1e-12)

    @pytest.mark.parametrize("gbars", [(10.0, 10.0, 0.0), (10.0, 0.0, 10.0), (0.0, 10.0, 10.0),
                                       (0.0, 0.0, 0.0)])
    def test_dead_link_has_no_finite_optimum(self, gbars):
        with pytest.raises(ValueError, match="no finite optimal WSC1 weight .*: a link is dead"):
            optimize_beta(ClosedFormContext(*gbars))

    def test_optimum_lost_to_rounding_says_so(self):
        # Every link is live, so a finite optimum exists, but the ABER is flat
        # to far below float precision and the root of N'D - ND' is rounded away.
        ctx = ClosedFormContext(4.47e4, 3.74e-10, 3.23e-10)
        with pytest.raises(ValueError, match="lost to rounding .*: every link is live") as info:
            optimize_beta(ctx)
        assert "no finite optimal" not in str(info.value)
        limit = 1 / (2 * ctx.u0)
        assert aber_wsc1(1e-3, ctx) == pytest.approx(limit, rel=1e-6)

    @pytest.mark.parametrize("db", range(366, 379))
    def test_matches_high_precision_optimum_at_extreme_snr(self, db):
        # From 368 dB the roots of N'D - ND' alone lose or blur the optimum,
        # beta* ~ 1/sqrt(2 gbar) ~ 1e-19: 368, 370 and 371 dB gave beta ~ 2e15, 376 dB
        # beta = 2, 377 dB an ABER 10% high, and 369, 372, 374 and 378 dB raised.
        ctx = ClosedFormContext.from_db(db)
        beta_opt, pe_min = optimize_beta(ctx)
        assert beta_opt == pytest.approx(1 / math.sqrt(2 * ctx.gbar0), rel=1e-6)
        ref = _mp_optimum((ctx.gbar0, ctx.gbar1, ctx.gbar2), decades=(-21, -17))
        assert abs(pe_min - ref) <= 1e-12 * ref

    def test_optimum_or_value_error_above_1e15(self):
        # Huge or very unequal gbar: each result is the 50-digit optimum to 1e-12, or
        # a ValueError where the ABER is flat to float precision.
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 6:
            gbars = tuple(float(g) for g in 10.0 ** rng.uniform(-3, 37, size=3))
            if max(gbars) < 1e15:
                continue
            try:
                beta_opt, pe_min = optimize_beta(ClosedFormContext(*gbars))
            except ValueError as exc:
                assert "lost to rounding" in str(exc)
                continue
            ref = _mp_optimum(gbars, decades=(-45, 25))
            assert abs(pe_min - ref) <= 1e-12 * ref, gbars
            checked += 1

    @pytest.mark.parametrize("db", [400.0, 3000.0])
    def test_overflowing_polynomial_says_so_without_warning(self, db):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"WSC1 ABER polynomial overflows float64 at gamma_bar = "
                                                 r"\(1e\+\d+, .*give a fixed beta"):
                optimize_beta(ClosedFormContext.from_db(db))
            # 370 dB still has a finite optimum.
            assert optimize_beta(ClosedFormContext.from_db(370.0))[0] > 0

    def test_coefficients_equal_polynomial_objects(self):
        # optimize_beta builds N'D - ND' on plain coefficient arrays; they must be
        # the coefficients numpy's Polynomial builds from the same _i1 and _i2, to
        # the bit, and so must their roots.
        b = Polynomial([0.0, 1.0])
        rng = np.random.default_rng(28)
        for gbars in 10.0 ** rng.uniform(-3.0, 8.0, size=(250, 3)):
            ctx = ClosedFormContext(*gbars.tolist())
            u1, u2, v0, v2 = ctx.u1, ctx.u2, ctx.v0, ctx.v2
            n = u1 * (u2 + v2 * b) * (v0 + b) * (v0 + v2 * b) + b * (analysis._i1(b, ctx) + analysis._i2(b, ctx))
            d = (1.0 + b) * (1.0 + v2 * b) * (v0 + b) * (v0 + v2 * b)
            reference = n.deriv() * d - n * d.deriv()
            got = analysis._wsc1_stationary(ctx)
            assert np.array_equal(got, reference.coef), gbars
            assert np.array_equal(P.polyroots(got), reference.roots()), gbars

    def test_never_worse_than_sc(self):
        for db in (0, 10, 20, 30):
            ctx = ClosedFormContext.from_db(db)
            beta_opt, pe_min = optimize_beta(ctx)
            assert pe_min <= aber_wsc1(1.0, ctx) + 1e-15
            assert pe_min == pytest.approx(aber_wsc1(beta_opt, ctx))

    def test_matches_fine_grid(self):
        ctx = ClosedFormContext.from_db(20.0)
        beta_opt, _ = optimize_beta(ctx)
        grid = np.logspace(-4, np.log10(4.0), 20_000)
        brute = grid[np.argmin([aber_wsc1(b, ctx) for b in grid])]
        assert beta_opt == pytest.approx(brute, rel=1e-3)

