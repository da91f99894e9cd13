import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddfwsc.analysis import ClosedFormContext, aber_wsc1, aber_wsc2
from ddfwsc.combiners import SCHEMES, SchemeId, beta_wsc2, lar_bits, wsc_bits
from ddfwsc.link import SystemParams, simulate_block

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def wsc(xi0, xi2, beta):
    """One weighted-selection decision through the block rule."""
    return bool(wsc_bits(np.array([xi0]), np.array([xi2]), beta)[0])


class TestCombineWsc:
    def test_relay_selected(self):
        # beta*|xi2| = 1.5 beats |xi0| = 1, so the relay's sign decides.
        assert wsc(1.0, -3.0, 0.5) is False

    def test_beta_one_is_sc(self):
        assert SCHEMES[SchemeId.SC].weight(0.3, 0.7) == 1.0
        assert wsc(-2.0, 1.0, 1.0) is False
        assert wsc(1.0, -2.0, 1.0) is False

    def test_small_beta_prefers_direct(self):
        assert wsc(1.0, -5.0, 1e-9) is True

    def test_tie_goes_to_direct(self):
        assert wsc(2.0, -2.0, 1.0) is True
        assert wsc(-1.0, 4.0, 0.25) is False

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            wsc_bits(np.ones(3), np.ones(3), -0.5)
        with pytest.raises(ValueError):
            wsc_bits(np.ones((2, 3)), np.ones((2, 3)), np.array([[0.5], [-0.5]]))

    def test_per_block_beta_array(self):
        rng = np.random.default_rng(4)
        xi0, xi2 = rng.normal(size=(2, 6, 5))
        beta = np.array([0.0, 0.3, 1.0, 2.5, 0.3, 1e-9])
        rows = [wsc_bits(xi0[i], xi2[i], float(b)) for i, b in enumerate(beta)]
        assert np.array_equal(wsc_bits(xi0, xi2, beta[:, None]), rows)

    @given(finite, finite)
    def test_sc_equals_wsc_at_unit_weight(self, xi0, xi2):
        # SC picks the larger-magnitude branch, the direct one on a tie.
        expected = xi0 if abs(xi0) >= abs(xi2) else xi2
        assert wsc(xi0, xi2, 1.0) is (expected >= 0)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=16),
           st.floats(min_value=0.0, max_value=10), st.integers(min_value=0, max_value=8))
    def test_scale_invariance(self, pairs, beta, k):
        # Scaling up by a power of two is exact, even for subnormals, so ties stay ties.
        xi0, xi2 = np.array(pairs).T
        c = 2.0 ** k
        assert np.array_equal(wsc_bits(xi0, xi2, beta), wsc_bits(c * xi0, c * xi2, beta))


class TestAdaptiveWeight:
    def test_linear_branch(self):
        assert beta_wsc2(2.0, 4.0) == 0.5

    def test_saturation(self):
        assert beta_wsc2(7.0, 4.0) == 1.0

    def test_zero_relay_snr(self):
        assert beta_wsc2(0.0, 4.0) == 0.0

    def test_dead_relay_link(self):
        # gamma_bar2 = 0: weight 0 for every block, in gamma1's shape.
        assert beta_wsc2(2.0, 0.0) == 0.0 and np.shape(beta_wsc2(2.0, 0.0)) == ()
        zeros = beta_wsc2(np.array([[0.0, 3.0, 1e300]]), 0.0)
        assert zeros.shape == (1, 3) and zeros.dtype == float and not zeros.any()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            beta_wsc2(1.0, -1.0)
        with pytest.raises(ValueError):
            beta_wsc2(-1.0, 4.0)
        with pytest.raises(ValueError):
            beta_wsc2(np.array([1.0, -1.0]), 4.0)

    def test_monotone_and_bounded(self):
        gammas = np.linspace(0, 12, 200)
        vals = [beta_wsc2(g, 3.0) for g in gammas]
        assert all(0 <= v <= 1 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert np.array_equal(beta_wsc2(gammas, 3.0), vals)


class TestLar:
    def test_power_factor_values(self):
        # The relay power factor is beta_wsc2 of the relay SNR the
        # destination sees, and 0 on a dead relay link.
        gamma1 = {}
        for mode in ("exact", "estimated"):
            params = SystemParams(p0_over_n0_db=10.0, snr_mode=mode)
            obs = simulate_block(params, 5, 2)
            assert obs.beta_adaptive == beta_wsc2(obs.gamma1, params.gamma_bars[2])
            assert SCHEMES[SchemeId.WSC2].weight(0.3, obs.beta_adaptive) == obs.beta_adaptive
            gamma1[mode] = obs.gamma1
        # The same block's gamma1 is the exact SNR in one mode, its estimate in the other.
        assert gamma1["exact"] != gamma1["estimated"]
        dead = SystemParams(p0_over_n0_db=10.0, sigma_sq=(1.0, 1.0, 0.0))
        assert simulate_block(dead, 5, 2).beta_adaptive == 0.0

    def test_combine(self):
        assert lar_bits(np.array([1.0, 0.2, -0.5]), np.array([-0.5, -0.5, 0.5])).tolist() == [True, False, True]


class TestVectorized:
    def test_wsc_bits_zero_beta_is_direct_only(self):
        rng = np.random.default_rng(3)
        xi0 = rng.normal(size=100)
        xi2 = rng.normal(size=100)
        assert np.array_equal(wsc_bits(xi0, xi2, 0.0), xi0 >= 0)


class TestSchemeTable:
    def test_beta_column(self):
        assert [SCHEMES[s].beta_column(0.4) for s in SchemeId] == [1.0, 0.4, None, None]

    def test_closed_forms(self):
        ctx = ClosedFormContext.from_db(10.0)
        assert SCHEMES[SchemeId.SC].closed_form(0.4, ctx) == aber_wsc1(1.0, ctx)
        assert SCHEMES[SchemeId.WSC1].closed_form(0.4, ctx) == aber_wsc1(0.4, ctx)
        assert SCHEMES[SchemeId.WSC2].closed_form(0.4, ctx) == aber_wsc2(ctx)
        assert SCHEMES[SchemeId.LAR].closed_form(0.4, ctx) is None

    def test_degenerate_closed_form_is_none(self):
        ctx = ClosedFormContext(10.0, 0.0, 10.0)
        assert SCHEMES[SchemeId.WSC2].closed_form(1.0, ctx) is None
        with pytest.raises(ValueError, match="gamma_bar_1 must be positive"):
            SCHEMES[SchemeId.WSC2].aber(1.0, ctx)


def test_lar_worse_than_wsc2_high_snr():
    # At 30 dB the relay power cutback inflates the dominant noise term of
    # the differential decision variable, so LAR must lose to WSC2 on
    # paired realizations.
    from ddfwsc.link import SystemParams
    from ddfwsc.simulator import SimConfig, run_simulation

    params = SystemParams(p0_over_n0_db=30.0, block_len=256)
    cfg = SimConfig(params=params, schemes=(SchemeId.WSC2, SchemeId.LAR),
                    max_blocks=30_000, min_errors=100, seed=77)
    results = {r.scheme: r for r in run_simulation(cfg)}
    assert results[SchemeId.LAR].ber > results[SchemeId.WSC2].ber
