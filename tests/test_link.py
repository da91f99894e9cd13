from dataclasses import fields, replace

import numpy as np
import pytest

from ddfwsc.analysis import ClosedFormContext, cdf_xi0
from ddfwsc.combiners import lar_bits, wsc_bits
from ddfwsc.fading import sample_blocks
from ddfwsc.link import (
    SystemParams,
    _LinkBuffers,
    decision_variables,
    diff_encode,
    estimate_relay_snr,
    relay_detect,
    simulate_block,
    simulate_blocks,
)


class TestDiffEncode:
    def test_direct_recursion(self):
        out = diff_encode(np.array([True, False, False]))
        assert out.tolist() == [1, 1, -1, 1]
        # One block per row.
        assert diff_encode(np.array([[True, False, False], [False, True, False]])).tolist() == [
            [1, 1, -1, 1], [1, -1, -1, 1]]

    def test_all_ones_identity(self):
        out = diff_encode(np.ones(5, dtype=bool))
        assert out.tolist() == [1] * 6

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        bits = rng.random(100) > 0.5
        s = diff_encode(bits)
        decoded = relay_detect(s.astype(complex))
        assert np.array_equal(decoded, bits)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diff_encode(np.array([], dtype=bool))


class TestDecisionVariable:
    def test_aligned(self):
        assert decision_variables(np.array([1 + 0j, 1 + 0j])).tolist() == [1.0]

    def test_orthogonal(self):
        assert decision_variables(np.array([1 + 0j, 1j])).tolist() == [0.0]

    def test_arithmetic(self):
        # Consecutive pairs: (1-1j after 1j), then (2+1j after 1-1j).
        y = np.array([1j, 1 - 1j, 2 + 1j])
        assert decision_variables(y).tolist() == pytest.approx([-1.0, 1.0])


class TestRelayDetect:
    def test_noiseless(self):
        s = diff_encode(np.array([False, True])).astype(complex)
        assert relay_detect(s).tolist() == [False, True]

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            relay_detect(np.array([1 + 0j]))

    def test_rayleigh_dbpsk_ber(self):
        # Relay BER over Rayleigh fading must match 1/(2(1+gbar1)).
        # Small blocks keep the fading-induced clustering negligible.
        gbar1 = 10.0
        rng = np.random.default_rng(123)
        L, blocks = 16, 62_500
        h = np.sqrt(0.5) * (rng.standard_normal((blocks, 1)) + 1j * rng.standard_normal((blocks, 1)))
        bits = rng.random((blocks, L)) > 0.5
        s = diff_encode(bits)
        n = np.sqrt(0.5) * (rng.standard_normal((blocks, L + 1)) + 1j * rng.standard_normal((blocks, L + 1)))
        y = np.sqrt(gbar1) * h * s + n
        ber = np.mean(relay_detect(y) != bits)
        assert ber == pytest.approx(1 / (2 * (1 + gbar1)), abs=0.002)


class TestBitType:
    def test_same_booleans_with_and_without_out(self):
        # Every decision helper returns one type, True for +1, whether or not it gets a destination.
        rng = np.random.default_rng(9)
        y = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        xi0, xi2 = rng.normal(size=(2, 4, 8))
        beta = rng.uniform(size=(4, 1))
        calls = [(relay_detect, (y,), {"work": np.empty((4, 8), dtype=complex)}),
                 (wsc_bits, (xi0, xi2, beta), {"work": (np.empty((4, 8)), np.empty((4, 8)))}),
                 (lar_bits, (xi0, xi2), {"work": np.empty((4, 8))})]
        for fn, args, work in calls:
            fresh = fn(*args)
            out = np.empty((4, 8), dtype=bool)
            assert fresh.dtype == bool
            assert fn(*args, out=out, **work) is out
            assert np.array_equal(out, fresh)

    def test_diff_encode_rejects_non_boolean_bits(self):
        # A +/-1 integer input would otherwise encode -1 as True.
        for bits in (np.array([1, -1, -1]), np.array([1.0, -1.0]), np.array([0, 1])):
            with pytest.raises(ValueError, match="boolean"):
                diff_encode(bits)


class TestEstimateRelaySnr:
    def test_all_zero_clamps(self):
        assert estimate_relay_snr(np.zeros(10, dtype=complex)) == 0.0

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_last_axis_rejected(self, shape):
        with pytest.raises(ValueError, match="at least 1 received symbol"):
            estimate_relay_snr(np.zeros(shape, dtype=complex))

    def test_noiseless_bias(self):
        # With P0|h1|^2 = 3 and no noise the estimator reads 3 - 1 = 2:
        # the noise-floor subtraction biases the clean-signal case.
        y = np.sqrt(3.0) * np.ones(257, dtype=complex)
        assert estimate_relay_snr(y) == pytest.approx(2.0)
        # One estimate per row, each the one-block value.
        rows = np.stack([y, np.zeros(257, dtype=complex)])
        assert estimate_relay_snr(rows).tolist() == [estimate_relay_snr(y), 0.0]

    def test_unbiased_mean(self):
        rng = np.random.default_rng(5)
        gamma1, L, trials = 5.0, 256, 10_000
        s = np.ones(L + 1)
        ests = np.empty(trials)
        for t in range(trials):
            n = np.sqrt(0.5) * (rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1))
            ests[t] = estimate_relay_snr(np.sqrt(gamma1) * s + n)
        assert np.mean(ests) == pytest.approx(5.0, abs=0.05)

    def test_std_shrinks_with_block_length(self):
        rng = np.random.default_rng(6)
        stds = []
        for L in (64, 256, 1024):
            s = np.ones(L + 1)
            ests = [
                estimate_relay_snr(
                    np.sqrt(5.0) * s
                    + np.sqrt(0.5) * (rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1))
                )
                for _ in range(2000)
            ]
            stds.append(np.std(ests))
        # std should scale roughly like 1/sqrt(L): each 4x in L halves it.
        assert stds[0] / stds[1] == pytest.approx(2.0, rel=0.25)
        assert stds[1] / stds[2] == pytest.approx(2.0, rel=0.25)


class TestSimulateBlock:
    def test_dead_relay_channel(self):
        params = SystemParams(p0_over_n0_db=10.0, sigma_sq=(1.0, 0.0, 1.0))
        obs = simulate_block(params, 1, 0)
        # Relay sees pure noise; its decisions cannot track the data.
        mismatches = np.count_nonzero(obs.relay_bits != obs.tx_bits)
        assert 0 < mismatches < obs.tx_bits.size

    def test_noiseless_limit(self):
        params = SystemParams(p0_over_n0_db=80.0)
        obs = simulate_block(params, 2, 0)
        assert np.array_equal(obs.relay_bits, obs.tx_bits)
        assert np.array_equal(obs.xi0 > 0, obs.tx_bits)

    def test_high_relay_snr_forwards_faithfully(self):
        params = SystemParams(p0_over_n0_db=10.0, sigma_sq=(1.0, 10 ** 5, 1.0))
        errs = bits = 0
        for b in range(40):
            obs = simulate_block(params, 3, b)
            errs += np.count_nonzero(obs.relay_bits != obs.tx_bits)
            bits += obs.tx_bits.size
        assert errs / bits < 1e-4

    def test_gamma1_exact_definition(self):
        # exact: P0|h1|^2 of the block's own S-R gain; estimated: the
        # received-energy estimate of that same SNR, within a few of its
        # standard deviations sqrt((2 gamma1 + 1) / (L + 1)).
        exact = SystemParams(p0_over_n0_db=13.0)
        h1 = sample_blocks(4, [7], exact.sigma_sq, exact.block_len)[0][0, 1]
        gamma1 = simulate_block(exact, 4, 7).gamma1
        assert gamma1 == pytest.approx(exact.p0 * abs(h1) ** 2, rel=1e-14)
        estimated = replace(exact, snr_mode="estimated")
        est = simulate_block(estimated, 4, 7).gamma1
        assert est >= 0
        assert est == pytest.approx(gamma1, abs=5 * np.sqrt((2 * gamma1 + 1) / (exact.block_len + 1)))

    def test_xi0_matches_analytic_cdf(self):
        # Empirical CDF of the direct-link decision variable, conditioned
        # on d(k) = +1, against the closed-form CDF at gbar0 = 5.
        # Short blocks: the sup-distance noise floor scales with the number
        # of independent fading draws, not the number of bits.
        params = SystemParams(p0_over_n0_db=10 * np.log10(5.0), block_len=4)
        # Blocks 0..39999 of seed 42, the same blocks simulate_block would
        # give one by one, drawn and simulated all at once.
        obs = simulate_blocks(params, *sample_blocks(42, np.arange(40_000), params.sigma_sq, 4))
        x = np.sort(np.where(obs.tx_bits, obs.xi0, -obs.xi0).ravel())
        ctx = ClosedFormContext(5.0, 5.0, 5.0)
        emp = np.arange(1, x.size + 1) / x.size
        sup = np.max(np.abs(emp - cdf_xi0(x, ctx)))
        assert sup < 0.01

    def test_reused_out_matches_fresh_and_leaves_draws_unchanged(self):
        # One _LinkBuffers set serves batch after batch with the observables
        # of a fresh call, and neither call writes the draws it is given.
        for mode in ("exact", "estimated"):
            params = SystemParams(p0_over_n0_db=7.0, block_len=5, snr_mode=mode)
            out = _LinkBuffers(3, params.block_len)
            for seed in (1, 2):
                draws = sample_blocks(seed, np.arange(3), params.sigma_sq, params.block_len)
                before = [a.copy() for a in draws]
                fresh = simulate_blocks(params, *draws)
                reused = simulate_blocks(params, *draws, out=out)
                for f in fields(fresh):
                    assert np.array_equal(getattr(reused, f.name), getattr(fresh, f.name)), f.name
                for a, b in zip(draws, before):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_larger_out_uses_its_leading_rows(self):
        # A _LinkBuffers set of more blocks than the batch, holding an earlier
        # batch's arrays, gives the observables of a fresh call in its leading rows.
        for mode in ("exact", "estimated"):
            params = SystemParams(p0_over_n0_db=7.0, block_len=5, snr_mode=mode)
            out = _LinkBuffers(7, params.block_len)
            simulate_blocks(params, *sample_blocks(1, np.arange(7), params.sigma_sq, 5), out=out)
            draws = sample_blocks(2, np.arange(3), params.sigma_sq, 5)
            fresh = simulate_blocks(params, *draws)
            reused = simulate_blocks(params, *draws, out=out)
            for f in fields(fresh):
                got, want = np.asarray(getattr(reused, f.name)), np.asarray(getattr(fresh, f.name))
                assert got.shape == want.shape and np.array_equal(got, want), f.name

    def test_lar_equals_relay_branch_when_beta_one(self):
        # Huge gamma1 saturates the LAR factor at 1, so the LAR branch must
        # reuse the relay-link observables bit for bit.
        params = SystemParams(p0_over_n0_db=10.0, sigma_sq=(1.0, 10 ** 5, 1.0))
        obs = simulate_block(params, 8, 1)
        assert obs.gamma1 >= params.gamma_bars[2]
        assert np.array_equal(obs.xiL, obs.xi2)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SystemParams(p0_over_n0_db=0.0, block_len=0)
        with pytest.raises(ValueError):
            SystemParams(p0_over_n0_db=0.0, sigma_sq=(-1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            SystemParams(p0_over_n0_db=0.0, snr_mode="guess")
        for db in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                SystemParams(p0_over_n0_db=db)
        for bad in (float("nan"), float("inf")):
            for i in range(3):
                sigma_sq = [1.0, 1.0, 1.0]
                sigma_sq[i] = bad
                with pytest.raises(ValueError):
                    SystemParams(p0_over_n0_db=0.0, sigma_sq=tuple(sigma_sq))
