import numpy as np
import pytest
from scipy import stats

from ddfwsc.fading import (
    derive_stream,
    sample_blocks,
    sample_complex_gaussian,
    sample_fading_block,
    stream_keys,
)


def test_same_stream_reproduces():
    a = derive_stream(1, 0).random(10)
    b = derive_stream(1, 0).random(10)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = derive_stream(1, 0).random(10)
    b = derive_stream(1, 1).random(10)
    assert not np.array_equal(a, b)


def test_stream_order_independence():
    # Drawing from streams 0..4 first must not affect stream 5.
    for i in range(5):
        derive_stream(1, i).random(100)
    direct = derive_stream(1, 5).random(10)
    fresh = derive_stream(1, 5).random(10)
    assert np.array_equal(direct, fresh)


def test_stream_keys_match_seed_sequence():
    # Seeds and ids on both sides of the 32-bit word boundaries; the last two
    # seeds take 3 and 4 words, so with a 2-word id the entropy overflows the
    # 4-word pool and the keys come from SeedSequence itself.
    ids = [0, 63, 2 ** 32 - 1, 2 ** 32]
    for seed in (0, 2 ** 32 - 1, 2 ** 32, 2 ** 31 - 1 + 10 * 10 ** 9, 2 ** 64 + 5, 2 ** 96 + 1):
        expected = [np.random.SeedSequence((seed, i)).generate_state(2, np.uint64) for i in ids]
        assert np.array_equal(stream_keys(seed, ids), expected)
    with pytest.raises(ValueError):
        stream_keys(-1, ids)


def test_sample_blocks_follow_derive_stream():
    # Each block's draws are those of its own derive_stream generator, in
    # contract order: 2 normals per live link, random(L), the noise normals.
    sigma_sq, L = (2.0, 0.0, 0.5), 3
    h, bits, noise = sample_blocks(4, [7, 8], sigma_sq, L)
    for row, b in enumerate((7, 8)):
        rng = derive_stream(4, b)
        h0, h1, h2 = sample_fading_block(rng, sigma_sq)
        assert h[row].tolist() == [h0, h1, h2]
        assert np.array_equal(bits[row], rng.random(L))
        assert np.array_equal(noise[row], rng.standard_normal((3, L + 1, 2)))


def test_zero_variance_degenerates():
    rng = derive_stream(0, 0)
    assert sample_complex_gaussian(rng, 0.0) == 0j


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        sample_complex_gaussian(derive_stream(0, 0), -1.0)


def test_unit_variance_energy():
    rng = derive_stream(7, 0)
    z = sample_complex_gaussian(rng, 1.0, size=10 ** 6)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)


def test_component_variance():
    rng = derive_stream(8, 0)
    z = sample_complex_gaussian(rng, 4.0, size=10 ** 6)
    assert np.var(z.real) == pytest.approx(2.0, abs=0.02)
    assert np.var(z.imag) == pytest.approx(2.0, abs=0.02)


def test_fading_block_zero_variances():
    assert sample_fading_block(derive_stream(0, 0), (0, 0, 0)) == (0j, 0j, 0j)


def test_fading_block_unit_mean_power_and_independence():
    rng = derive_stream(9, 0)
    n = 10 ** 6
    # Vectorized draw of the h0/h1 marginals keeps this test fast.
    h0 = sample_complex_gaussian(rng, 1.0, size=n)
    h1 = sample_complex_gaussian(rng, 1.0, size=n)
    p0, p1 = np.abs(h0) ** 2, np.abs(h1) ** 2
    assert np.mean(p0) == pytest.approx(1.0, abs=0.01)
    assert np.mean(p1) == pytest.approx(1.0, abs=0.01)
    corr = np.corrcoef(p0, p1)[0, 1]
    assert abs(corr) < 0.01


def test_power_is_exponential_ks():
    rng = derive_stream(11, 3)
    sigma_sq = 2.5
    z = sample_complex_gaussian(rng, sigma_sq, size=10 ** 5)
    ks = stats.kstest(np.abs(z) ** 2, "expon", args=(0, sigma_sq)).statistic
    # 1% critical value of the KS statistic for n = 1e5.
    assert ks < 1.63 / np.sqrt(10 ** 5)


def test_component_normality_moments():
    rng = derive_stream(12, 0)
    z = sample_complex_gaussian(rng, 1.0, size=10 ** 6)
    for part in (z.real, z.imag):
        assert abs(stats.skew(part)) < 0.02
        assert abs(stats.kurtosis(part)) < 0.05
