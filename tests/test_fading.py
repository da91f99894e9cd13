import numpy as np
import pytest
from scipy import stats

from ddfwsc.fading import _DrawBuffers, derive_stream, sample_blocks, sample_fading_block, stream_keys

# The distribution checks run on the gains of the batched draw path that
# the simulator uses: blocks 0..10^6-1 of one seed at L = 1, drawn once
# (in pieces, so the noise normals never all sit in memory at once).
_SIGMA_SQ = (1.0, 1.0, 4.0)


@pytest.fixture(scope="module")
def gains():
    ids = np.arange(10 ** 6).reshape(16, -1)
    return np.concatenate([sample_blocks(7, part, _SIGMA_SQ, 1)[0] for part in ids]).T


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
    # contract order: 2 normals per live link, random(L), the noise normals,
    # finished bit for bit as the contract says: a bit is uniform >= 0.5,
    # the noise the normals scaled by sqrt(1/2), read as complex.
    sigma_sq, L = (2.0, 0.0, 0.5), 3
    h, bits, noise = sample_blocks(4, [7, 8], sigma_sq, L)
    assert bits.dtype == bool and noise.shape == (2, 3, L + 1)
    for row, b in enumerate((7, 8)):
        rng = derive_stream(4, b)
        h0, h1, h2 = sample_fading_block(rng, sigma_sq)
        assert h[row].tolist() == [h0, h1, h2]
        assert np.array_equal(bits[row], rng.random(L) >= 0.5)
        expected = (rng.standard_normal((3, L + 1, 2)) * np.sqrt(0.5)).view(complex)[..., 0]
        assert np.array_equal(noise[row], expected)


def test_sample_blocks_out_holds_at_least_count_blocks_of_block_len():
    # A larger buffer is filled in its leading rows, over the stale draws of
    # an earlier, longer call, exactly as fresh arrays would be; a buffer with
    # too few blocks or another block length is refused.
    sigma_sq, L = (2.0, 0.0, 0.5), 3
    out = _DrawBuffers(5, L)
    sample_blocks(1, np.arange(5), sigma_sq, L, out=out)
    fresh = sample_blocks(4, [7, 8], sigma_sq, L)
    got = sample_blocks(4, [7, 8], sigma_sq, L, out=out)
    for a, b in zip(got, fresh):
        assert a.shape == b.shape and np.array_equal(a, b)
    for bad in (_DrawBuffers(1, L), _DrawBuffers(5, L - 1), _DrawBuffers(5, L + 1)):
        with pytest.raises(ValueError, match="out holds"):
            sample_blocks(4, [7, 8], sigma_sq, L, out=bad)


def test_zero_variance_degenerates():
    h, _, _ = sample_blocks(0, np.arange(1000), (0.0, 1.0, 0.0), 1)
    assert np.all(h[:, [0, 2]] == 0)
    assert np.all(h[:, 1] != 0)


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        sample_blocks(0, [0], (-1.0, 1.0, 1.0), 1)


def test_unit_variance_energy(gains):
    assert np.mean(np.abs(gains[0]) ** 2) == pytest.approx(1.0, abs=0.01)


def test_component_variance(gains):
    h2 = gains[2]
    assert np.var(h2.real) == pytest.approx(2.0, abs=0.02)
    assert np.var(h2.imag) == pytest.approx(2.0, abs=0.02)


def test_fading_block_zero_variances():
    assert sample_fading_block(derive_stream(0, 0), (0, 0, 0)) == (0j, 0j, 0j)


def test_fading_block_unit_mean_power_and_independence(gains):
    p0, p1 = np.abs(gains[0]) ** 2, np.abs(gains[1]) ** 2
    assert np.mean(p0) == pytest.approx(1.0, abs=0.01)
    assert np.mean(p1) == pytest.approx(1.0, abs=0.01)
    corr = np.corrcoef(p0, p1)[0, 1]
    assert abs(corr) < 0.01


def test_power_is_exponential_ks(gains):
    power = np.abs(gains[2]) ** 2
    ks = stats.kstest(power, "expon", args=(0, _SIGMA_SQ[2])).statistic
    # 1% critical value of the KS statistic for n = 1e6.
    assert ks < 1.63 / np.sqrt(power.size)


def test_component_normality_moments(gains):
    for part in (gains[0].real, gains[0].imag):
        assert abs(stats.skew(part)) < 0.02
        assert abs(stats.kurtosis(part)) < 0.05
