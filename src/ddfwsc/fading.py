"""Seeded Rayleigh block-fading gains and complex Gaussian noise.

Stream contract: every fading block has its own counter-based Philox
stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).  Block ``b`` of seed ``seed`` uses the Philox key
``SeedSequence((seed, b)).generate_state(2, np.uint64)`` with counter 0;
``derive_stream`` is the definition.  From that stream a block draws, in
this order:

1. two standard normals, real part then imaginary part, for each of the
   links S-D, S-R, R-D whose variance is nonzero, scaled afterwards by
   sqrt(sigma_i^2 / 2); a zero-variance link draws nothing and its gain is 0;
2. ``random(L)``, whose entries below 0.5 are the -1 data bits;
3. ``standard_normal((3, L + 1, 2))``, the real and imaginary parts of the
   S-D, S-R and R-D noise, scaled afterwards by sqrt(1/2).

A (seed, block) pair therefore always yields the same block, however
blocks are scheduled across workers or grouped into chunks.  ``stream_keys``
computes many blocks' keys at once with a vectorized transcription of
numpy's SeedSequence hash, and ``sample_blocks`` draws a chunk of blocks
from one reused generator reset to each block's key; both give exactly
the numbers of ``derive_stream``.  ``sample_blocks`` can write into
caller-owned arrays (``out``), so the simulator's chunk kernel draws every
chunk into the same per-thread buffers instead of fresh ones.
``sample_fading_block`` transcribes step 1 for one block and is the
reference the batched draws are checked against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_stream",
    "stream_keys",
    "sample_fading_block",
    "sample_block",
    "sample_blocks",
]

# numpy.random.SeedSequence's hash (pool size 4), as uint32 arithmetic.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The constant each of n successive hashes XORs in and the one it multiplies by."""
    seq = [init]
    for _ in range(n):
        seq.append(seq[-1] * mult & _MASK32)
    return np.array(seq[:-1], np.uint32)[:, None], np.array(seq[1:], np.uint32)[:, None]


# Entropy mixing makes 4 + 4*3 hashmix calls, output generation 4 more.
_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, _POOL_SIZE)
_OTHERS = [[d for d in range(_POOL_SIZE) if d != s] for s in range(_POOL_SIZE)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def derive_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Return an independent generator for (seed, stream_id).

    The pair is fed to SeedSequence, so the mapping is deterministic and
    independent of the order in which streams are created.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream_id))))


def stream_keys(seed: int, stream_ids) -> np.ndarray:
    """The Philox key of derive_stream(seed, i) for each i, shape (len(stream_ids), 2).

    Row i equals ``SeedSequence((seed, stream_ids[i])).generate_state(2,
    np.uint64)``.  A pair whose entropy fills at most the 4-word pool is
    hashed here for all ids at once (hashing a shorter entropy is the same
    as hashing it zero-padded to 4 words); a longer one goes through
    SeedSequence itself.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    seed_words = _uint32_words(seed)
    n_seed = len(seed_words)
    high = (ids >> np.uint64(32)).astype(np.uint32)
    entropy = np.zeros((_POOL_SIZE, ids.size), dtype=np.uint32)
    entropy[:n_seed] = np.array(seed_words[:_POOL_SIZE], np.uint32)[:, None]
    if n_seed < _POOL_SIZE:
        entropy[n_seed] = ids.astype(np.uint32)
    if n_seed + 1 < _POOL_SIZE:
        entropy[n_seed + 1] = high

    pool = _hashmix(entropy, _MIX_XOR[:_POOL_SIZE], _MIX_MUL[:_POOL_SIZE])
    for src, dst in enumerate(_OTHERS):
        calls = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * src + 3)
        hashed = _hashmix(pool[src], _MIX_XOR[calls], _MIX_MUL[calls])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool, _OUT_XOR, _OUT_MUL).astype(np.uint64)
    keys = np.stack([words[0] | words[1] << np.uint64(32), words[2] | words[3] << np.uint64(32)], axis=1)

    for i in np.flatnonzero(n_seed + 1 + (high > 0) > _POOL_SIZE):
        keys[i] = np.random.SeedSequence((seed, int(ids[i]))).generate_state(2, np.uint64)
    return keys


def sample_fading_block(rng: np.random.Generator, sigma_sq) -> tuple[complex, complex, complex]:
    """Draw one (h0, h1, h2) fading triple by step 1 of the stream contract.

    Each live link takes two standard normals, real part then imaginary
    part, scaled by sqrt(sigma_i^2 / 2); a zero-variance link draws nothing.
    """
    gains = []
    for s in sigma_sq:
        re, im = np.sqrt(s / 2.0) * rng.standard_normal(2) if s > 0 else (0.0, 0.0)
        gains.append(complex(re, im))
    return tuple(gains)


def _live_links(sigma_sq) -> list[int]:
    if min(sigma_sq) < 0:
        raise ValueError(f"variance must be >= 0, got {min(sigma_sq)}")
    return [i for i, s in enumerate(sigma_sq) if s > 0]


def _empty_draws(count: int, block_len: int):
    """Fresh (h, bit uniforms, noise normals) arrays for count blocks."""
    return (np.empty((count, 3), dtype=complex), np.empty((count, block_len)),
            np.empty((count, 3, block_len + 1, 2)))


def _draw(rng: np.random.Generator, fading: np.ndarray, bits: np.ndarray, noise: np.ndarray) -> None:
    """One block's draws, in the order of the stream contract (an empty fading draws nothing)."""
    rng.standard_normal(out=fading)
    rng.random(out=bits)
    rng.standard_normal(out=noise)


def _gains(live, fading: np.ndarray, sigma_sq, h: np.ndarray) -> np.ndarray:
    """Scale the fading normals to gains in h, shape (count, 3); zero-variance links are 0."""
    h[...] = 0
    scale = np.sqrt(np.asarray(sigma_sq, dtype=float)[live] / 2.0)
    h.real[:, live] = scale * fading[..., 0]
    h.imag[:, live] = scale * fading[..., 1]
    return h


def sample_block(rng: np.random.Generator, sigma_sq, block_len: int):
    """Draw one block from rng where it stands: (h (1, 3), uniforms (1, L), noise normals (1, 3, L+1, 2))."""
    live = _live_links(sigma_sq)
    h, bits, noise = _empty_draws(1, block_len)
    fading = np.empty((1, len(live), 2))
    _draw(rng, fading[0], bits[0], noise[0])
    return _gains(live, fading, sigma_sq, h), bits, noise


def sample_blocks(seed: int, stream_ids, sigma_sq, block_len: int, out=None):
    """Draw blocks stream_ids of seed, each exactly as derive_stream(seed, b) would.

    One Philox generator is reset to each block's (key, counter 0) through
    its public state before that block's draws.  Returns the gains
    (count, 3), the bit uniforms (count, L) and the unscaled noise normals
    (count, 3, L+1, 2); with ``out``, a tuple of three C-contiguous arrays
    of those shapes and dtypes (complex, float, float), the draws are
    written there and ``out`` is returned.
    """
    keys = stream_keys(seed, stream_ids)
    live = _live_links(sigma_sq)
    h, bits, noise = out if out is not None else _empty_draws(len(keys), block_len)
    fading = np.empty((len(keys), len(live), 2))
    rng = np.random.Generator(np.random.Philox(key=0))
    philox = rng.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    for block_key, f, b, n in zip(keys.tolist(), fading, bits, noise):
        key[:] = block_key
        philox.state = state
        _draw(rng, f, b, n)
    return _gains(live, fading, sigma_sq, h), bits, noise
