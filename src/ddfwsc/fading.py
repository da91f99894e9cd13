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
numpy's SeedSequence hash, and ``sample_blocks``, the one draw path (one
block is stream_ids ``[b]``), draws from one reused generator reset to
each block's key; both give exactly the numbers of ``derive_stream``.
``sample_blocks`` can write into caller-owned draw buffers (``out``, a
``_DrawBuffers``), so the simulator's chunk kernel draws every chunk into
the same per-thread buffers instead of fresh ones.  Those buffers also keep
the generator, its reset state and every block's row views from one chunk
to the next, so the per-block loop only sets the key, resets the state
and makes its three draws: numpy's per-call cost is then most of what is
left (about 5.5 of 6.5 us a block at L = 4 on a 2-vCPU host).
``sample_fading_block`` transcribes step 1 for one block and is the
reference the batched draws are checked against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_stream",
    "stream_keys",
    "sample_fading_block",
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


class _DrawBuffers:
    """Draw arrays for count blocks of block_len bits, refilled by every sample_blocks call.

    Besides the gains h (count, 3), the bit uniforms (count, L) and the
    noise normals (count, 3, L+1, 2), it holds what the per-block loop would
    otherwise rebuild on every call: the fading normals (count, live links,
    2), one Philox generator with the state dict that resets it, and each
    block's (fading, bits, noise) row views.  The fading normals and the
    rows are made for one live-link count and remade when it changes.
    """

    def __init__(self, count: int, block_len: int) -> None:
        self.h = np.empty((count, 3), dtype=complex)
        self.bits = np.empty((count, block_len))
        self.noise = np.empty((count, 3, block_len + 1, 2))
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.fading = None
        self.rows = []

    def rows_for(self, n_live: int) -> list:
        """The per-block (fading, bits, noise) views, with n_live links' fading normals."""
        if self.fading is None or self.fading.shape[1] != n_live:
            self.fading = np.empty((len(self.h), n_live, 2))
            self.rows = list(zip(self.fading, self.bits, self.noise))
        return self.rows


def _gains(live, fading: np.ndarray, sigma_sq, h: np.ndarray) -> np.ndarray:
    """Scale the fading normals to gains in h, shape (count, 3); zero-variance links are 0."""
    h[...] = 0
    scale = np.sqrt(np.asarray(sigma_sq, dtype=float)[live] / 2.0)
    h.real[:, live] = scale * fading[..., 0]
    h.imag[:, live] = scale * fading[..., 1]
    return h


def sample_blocks(seed: int, stream_ids, sigma_sq, block_len: int, out: _DrawBuffers | None = None):
    """Draw blocks stream_ids of seed, each exactly as derive_stream(seed, b) would.

    One Philox generator is reset to each block's (key, counter 0) through
    its public state before that block's three draws, made straight into
    the block's prebuilt rows.  Returns the gains (count, 3), the bit
    uniforms (count, L) and the unscaled noise normals (count, 3, L+1, 2),
    all arrays of the draw buffers: fresh ones, or ``out``, a
    ``_DrawBuffers`` of exactly count blocks of block_len bits that the
    caller keeps from one call to the next.
    """
    keys = stream_keys(seed, stream_ids)
    live = _live_links(sigma_sq)
    buf = _DrawBuffers(len(keys), block_len) if out is None else out
    if buf.bits.shape != (len(keys), block_len):
        raise ValueError(f"out holds {buf.bits.shape} blocks x bits, not {(len(keys), block_len)}")
    rows = buf.rows_for(len(live))
    rng, state = buf.rng, buf.state
    philox, key = rng.bit_generator, state["state"]["key"]
    normal, uniform = rng.standard_normal, rng.random
    for block_key, (fading, bits, noise) in zip(keys.tolist(), rows):
        key[:] = block_key
        philox.state = state
        normal(out=fading)
        uniform(out=bits)
        normal(out=noise)
    return _gains(live, buf.fading, sigma_sq, buf.h), buf.bits, buf.noise
