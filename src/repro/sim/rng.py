"""Deterministic named random-number streams.

Every stochastic decision in the simulator (backoff draws, per-packet fading,
bit-error sampling, topology placement, ...) pulls from a *named* stream so
that adding randomness to one component never perturbs another.  Streams are
derived from a single root seed with ``numpy``'s ``SeedSequence.spawn``-style
keying, so a run is fully determined by ``(root_seed, stream names used)``.

Streams are created on first draw, and are keyed by name alone (a CRC of
the name is the spawn key), so a stream created late yields the same bits
as one created early.  Per-radio ``biterrors.*`` and per-node ``mac.*``
streams are therefore not built at set-up: a radio asks for its stream
when it first locks a frame, a MAC when its first CSMA transaction
starts.  In the 70 ms benchmark run of a 50k-mote scene about 160 of
those 100 000 streams are ever drawn from.

Batched stream creation
-----------------------
Large scenes create one fading stream per audible link — 10^5+ streams whose
construction cost (``SeedSequence`` → ``PCG64`` → ``Generator``, ~20 µs each)
dominates the first transmission of every source.  :meth:`RngStreams.
stream_many` replicates ``SeedSequence``'s entropy-mixing arithmetic directly
(the pool prefix is shared by every stream of one root seed and computed
once; the per-key final round and ``generate_state`` are vectorized over
uint32 arrays) and hands the resulting state words to ``PCG64`` through a
:class:`numpy.random.bit_generator.ISeedSequence` stand-in.  The generators
are **bit-identical** to :meth:`RngStreams.stream`'s (property-tested in
``tests/sim/test_rng.py``), ~7× cheaper to create.
"""

from __future__ import annotations

import sys
import zlib
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["RngStreams"]

# ----------------------------------------------------------------------
# SeedSequence entropy-mixing replica (constants from numpy's
# random/bit_generator.pyx; the equality is pinned by property tests, so
# a numpy that changed its mixing would fail loudly, not silently).
# ----------------------------------------------------------------------
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

try:  # pragma: no cover - import guard exercised only on exotic builds
    from numpy.random.bit_generator import ISeedSequence as _ISeedSequence

    # The fast path reinterprets uint32 state pairs as uint64 via
    # ndarray.view, which assumes little-endian layout.
    _FAST_SEED_OK = sys.byteorder == "little"
except ImportError:  # pragma: no cover
    _ISeedSequence = object
    _FAST_SEED_OK = False


def _entropy_words(value: int) -> List[int]:
    """``value`` as little-endian uint32 words (SeedSequence's coercion)."""
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & _M32)
        value >>= 32
    return words


class _PrecomputedSeed(_ISeedSequence):
    """Duck-typed ``ISeedSequence`` wrapping precomputed state words.

    ``PCG64(seed_seq)`` only ever calls ``generate_state(4, uint64)``;
    serving those words from a plain array skips the whole entropy-mixing
    machinery on the construction hot path.
    """

    def __init__(self, words64: np.ndarray) -> None:
        self._words64 = words64

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        words = self._words64
        if np.dtype(dtype) == np.uint64:
            if n_words <= len(words):
                return words[:n_words]
        elif np.dtype(dtype) == np.uint32:
            words32 = words.view(np.uint32)
            if n_words <= len(words32):
                return words32[:n_words]
        raise ValueError(
            f"_PrecomputedSeed holds {len(words)} uint64 words; "
            f"cannot serve {n_words} x {np.dtype(dtype).name}"
        )


class RngStreams:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed)!r}")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: Shared entropy-pool prefix for the fast path: ``(pool, hash_const)``
        #: after mixing the root seed's words, before the spawn key.
        self._pool_prefix = None

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same generator object within one
        :class:`RngStreams` instance, and to an identically-seeded generator
        across instances built with the same root seed.  This scalar path
        is the *reference* construction; :meth:`stream_many` must match it
        bit for bit.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Key the child seed on a stable hash of the name: independent of
            # creation order and of Python's randomized str hashing.
            name_key = zlib.crc32(name.encode("utf-8"))
            seed_seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(name_key,)
            )
            generator = np.random.Generator(np.random.PCG64(seed_seq))
            self._streams[name] = generator
        return generator

    # ------------------------------------------------------------------
    # Batched creation (the fanout-build hot path)
    # ------------------------------------------------------------------
    def stream_many(self, names: Sequence[str]) -> List[np.random.Generator]:
        """Generators for ``names`` (cached or created), in input order.

        Creation is batched through the vectorized seed derivation; each
        resulting generator draws the exact bit stream :meth:`stream`
        would produce for the same name, and the two paths share one
        cache, so they can be mixed freely.
        """
        streams = self._streams
        missing = [name for name in names if name not in streams]
        if missing:
            if _FAST_SEED_OK:
                keys = np.array(
                    [zlib.crc32(name.encode("utf-8")) for name in missing],
                    dtype=np.uint32,
                )
                words = self._seed_words_batch(keys)
                pcg64 = np.random.PCG64
                generator_cls = np.random.Generator
                for name, row in zip(missing, words):
                    streams[name] = generator_cls(pcg64(_PrecomputedSeed(row)))
            else:  # pragma: no cover - big-endian / no-ISeedSequence builds
                for name in missing:
                    self.stream(name)
        return [streams[name] for name in names]

    def _mix_prefix(self):
        """Entropy pool after the root seed's words, before any spawn key.

        Replicates ``SeedSequence.mix_entropy`` over the assembled entropy
        ``root_words (zero-padded to 4) + [spawn_key]`` for *every* word
        except the trailing spawn key: the pool fill, the pool cross-mix
        and any root words beyond the pool size.  The returned
        ``(pool, hash_const)`` depends only on the root seed, so it is
        computed once and reused for every key.
        """
        prefix = self._pool_prefix
        if prefix is not None:
            return prefix
        words = _entropy_words(self.root_seed)
        if len(words) < _POOL_SIZE:
            # SeedSequence zero-pads the run entropy to the pool size
            # whenever a spawn key is present (ours always is).
            words = words + [0] * (_POOL_SIZE - len(words))
        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value = (value ^ hash_const) & _M32
            hash_const = (hash_const * _MULT_A) & _M32
            value = (value * hash_const) & _M32
            value ^= value >> 16
            return value

        def mix(x: int, y: int) -> int:
            result = ((_MIX_MULT_L * x) - (_MIX_MULT_R * y)) & _M32
            result ^= result >> 16
            return result

        pool = [hashmix(words[i]) for i in range(_POOL_SIZE)]
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for i_src in range(_POOL_SIZE, len(words)):
            # hashmix re-invoked per destination (hash_const advances each
            # time), exactly as SeedSequence.mix_entropy's inner loop does.
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = mix(pool[i_dst], hashmix(words[i_src]))
        prefix = (pool, hash_const)
        self._pool_prefix = prefix
        return prefix

    def _seed_words_batch(self, keys: np.ndarray) -> np.ndarray:
        """PCG64 seed words for each spawn key: shape ``(len(keys), 4)``.

        Equals ``SeedSequence(entropy=root_seed, spawn_key=(key,))
        .generate_state(4, uint64)`` per key, with the per-key final mix
        round and the output hash vectorized over all keys at once.
        """
        pool, hash_const = self._mix_prefix()
        n = len(keys)
        # Final mix round: the spawn key is the last assembled entropy
        # word; each pool word absorbs hashmix(key) via mix().  hash_const
        # advances once per destination word exactly as the scalar loop
        # would (same key hashed 4 times with an evolving constant).
        pool_k = np.empty((n, _POOL_SIZE), dtype=np.uint32)
        for dst in range(_POOL_SIZE):
            value = keys ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_A) & _M32
            value = value * np.uint32(hash_const)
            value ^= value >> np.uint32(16)
            # The x-term of mix() involves only Python ints; wrap it before
            # entering uint32 arithmetic (scalar uint32 products warn on
            # overflow, array ones don't).
            x_term = np.uint32((_MIX_MULT_L * pool[dst]) & _M32)
            result = x_term - np.uint32(_MIX_MULT_R) * value
            result ^= result >> np.uint32(16)
            pool_k[:, dst] = result
        # generate_state(4, uint64): 8 uint32 output words hashed from the
        # pool (cycled), then viewed as little-endian uint64 pairs.
        out_const = _INIT_B
        out32 = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
        for i in range(2 * _POOL_SIZE):
            value = pool_k[:, i % _POOL_SIZE] ^ np.uint32(out_const)
            out_const = (out_const * _MULT_B) & _M32
            value = value * np.uint32(out_const)
            value ^= value >> np.uint32(16)
            out32[:, i] = value
        return out32.view(np.uint64)

    def fork(self, salt: int) -> "RngStreams":
        """Derive an independent :class:`RngStreams` (e.g. per repetition)."""
        return RngStreams(root_seed=(self.root_seed * 1_000_003 + salt) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(root_seed={self.root_seed}, streams={sorted(self._streams)})"
