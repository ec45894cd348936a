"""Deterministic 64-bit pseudo-random generator for reproducible runs.

The optimizers draw a sample index and then a Bernoulli coin each step, so
trace reproducibility requires a generator whose stream is pinned down by the
seed alone, independent of platform, interpreter, or numpy version.  We use
splitmix64, which is small enough to specify bit-exactly:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  <- z XOR (z >> 31)

A coin compares p with a uniform in [0, 1) made of the top 53 bits of one
output word; an index draw uses rejection sampling on the smallest covering
bit mask, so it is exactly uniform and consumes a data-dependent (but
seed-deterministic) number of words.  The scalar draws (randbelow,
bernoulli) advance the state themselves and make one call per word, to the
shared mixing rounds (_mix).

The generator is counter-based: word k after state s is mix(s + k * gamma),
a function of the counter alone (Steele, Lea & Flood, OOPSLA 2014).  So a
block of words can be computed at once with numpy's wrapping uint64
arithmetic (next_words), and step_draws turns a block into the sample indices
and coins of many steps, consuming exactly the words the scalar draws would.
The optimizers' run() and run_lanes() draw through step_draws; the scalar
draws define what it must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(state: int) -> int:
    """The output word of an advanced state: splitmix64's three mixing
    rounds, shared by every scalar draw."""
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Seeded splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_words(self, count: int) -> np.ndarray:
        """The next `count` words of the stream as a uint64 array: word k is
        mix(state + k * gamma), and the state advances by count * gamma."""
        if count < 0:
            raise ValueError(f"word count must be >= 0, got {count}")
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z

    # randbelow and bernoulli are the serial definition of a step's draws;
    # the package itself draws through step_draws.  perfbench/tracer.py hooks
    # both until its counters move to fields that run() and run_lanes() both
    # fill (ROADMAP item 2).

    def randbelow(self, n: int) -> int:
        """Uniform integer in {0, ..., n-1}, unbiased via bit-mask rejection."""
        if n <= 0:
            raise ValueError(f"randbelow requires n >= 1, got {n}")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            self._state = state = (self._state + _GAMMA) & _MASK64
            r = _mix(state) & mask
            if r < n:
                return r

    def bernoulli(self, p: float) -> bool:
        """Coin with success probability p: u < p, where u is the top 53
        bits of one word scaled to [0, 1).

        p >= 1 returns True without consuming a word, which keeps the draw
        stream of a probability-1 coin identical to a coinless one.
        """
        if p >= 1.0:
            return True
        self._state = state = (self._state + _GAMMA) & _MASK64
        return (_mix(state) >> 11) * 2.0**-53 < p


def step_draws(
    rng: SplitMix64, n: int, steps: int, coin: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The draws of `steps` serial steps that each take rng.randbelow(n) and
    then, if `coin`, rng.bernoulli(p) with p < 1 (one word).

    Returns the sample indices (int64) and the coin uniforms (float64, None
    without a coin): uniform < p is that bernoulli draw.  rng advances past
    exactly the words those serial calls consume, rejected index words
    included.
    """
    if n <= 0:
        raise ValueError(f"randbelow requires n >= 1, got {n}")
    if n == 1:  # randbelow(1) draws no word
        indices = np.zeros(steps, dtype=np.int64)
        return indices, _uniforms(rng.next_words(steps)) if coin else None
    span = 1 << (n - 1).bit_length()
    mask = np.uint64(span - 1)
    # read ahead on a copy of the stream, a little past the expected count
    # (an index takes span / n words on average), then advance rng exactly
    ahead = SplitMix64(rng._state)
    expected = steps * (span / n + coin)
    chunk = int(expected + 4.0 * math.sqrt(expected)) + 8
    words = np.empty(0, dtype=np.uint64)
    while True:
        words = np.concatenate((words, ahead.next_words(chunk)))
        accepted = (words & mask) < n
        if coin:
            # a run of accepted words after a rejected one (or the start)
            # alternates index, coin, index, ...: a coin follows every accepted
            # index whatever its value, and every rejected word ends a run
            pos = np.arange(words.size)
            last_rejected = np.maximum.accumulate(np.where(accepted, -1, pos))
            run_length = pos - 1 - np.concatenate(([-1], last_rejected[:-1]))
            is_coin = run_length % 2 == 1
            index_at = np.flatnonzero(accepted & ~is_coin)[:steps]
            coin_at = np.flatnonzero(is_coin)[:steps]
        else:
            index_at = coin_at = np.flatnonzero(accepted)[:steps]
        if coin_at.size == steps:
            break
    used = int(coin_at[-1]) + 1 if steps else 0
    rng._state = (rng._state + used * _GAMMA) & _MASK64
    indices = (words[index_at] & mask).astype(np.int64)
    return indices, _uniforms(words[coin_at]) if coin else None


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Each word's top 53 bits scaled to [0, 1): the uniform that bernoulli
    compares with p."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
