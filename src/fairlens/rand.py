"""Deterministic random streams for reproducible runs.

Every random decision in the pipeline draws from a counter-based SplitMix64
stream (Steele, Lea & Flood 2014). Its ids (strings and integers) are folded
by SplitMix64 mixing into a start and an odd gamma, and word i is
mix(start + i * gamma), in numpy uint64 arithmetic, which wraps. The same
ids always yield the same stream, on any platform and in any execution
order, which is what makes whole runs byte-reproducible. Bounded integers,
uniforms and permutations come from the fixed algorithms below.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(acc: int, word: int) -> int:
    return _splitmix64(acc ^ (word & _MASK64))


_KEY_START = 0x243F6A8885A308D3


def _fold_ids(acc: int, ids) -> int:
    """acc with each id folded in, its type tag and length first."""
    for part in ids:
        if isinstance(part, str):
            acc = _fold(acc, len(part))
            for b in part.encode("utf-8"):
                acc = _fold(acc, b)
        elif isinstance(part, (int, np.integer)):
            acc = _fold(acc, 1)
            acc = _fold(acc, int(part))
        else:
            raise TypeError(f"stream ids must be int or str, got {type(part)!r}")
    return acc


def _key(acc: int) -> tuple[int, int]:
    return _splitmix64(acc), _splitmix64(acc ^ 0xD1B54A32D192ED03)


class Stream:
    """A deterministic source of raw 64-bit words and derived draws."""

    def __init__(self, *ids: int | str):
        self._keyed(ids, _fold_ids(_KEY_START, ids))

    def _keyed(self, ids: tuple, acc: int) -> None:
        self.ids = ids
        self._acc = acc  # the ids folded, before the key's last mix
        start, gamma = _key(acc)
        # an odd gamma with at least 24 bit transitions, as Java's
        # SplittableRandom.mixGamma makes it
        gamma |= 1
        if (gamma ^ (gamma >> 1)).bit_count() < 24:
            gamma ^= 0xAAAAAAAAAAAAAAAA
        self._start, self._gamma = np.uint64(start), np.uint64(gamma)
        self._count = 0  # words drawn so far
        self._buf: list[int] = []

    def child(self, *more: int | str) -> "Stream":
        """Independent stream keyed by this stream's ids plus more, the
        stream Stream(*self.ids, *more) is; only more is folded in."""
        child = Stream.__new__(Stream)
        child._keyed((*self.ids, *more), _fold_ids(self._acc, more))
        return child

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        z = np.arange(self._count, self._count + n, dtype=np.uint64)
        self._count += n
        z *= self._gamma
        z += self._start
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """Next n uniform floats in [0, 1), the top 53 bits of raw words."""
        return (self.raw(n) >> 11).astype(np.float64) * 2.0**-53

    def _next_word(self) -> int:
        if not self._buf:
            self._buf = self.raw(64).tolist()[::-1]
        return self._buf.pop()

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK64 - (_MASK64 % n)
        while True:
            w = self._next_word()
            if w < limit:
                return w % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.randbelow(hi - lo + 1)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform float in [lo, hi) from the top 53 bits of a raw word."""
        u = (self._next_word() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n): the stable argsort of n raw keys.

        Distinct keys have one sorted order, so the default (faster) sort
        gives it; the stable sort runs only when two keys are equal."""
        keys = self.raw(n)
        order = np.argsort(keys)
        ranked = keys[order]
        if np.any(ranked[1:] == ranked[:-1]):
            order = np.argsort(keys, kind="stable")
        return order

    def permutations(self, count: int, n: int) -> np.ndarray:
        """count successive permutation(n) draws, one per row, from one
        raw draw and one row-wise stable argsort."""
        return np.argsort(self.raw(count * n).reshape(count, n), axis=1, kind="stable")

    def choice_indices(self, n_draws: int, upper: int) -> np.ndarray:
        """n_draws integers in [0, upper), vectorized (floor of uniforms)."""
        u = self.uniforms(n_draws)
        return np.minimum((u * upper).astype(np.int64), upper - 1)
