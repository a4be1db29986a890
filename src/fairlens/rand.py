"""Deterministic random streams for reproducible runs.

Every random decision in the pipeline draws from a Philox 4x64 counter-based
bit generator whose 128-bit key is derived from a tuple of stream identifiers
(strings and integers) via SplitMix64 mixing. The same identifiers always
yield the same stream, on any platform and in any execution order, which is
what makes whole runs byte-reproducible.

Only the raw Philox output is consumed here; derived quantities (bounded
integers, uniforms, shuffles) are produced by the fixed algorithms below, not
by numpy.random.Generator methods, so they cannot drift between numpy
versions.
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
        self._start(ids, _fold_ids(_KEY_START, ids))

    def _start(self, ids: tuple, acc: int) -> None:
        self.ids = ids
        self._acc = acc  # the ids folded, before the key's last mix
        self._bg = np.random.Philox(key=np.array(_key(acc), dtype=np.uint64))
        self._buf: list[int] = []

    def child(self, *more: int | str) -> "Stream":
        """Independent stream keyed by this stream's ids plus more, the
        stream Stream(*self.ids, *more) is; only more is folded in."""
        child = Stream.__new__(Stream)
        child._start((*self.ids, *more), _fold_ids(self._acc, more))
        return child

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        return np.asarray(self._bg.random_raw(n), dtype=np.uint64)

    def _next_word(self) -> int:
        if not self._buf:
            self._buf = [int(w) for w in self.raw(64)][::-1]
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

    def normal(self, size: int) -> np.ndarray:
        """Standard normals via Box-Muller on paired uniforms."""
        m = (size + 1) // 2
        u1 = (self.raw(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        u2 = (self.raw(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return out[:size]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        """Fast random permutation of range(n): stable argsort of raw keys."""
        return np.argsort(self.raw(n), kind="stable")

    def permutations(self, count: int, n: int) -> np.ndarray:
        """count successive permutation(n) draws, one per row, from one
        raw draw and one row-wise stable argsort."""
        return np.argsort(self.raw(count * n).reshape(count, n), axis=1, kind="stable")

    def choice_indices(self, n_draws: int, upper: int) -> np.ndarray:
        """n_draws integers in [0, upper), vectorized (floor of uniforms)."""
        u = (self.raw(n_draws) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return np.minimum((u * upper).astype(np.int64), upper - 1)
