"""Deterministic random number utilities.

All randomness in the package flows from one root seed. Sub-seeds are
derived with splitmix64 over the root seed and a stream tag, so two runs
with the same root seed produce bit-identical results and two distinct
tags give independent streams.

The cross-fitting fold shuffle (``dml.make_folds``) is the one user of
xorshift64*, a 64-bit xorshift-family generator chosen because the full
update rule fits in a docstring and can be re-implemented exactly in any
language:

    state ^= state >> 12
    state ^= state << 25
    state ^= state >> 27
    output = state * 0x2545F4914F6CDD1D  (mod 2**64)

Heavy vectorised sampling (the synthetic data generators) goes through
``numpy.random.default_rng`` seeded from the same derivation chain.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_XORSHIFT_MULT = 0x2545F4914F6CDD1D


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (next_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def derive_seed(root: int, *tags: object) -> int:
    """Derive a sub-seed from a root seed and a sequence of stream tags.

    Tags may be ints or strings; strings are folded in bytewise. The
    derivation is documented so that manifests can name every stream.
    """
    state = root & _MASK64
    for tag in tags:
        if isinstance(tag, str):
            for byte in tag.encode("utf-8"):
                state, _ = splitmix64(state ^ byte)
        else:
            state, _ = splitmix64(state ^ (int(tag) & _MASK64))
    _, out = splitmix64(state)
    return out


class Xorshift64Star:
    """Sequential xorshift64* stream (see module docstring for the rule)."""

    def __init__(self, seed: int):
        # a zero state would be a fixed point; splitmix64 seeding avoids it
        _, state = splitmix64(seed & _MASK64)
        self._state = state or 1

    def next_u64(self) -> int:
        s = self._state
        s ^= (s >> 12)
        s ^= (s << 25) & _MASK64
        s ^= (s >> 27)
        self._state = s
        return (s * _XORSHIFT_MULT) & _MASK64

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % bound

    def shuffle(self, values: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle."""
        n = len(values)
        for i in range(n - 1, 0, -1):
            j = self.next_below(i + 1)
            values[i], values[j] = values[j], values[i]


def numpy_rng(root: int, *tags: object) -> np.random.Generator:
    """numpy Generator seeded via the documented derivation chain."""
    return np.random.default_rng(derive_seed(root, *tags))
