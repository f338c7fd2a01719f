"""The untimed engine's random stream: numpy's PCG64, without numpy.

``default_rng(seed)`` returns a generator **bit-identical** to
``numpy.random.default_rng(seed)`` for the three draws ``repro.gc`` and
``repro.chaos`` make -- ``integers``, ``random`` and ``uniform`` -- so
every committed digest, plan and reproducer keeps its meaning while the
processes that run the paper's programs no longer load numpy (~100
modules, 13 MB, 0.1 s).  The stream is numpy's, reproduced step for step:

* seeding is ``SeedSequence``'s pool hash (four 32-bit words) expanded to
  four ``uint64`` that initialise ``pcg_setseq_128``;
* each step is the 128-bit LCG followed by the XSL-RR 128/64 output;
* a 32-bit request returns the low half of a fresh 64-bit output and
  keeps the high half for the next 32-bit request; 64-bit requests
  bypass that cache and leave it intact;
* ``integers`` is numpy's unmasked Lemire rejection, 32-bit for ranges
  below 2**32 and 64-bit above.

Everything else numpy's ``Generator`` offers (``exponential``,
``choice``, spawned streams, arrays) is deliberately absent: code that
needs it builds a numpy generator where it is used.  ``tests/test_rng.py``
holds numpy as the oracle.
"""

from __future__ import annotations

import os
from operator import index
from typing import Any, Protocol

__all__ = ["Generator", "Rng", "default_rng", "make_rng"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy/random/bit_generator.pyx (SeedSequence)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# pcg64.h: PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341

_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63


class Rng(Protocol):
    """The draws the untimed engine makes; what every ``seed=``/``rng``
    parameter under ``repro.gc`` accepts in place of an int.  Both
    :class:`Generator` and ``numpy.random.Generator`` satisfy it."""

    def integers(self, low: int, high: int | None = None) -> int: ...

    def random(self) -> float: ...

    def uniform(self, low: float, high: float) -> float: ...


def _seed_words(entropy: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``."""
    words = []
    while entropy:
        words.append(entropy & _MASK32)
        entropy >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    padded = words + [0] * (_POOL_SIZE - len(words))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out32 = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out32.append(value ^ (value >> 16))
    return [out32[i] | (out32[i + 1] << 32) for i in range(0, 8, 2)]


class Generator:
    """PCG64 (XSL-RR 128/64) with numpy's seeding and bounded-integer rules."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: int) -> None:
        w0, w1, w2, w3 = _seed_words(entropy)
        # pcg_setseq_128_srandom_r
        self._inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + ((w0 << 64) | w1)) & _MASK128
        self._next64()
        #: High half of the last 64-bit output split for a 32-bit request.
        self._half: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def integers(self, low: int, high: int | None = None) -> int:
        """A uniform integer in ``[low, high)``, or ``[0, low)`` with one
        argument.  A one-value range returns it without drawing."""
        if high is None:
            low, high = 0, low
        if low < _INT64_MIN or high > _INT64_END:
            raise ValueError("integers() bounds must fit in int64")
        span = high - 1 - low
        if span <= 0:
            if span < 0:
                raise ValueError("low >= high")
            return low
        if span <= _MASK32:
            draw, mask, bits = self._next32, _MASK32, 32
        else:
            draw, mask, bits = self._next64, _MASK64, 64
        if span == mask:
            return low + draw()
        # Lemire's nearly-divisionless rejection, unmasked.
        width = span + 1
        scaled = draw() * width
        leftover = scaled & mask
        if leftover < width:
            threshold = (mask - span) % width
            while leftover < threshold:
                scaled = draw() * width
                leftover = scaled & mask
        return low + (scaled >> bits)

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        """A uniform float in ``[low, high)``."""
        low = float(low)
        span = float(high) - low
        if not 0.0 <= span < float("inf"):
            raise ValueError(f"uniform() needs finite low <= high, got {low}, {high}")
        return low + span * self.random()

    def __getattr__(self, name: str) -> Any:
        raise AttributeError(
            f"repro's core generator offers integers(), random() and uniform() "
            f"only, not {name}(): build a numpy Generator and pass it as `seed=`"
        )


def default_rng(seed: int | None = None) -> Generator:
    """The generator ``numpy.random.default_rng(seed)`` would return.

    ``seed`` is a non-negative int of any size, or ``None`` for 128 bits
    of OS entropy.
    """
    if seed is None:
        return Generator(int.from_bytes(os.urandom(16), "little"))
    try:
        entropy = index(seed)
    except TypeError:
        raise TypeError(
            f"seed must be a non-negative int or None, not {type(seed).__name__}"
        ) from None
    if entropy < 0:
        raise ValueError("expected non-negative integer")
    return Generator(entropy)


def make_rng(seed: Any) -> Rng:
    """``seed`` itself when it already is a generator (ours or numpy's,
    told by its methods), else :func:`default_rng` of it."""
    if all(hasattr(seed, draw) for draw in ("integers", "random", "uniform")):
        return seed
    return default_rng(seed)
