"""Deterministic random number generation for reproducible simulations.

Every stochastic component (PInTE trigger, synthetic trace generators,
random replacement) owns a private :class:`DeterministicRng` seeded from the
experiment seed plus a component-specific salt, so adding a new random
consumer never perturbs the random streams of existing ones.
"""

from __future__ import annotations

import random

#: Matches the paper's Eq. 2 denominator (``Max Random Number``); we model the
#: hardware's bounded RNG with a 30-bit LFSR-style range.
MAX_RANDOM = (1 << 30) - 1


def ratio_threshold(p: float) -> int:
    """Largest raw draw ``v`` in ``[0, MAX_RANDOM]`` with
    ``v / MAX_RANDOM <= p`` (-1 when there is none, i.e. ``p < 0``).

    Float division is monotone in ``v``, so ``v / MAX_RANDOM <= p`` holds
    exactly for ``v <= ratio_threshold(p)``: comparing the raw draw with the
    threshold gives the same outcome as comparing the Eq. 2 ratio with ``p``,
    without a division per draw.
    """
    if p < 0.0:
        return -1
    if p >= 1.0:
        return MAX_RANDOM
    value = int(p * MAX_RANDOM)
    while value < MAX_RANDOM and (value + 1) / MAX_RANDOM <= p:
        value += 1
    while value >= 0 and value / MAX_RANDOM > p:
        value -= 1
    return value


class DeterministicRng:
    """A seeded random stream with the draw primitives the simulator needs.

    Thin wrapper over :class:`random.Random` that adds the bounded integer
    draw used by PInTE's trigger-ratio computation (paper Eq. 2) and keeps a
    draw counter for stability diagnostics.
    """

    def __init__(self, seed: int, salt: str = "") -> None:
        self.seed = seed
        self.salt = salt
        self._random = random.Random(f"{seed}:{salt}")
        self._getrandbits = self._random.getrandbits
        self.draws = 0

    def trigger_ratio(self) -> float:
        """Draw ``Random Number / Max Random Number`` in [0, 1] (Eq. 2).

        The draw is ``randint(0, MAX_RANDOM)`` with CPython's rejection
        sampling inlined: ``randint`` resolves to ``_randbelow(2**30)``,
        which draws ``getrandbits(31)`` until the value is below ``2**30``.
        Replicating that loop here keeps the random stream bit-identical to
        the ``randint`` call while skipping three frame pushes per draw. The
        PInTE engine inlines the same loop in its per-access path and
        compares the raw draw with :func:`ratio_threshold` instead.
        """
        self.draws += 1
        getrandbits = self._getrandbits
        value = getrandbits(31)
        while value > MAX_RANDOM:
            value = getrandbits(31)
        return value / MAX_RANDOM

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        self.draws += 1
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        self.draws += 1
        return self._random.random()

    def choice(self, seq):
        """Uniform choice from a non-empty sequence."""
        self.draws += 1
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle."""
        self.draws += 1
        self._random.shuffle(seq)

    def fork(self, salt: str) -> "DeterministicRng":
        """Derive an independent stream for a sub-component."""
        return DeterministicRng(self.seed, f"{self.salt}/{salt}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRng(seed={self.seed}, salt={self.salt!r})"
