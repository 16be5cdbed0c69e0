"""Deterministic, splittable randomness for reproducible runs.

Every protocol run derives all of its randomness from a single integer
seed.  Independent consumers (function generation, input generation, the
client's masks) each get their own child stream so that adding draws to
one consumer never perturbs another.  Child derivation is a stable hash
of (seed, label), so streams are reproducible across processes and
machines.

The generator (MT19937) is NOT cryptographically secure: its whole state
can be recovered from 624 consecutive 32-bit outputs, whatever the seed,
so seeding from os.urandom would not make its draws unpredictable.  The
privacy target here is distributional uniformity, not unpredictability.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["Rng"]


class Rng:
    """A seeded random.Random with stable child-stream derivation."""

    __slots__ = ("seed", "_r", "randrange", "getrandbits", "choice", "shuffle")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._r = random.Random(self.seed)
        # Bound methods cached as attributes: these sit on hot paths.
        self.randrange = self._r.randrange
        self.getrandbits = self._r.getrandbits
        self.choice = self._r.choice
        self.shuffle = self._r.shuffle

    def child(self, label: str) -> "Rng":
        """Derive an independent stream for `label`.

        The same (seed, label) pair always yields the same stream.
        """
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"
