"""Deterministic, splittable random streams.

Every stochastic component in the toolkit draws from an ``RngStream``
identified by a 64-bit root seed plus a derivation path of string labels.
The stream state is the SHA-256 digest of ``seed || path``, so

* equal (seed, path) pairs always produce bit-identical draws, and
* derived streams (``derive("gmm")``, ``derive("vae")``, ...) are
  statistically independent and insensitive to the order in which
  sibling streams are created or consumed.

The digest seeds a NumPy PCG64 generator. The derivation scheme is part
of the reproducibility contract: changing it changes every report.
"""

from __future__ import annotations

import hashlib

import numpy as np

_DOMAIN = b"augbench.rng.v1"
SEED_MAX = 2**64 - 1  # a root seed is taken modulo 2**64


class RngStream:
    """A named, splittable random stream backed by PCG64."""

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        self.seed = int(seed) & SEED_MAX
        self.path = tuple(path)
        self._generator: np.random.Generator | None = None

    def derive(self, label: str) -> "RngStream":
        """Child stream for `label`; pure in (seed, path, label)."""
        return RngStream(self.seed, self.path + (label,))

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            h = hashlib.sha256(_DOMAIN)
            h.update(self.seed.to_bytes(8, "little"))
            for label in self.path:
                h.update(b"\x00")
                h.update(label.encode("utf-8"))
            key = int.from_bytes(h.digest()[:16], "little")
            self._generator = np.random.Generator(np.random.PCG64(key))
        return self._generator

    # Thin draw helpers so callers never touch the generator directly.
    def uniform(self, low, high, size=None):
        return self.generator.uniform(low, high, size=size)

    def normal(self, size=None, out=None):
        # Into `out` when given: the values `size=out.shape` would draw.
        return self.generator.standard_normal(size=size, out=out)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def choice_weighted(self, n: int, p: np.ndarray, size: int) -> np.ndarray:
        return self.generator.choice(n, size=size, p=p)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"
