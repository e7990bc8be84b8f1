"""Random streams addressable by path.

Every stochastic operation in this package draws from an RngStream, a
value-like handle identified by (master_seed, path) where the path is a
tuple of (label, index) pairs.  Two streams with the same identity yield
bit-identical draws, and distinct paths give statistically independent
SFC64 states (a blake2b digest of the path), so results do not depend on
execution order or thread scheduling: a trial replayed alone produces
the same numbers it produced inside a parallel batch.  Each
generator() call returns a new, independent generator, so any number
of streams can be held and drawn from at once.  Problem instances keep
the Philox streams of the first layout (RngStream.philox).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError

_PATH_SEP = b"\x1f"

# Master seeds and path indices are hashed as signed 64-bit words.
SEED_RANGE = range(-(2**63), 2**63)


def _digest(master_seed: int, path: tuple[tuple[str, int], ...], size: int = 16) -> bytes:
    h = hashlib.blake2b(digest_size=size)
    try:
        h.update(int(master_seed).to_bytes(8, "little", signed=True))
        for label, index in path:
            h.update(_PATH_SEP)
            h.update(label.encode())
            h.update(int(index).to_bytes(8, "little", signed=True))
    except OverflowError:
        raise ValidationError(f"seed {master_seed} or an index in {path} is not signed 64-bit") from None
    return h.digest()


@dataclass
class _Words(ISeedSequence):
    """Hands numpy's SFC64 seeding (a, b, c) = words, w = 1, then 12 draws discarded."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=None):
        return self.words


@dataclass(frozen=True)
class RngStream:
    """Immutable handle on one substream of a master seed."""

    master_seed: int
    path: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def child(self, label: str, index: int = 0) -> "RngStream":
        """Derive the substream addressed by one more path segment."""
        return RngStream(self.master_seed, self.path + ((label, int(index)),))

    def generator(self) -> np.random.Generator:
        """A new numpy Generator positioned at the start of this stream.

        Each call restarts the stream, so a rerun replays identically,
        and the generator is independent of every other one.
        """
        words = np.frombuffer(_digest(self.master_seed, self.path, 24), dtype="<u8")
        return np.random.Generator(np.random.SFC64(_Words(words)))

    def philox(self) -> np.random.Generator:
        """Philox keyed by the 16-byte digest (the first layout), for problem instances."""
        key = np.frombuffer(_digest(self.master_seed, self.path), dtype="<u8")
        return np.random.Generator(np.random.Philox(key=key))

    def token(self) -> int:
        """Stable 64-bit identifier for this stream (reporting only)."""
        return int.from_bytes(_digest(self.master_seed, self.path)[:8], "little")
