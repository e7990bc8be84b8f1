"""Random streams addressable by path.

Every stochastic operation in this package draws from an RngStream, a
value-like handle identified by (master_seed, path) where the path is a
tuple of (label, index) pairs.  Two streams with the same identity yield
bit-identical draws, and distinct paths give statistically independent
SFC64 states (a blake2b digest of the path), so results do not depend on
execution order or thread scheduling: a trial replayed alone produces
the same numbers it produced inside a parallel batch.  Problem instances
keep the Philox streams of the first layout (RngStream.philox).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError

_PATH_SEP = b"\x1f"
_W1 = (1).to_bytes(8, "little")  # SFC64's counter word starts at 1

# Master seeds and path indices are hashed as signed 64-bit words.
SEED_RANGE = range(-(2**63), 2**63)

# Resetting one SFC64 per thread through one template dict costs no more
# than the Philox reset it replaced and draws the same bits as _Words.
_local = threading.local()


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


def _thread_generator(digest: bytes) -> np.random.Generator:
    cached = getattr(_local, "pair", None)
    if cached is None:
        bg = np.random.SFC64(0)
        cached = _local.pair = (bg, np.random.Generator(bg), bg.state)
    bg, gen, template = cached
    template["state"]["state"] = np.frombuffer(digest + _W1, dtype="<u8")
    bg.state = template
    bg.random_raw(12)  # the warm-up of _Words seeding
    return gen


@dataclass(frozen=True)
class RngStream:
    """Immutable handle on one substream of a master seed."""

    master_seed: int
    path: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def child(self, label: str, index: int = 0) -> "RngStream":
        """Derive the substream addressed by one more path segment."""
        return RngStream(self.master_seed, self.path + ((label, int(index)),))

    def generator(self, *, shared: bool = True) -> np.random.Generator:
        """A numpy Generator positioned at the start of this stream.

        Each call restarts the stream, so a rerun replays identically.
        With shared=True (the default, cheap path) the object is a
        thread-local singleton: it is only valid until the calling
        thread's next generator() call, so draw from it before touching
        another stream.  Pass shared=False to get an independent
        generator that can be held across calls; both paths produce
        bit-identical draws.
        """
        d = _digest(self.master_seed, self.path, 24)
        if shared:
            return _thread_generator(d)
        return np.random.Generator(np.random.SFC64(_Words(np.frombuffer(d, dtype="<u8"))))

    def philox(self) -> np.random.Generator:
        """Philox keyed by the 16-byte digest (the first layout), for problem instances."""
        key = np.frombuffer(_digest(self.master_seed, self.path), dtype="<u8")
        return np.random.Generator(np.random.Philox(key=key))

    def token(self) -> int:
        """Stable 64-bit identifier for this stream (reporting only)."""
        return int.from_bytes(_digest(self.master_seed, self.path)[:8], "little")
