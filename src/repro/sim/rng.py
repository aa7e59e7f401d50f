"""Deterministic, named random-number streams.

Every stochastic component of a simulation (network latency, workload
inter-arrival, policy-update timing, ...) draws from its **own** named stream
derived from a single master seed.  Adding a new consumer therefore never
perturbs the draws seen by existing consumers, which keeps regression
baselines stable — the standard trick in reproducible simulation harnesses.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of independent :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream

    def __repr__(self) -> str:
        return f"RandomStreams(master_seed={self.master_seed})"
