"""Deterministic seed derivation.

Every random draw in the package flows from one base seed through a named
derivation path (component, subject, case, pass, ...), so results are
bit-identical regardless of execution order or degree of parallelism.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*keys: int | str) -> int:
    """Collapse a sequence of names/indices into a stable 64-bit seed.

    The mapping is a pure function of the key sequence (SHA-256 based), so
    it is stable across processes, platforms and Python versions.  An
    integer key outside [-2**127, 2**127) is a ``ValueError``.
    """
    h = hashlib.sha256()
    for key in keys:
        if isinstance(key, str):
            h.update(b"s:" + key.encode("utf-8") + b"\x00")
        elif isinstance(key, (int, np.integer)):
            key = int(key)
            if not -(2**127) <= key < 2**127:  # what 16 signed bytes hold
                raise ValueError(f"integer seed keys must lie in [-2**127, 2**127), got {key}")
            h.update(b"i:" + key.to_bytes(16, "little", signed=True))
        else:
            raise TypeError(f"seed keys must be int or str, got {type(key).__name__}")
    return int.from_bytes(h.digest()[:8], "little")


def derive_rng(*keys: int | str) -> np.random.Generator:
    """Independent generator for the given derivation path."""
    return np.random.default_rng(derive_seed(*keys))
