"""Deterministic RNG derivation.

One global seed governs every run; component RNGs are derived from it,
so adding a component never perturbs the streams of existing ones. Most
are derived here by stable hashing of (seed, *salt). The meta-models'
tree and MLP streams are not: ``metamodels._rng`` seeds them with
``SeedSequence([seed & 0x7FFFFFFF, *salt])``. Saved model bytes pin both
schemes.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, *salt) -> int:
    h = hashlib.sha256(repr((int(seed),) + tuple(salt)).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def derive_rng(seed: int, *salt) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *salt))
