"""Additive secret sharing of bounded feature vectors.

A user's length-d vector is split into N shares: N-1 drawn uniformly from
[-D, D]^d and a residual share that makes the shares sum back to the
vector.  Summing every user's combined (obfuscated) vector therefore
reproduces the sum of the original vectors, up to floating-point
cancellation error, while no single message reveals a raw vector.

All multi-vector sums run in ascending index order so every result is
bit-reproducible for a given seed.

Arrays have one owner: the code that makes an array freezes it once, in
place, and every consumer shares it by reference.  Each class that keeps
an array (the vectors here, ``netsim.Message``, the ``bayes`` prior and
ranking, ``corpus.VocabularyIndex``) stores ``frozen(values)``, which
copies only when a writable array can still reach that memory: the array
itself or any ndarray on its ``.base`` chain is writable, or the chain ends
in a buffer other than ``bytes``.  A writable view taken before its base
was frozen is invisible to that test, so producers freeze only arrays they
have just made.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FeatureVector",
    "ObfuscatedVector",
    "RangeReport",
    "ShareSet",
    "SystemEntropySource",
    "aggregate",
    "combine_received",
    "frozen",
    "make_shares",
    "ordered_sum",
    "seeded_rng",
    "validate_aggregate",
    "vector_from_bytes",
    "vector_to_bytes",
]

#: Name of the deterministic generator recorded in run metadata.
RNG_NAME = "pcg64"

DEFAULT_SHARE_RANGE = 100.0
DEFAULT_VALIDATION_TOLERANCE = 1e-6


def frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array; see the module docstring."""
    node = values
    while isinstance(node, np.ndarray) and not node.flags.writeable:
        node = node.base
    if (node is None or type(node) is bytes) and type(values) is np.ndarray:
        if values.dtype == np.float64:
            return values
    values = np.array(values, dtype=np.float64)
    values.setflags(write=False)
    return values


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic, cross-platform generator for share randomness."""
    return np.random.default_rng(seed)


class SystemEntropySource:
    """Non-deterministic share randomness drawn from the OS entropy pool.

    Drop-in for the ``uniform`` surface of ``numpy.random.Generator``;
    meant for production rounds where seeds must not be reused.
    """

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        n = int(np.prod(size))
        raw = np.frombuffer(os.urandom(8 * n), dtype=np.uint64)
        unit = (raw >> np.uint64(11)) * 2.0**-53  # 53-bit uniform in [0, 1)
        return (low + unit * (high - low)).reshape(size)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Dense vector of doubles with per-vector value bounds [a, b]."""

    values: np.ndarray
    bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(self.values))
        if self.values.ndim != 1:
            raise ValueError("feature vector must be one-dimensional")
        a, b = self.bounds
        if not a <= b:
            raise ValueError(f"invalid bounds: ({a}, {b})")

    def __len__(self) -> int:
        return self.values.shape[0]

    def within_bounds(self, tolerance: float = 0.0) -> bool:
        a, b = self.bounds
        return bool(
            np.all(self.values >= a - tolerance) and np.all(self.values <= b + tolerance)
        )


@dataclass(frozen=True, eq=False)
class ShareSet:
    """The N shares one user generates; row k goes to recipient k."""

    owner: int
    shares: np.ndarray
    share_range: float

    def __post_init__(self):
        object.__setattr__(self, "shares", frozen(self.shares))

    @property
    def n_users(self) -> int:
        return self.shares.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        """The residual share the owner keeps for herself."""
        return self.shares[self.owner]

    def share_for(self, recipient: int) -> np.ndarray:
        return self.shares[recipient]


@dataclass(frozen=True, eq=False)
class ObfuscatedVector:
    """A user's kept share plus everything received; unbounded entries."""

    owner: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(self.values))


def ordered_sum(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """Strict left-to-right sum, read-only; callers pass vectors in ascending id order."""
    iterator = iter(vectors)
    try:
        total = np.array(next(iterator), dtype=np.float64, copy=True)
    except StopIteration:
        raise ValueError("ordered_sum needs at least one vector") from None
    for vec in iterator:
        total += vec
    total.setflags(write=False)
    return total


def make_shares(
    v: FeatureVector,
    n_users: int,
    share_range: float = DEFAULT_SHARE_RANGE,
    rng: np.random.Generator | SystemEntropySource | None = None,
    owner: int = 0,
) -> ShareSet:
    """Split ``v`` into ``n_users`` additive shares.

    The ``n_users - 1`` off-diagonal shares are i.i.d. uniform in
    [-share_range, share_range]; the owner's diagonal share is the residual
    ``v - sum(randoms)`` with the sum taken in ascending recipient order.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if not share_range > 0:
        raise ValueError("share_range must be positive")
    if not 0 <= owner < n_users:
        raise ValueError(f"owner {owner} out of range for {n_users} users")
    if not np.all(np.isfinite(v.values)):
        raise ValueError("feature vector entries must be finite")
    if rng is None:
        rng = seeded_rng(0)
    d = len(v)
    shares = np.empty((n_users, d), dtype=np.float64)
    others = [k for k in range(n_users) if k != owner]
    randoms = rng.uniform(-share_range, share_range, size=(n_users - 1, d))
    if others:
        shares[others] = randoms
        shares[owner] = v.values - ordered_sum(randoms)
    else:
        shares[owner] = v.values
    shares.setflags(write=False)
    return ShareSet(owner=owner, shares=shares, share_range=share_range)


def combine_received(
    kept: np.ndarray, received: Sequence[np.ndarray], owner: int = 0
) -> ObfuscatedVector:
    """Kept share plus received shares; pass ``received`` in ascending
    sender-id order so the sum is reproducible."""
    kept = np.asarray(kept, dtype=np.float64)
    for vec in received:
        if np.asarray(vec).shape != kept.shape:
            raise ValueError("received share length does not match kept share")
    return ObfuscatedVector(owner=owner, values=ordered_sum([kept, *received]))


def aggregate(
    obfuscated: Sequence[ObfuscatedVector],
    per_user_bounds: tuple[float, float] = (0.0, 1.0),
) -> FeatureVector:
    """Coordinate-wise sum of all obfuscated vectors, ascending owner order.

    By the share-cancellation identity this reproduces the sum of the raw
    vectors up to floating-point error; bounds widen to (N*a, N*b).
    """
    if not obfuscated:
        raise ValueError("nothing to aggregate")
    ordered = sorted(obfuscated, key=lambda o: o.owner)
    dims = {o.values.shape[0] for o in ordered}
    if len(dims) != 1:
        raise ValueError("obfuscated vectors disagree on dimension")
    n = len(ordered)
    a, b = per_user_bounds
    total = ordered_sum([o.values for o in ordered])
    return FeatureVector(values=total, bounds=(n * a, n * b))


@dataclass(frozen=True)
class RangeReport:
    """Coordinates of an aggregate that escape the admissible range."""

    flagged: tuple[tuple[int, float], ...]
    low: float
    high: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.flagged


def validate_aggregate(
    agg: FeatureVector,
    n_users: int,
    per_user_bounds: tuple[float, float],
    tolerance: float = DEFAULT_VALIDATION_TOLERANCE,
) -> RangeReport:
    """Flag coordinates outside [N*a - tol, N*b + tol]; boundary inclusive.

    Non-finite coordinates are flagged too: NaN lies in no range.  Never
    raises: an active participant can only shift the aggregate inside the
    admissible range, so anything outside it proves misbehavior.
    """
    a, b = per_user_bounds
    low, high = n_users * a - tolerance, n_users * b + tolerance
    values = agg.values
    bad = np.flatnonzero(~((values >= low) & (values <= high)))
    flagged = tuple((int(j), float(values[j])) for j in bad)
    return RangeReport(flagged=flagged, low=low, high=high, tolerance=tolerance)


def vector_to_bytes(values: np.ndarray) -> bytes:
    """Little-endian IEEE-754 double serialization of a vector."""
    return np.asarray(values, dtype="<f8").tobytes()


def vector_from_bytes(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype="<f8").copy()
