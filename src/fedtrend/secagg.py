"""Additive secret sharing of bounded feature vectors.

A user's length-d vector is split into N shares: N-1 drawn uniformly from
[-D, D]^d and a residual share that makes the shares sum back to the
vector.  Summing every user's combined (obfuscated) vector therefore
reproduces the sum of the vectors, while no single message reveals a raw
vector.

Every payload of a round lies on one dyadic grid: it is an exact double
k * 2**-f.  ``grid_bits`` derives f from N, D and the per-user bounds (a, b)
as the largest f with N * (2D + max(|a|, |b|)) * 2**f < 2**53, which
bounds the encoded vector, the kept residual, the obfuscated vector and
the aggregate.  It refuses the grids that cannot serve a round: a step
above D, where every share would be 0 and each vector would travel
unmasked, a step below 2**-1074, where not every grid point is a double,
a grid with no point inside (a, b), and a grid on which N vectors below
2**53 steps can add up past 2**1023, where a sum of doubles may overflow;
``check_grid`` also refuses the grids that would lose what a round's
secrets carry.  A round derives f once, in ``check_grid`` or
``grid_bits``, and ``encode_steps`` rounds all its vectors onto the grid
points inside (a, b) in one call (an error of at most 2**-(f+1) per entry,
or below 2**-f next to a bound off the grid); shares are uniform grid
points in [-D, D].  A round sums int64 counts of grid steps below 2**53,
exact in any order, so its aggregate is the exact sum of the encoded
vectors, ``encoded_sum``, and every sum is finite.

Arrays have one owner: the code that makes an array freezes it once, in
place with ``freeze``, and every consumer shares it by reference.  Each
class that keeps an array (the vectors here, ``netsim.Message``, the
``bayes`` prior and ranking, ``corpus.VocabularyIndex``) stores
``frozen(values)``, which copies only when a writable array can still
reach that memory: the array itself or any ndarray on its ``.base`` chain
is writable, or the chain ends in a buffer other than ``bytes``.  A
writable view taken before its base was frozen is invisible to that test,
so producers freeze only arrays they have just made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FeatureVector",
    "RangeReport",
    "ShareSet",
    "aggregate",
    "check_grid",
    "combine_received",
    "encode",
    "encode_steps",
    "encoded_sum",
    "exact_sum",
    "freeze",
    "frozen",
    "grid_bits",
    "make_shares",
    "ordered_sum",
    "seeded_rng",
    "share_steps",
    "validate_aggregate",
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
    return freeze(np.array(values, dtype=np.float64))


def freeze(values: np.ndarray) -> np.ndarray:
    """``values``, an array its caller has just made, made read-only in place."""
    values.setflags(write=False)
    return values


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic, cross-platform generator for share randomness."""
    return np.random.default_rng(seed)


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


@dataclass(frozen=True, eq=False)
class ShareSet:
    """The N shares one user generates; row k goes to recipient k."""

    owner: int
    shares: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shares", frozen(self.shares))

    @property
    def diagonal(self) -> np.ndarray:
        """The residual share the owner keeps for herself."""
        return self.shares[self.owner]

    def share_for(self, recipient: int) -> np.ndarray:
        return self.shares[recipient]


def _grid_fault(n_users, share_range, f, size: str, fault: str) -> ValueError:
    """The error for a round's grid of step 2**-f that is too ``size``."""
    return ValueError(
        f"share range D={share_range:g} is too {size} for N={n_users} users: "
        f"the grid step 2^{-f} = {2.0 ** -f:g} {fault}"
    )


def grid_bits(n_users: int, share_range: float, bounds: tuple[float, float]) -> int:
    """Bits f of a round's grid 2**-f: the largest f with
    ``n_users * (2 * share_range + max(|a|, |b|)) * 2**f < 2**53``.

    ``ValueError`` if a bound is not finite, the step exceeds
    ``share_range`` or is below 2**-1074, no grid point lies inside
    ``bounds``, or ``n_users`` vectors below 2**53 steps can add up past
    2**1023.
    """
    a, b = bounds
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bounds ({a:g}, {b:g}) must be finite")
    # N * (2D + M) = 2N * (D + M/2): adding the exponents of the two factors
    # keeps every intermediate finite
    top = max(abs(a), abs(b))
    mantissa, exponent = math.frexp(share_range + top / 2)
    if math.isinf(mantissa):  # D + M/2 passes the largest double; halved, it is exact
        mantissa, exponent = math.frexp(share_range / 2 + top / 4)
        exponent += 1
    f = 52 - exponent - math.frexp(n_users * mantissa)[1]
    if math.ldexp(share_range, f) < 1:
        fault = "narrow", "exceeds D, so every share would be 0"
    elif f > 1074:  # a grid point k * 2**-f need not be a double
        fault = "small", "is below the smallest double, 2^-1074"
    elif math.ceil(math.ldexp(a, f)) > math.floor(math.ldexp(b, f)):
        fault = "coarse", f"has no point inside the bounds ({a:g}, {b:g})"
    elif n_users.bit_length() + 53 - f > 1023:  # a sum of N vectors can reach 2**1023
        fault = "large", "lets a sum of the round's vectors pass the largest double"
    else:
        return f
    raise _grid_fault(n_users, share_range, f, *fault)


def check_grid(n_users: int, share_range: float, bounds: tuple, span: tuple) -> int:
    """``grid_bits`` of the round, f; ``ValueError`` unless it accepts the
    round's grid and the grid keeps secrets whose entries span ``span``:
    nonzero entries do not all round to the grid point nearest 0, and every
    entry is p where the bounds hold one grid point p."""
    (a, b), (low, high) = bounds, span
    f = grid_bits(n_users, share_range, bounds)
    first, last = math.ceil(math.ldexp(a, f)), math.floor(math.ldexp(b, f))
    # encode rounds x to 0 iff |x| * 2**f <= 1/2, then clips into the bounds
    nearest = math.ldexp(min(max(0, first), last), -f)
    if 0 < math.ldexp(max(-low, high), f) <= 0.5:
        where = f", the grid point nearest 0 inside the bounds ({a:g}, {b:g})"
        fault = f"rounds every secret to {nearest:g}" + (where if nearest else "")
    elif first == last and not low == high == nearest:
        fault = f"leaves one point, {nearest:g}, inside the bounds ({a:g}, {b:g})"
    else:
        return f
    raise _grid_fault(n_users, share_range, f, "coarse", fault)


def encode_steps(values, bounds: tuple[float, float], f: int) -> np.ndarray:
    """``values``, one vector or a stack, rounded to the nearest points of the
    grid 2**-f inside ``bounds``, as float64 counts of grid steps below 2**53."""
    a, b = bounds
    low, high = math.ceil(math.ldexp(a, f)), math.floor(math.ldexp(b, f))
    steps = np.ldexp(values, f)
    # in place on the one new array; two ufunc calls take about half the
    # time of np.clip's dispatch
    np.round(steps, out=steps)
    np.maximum(steps, low, out=steps)
    return np.minimum(steps, high, out=steps)


def encode(values, bounds: tuple[float, float], f: int) -> np.ndarray:
    """``encode_steps`` as doubles, read-only: what a round's shares sum to."""
    return freeze(np.ldexp(encode_steps(values, bounds, f), -f))


def encoded_sum(secrets: Sequence[FeatureVector], share_range: float) -> np.ndarray:
    """The aggregate of an honest round over ``secrets`` with share range
    ``share_range``, read-only: the sum of the encoded secrets, as it sums them."""
    n, bounds = len(secrets), secrets[0].bounds
    f = grid_bits(n, share_range, bounds)
    steps = encode_steps([s.values for s in secrets], bounds, f)
    if n == 1:  # a lone user's aggregate is her encoded vector, -0.0 and all
        return freeze(np.ldexp(steps[0], -f))
    return freeze(np.ldexp(steps.astype(np.int64).sum(axis=0), -f))


def exact_sum(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise sum, read-only: correctly rounded, so independent of
    the order of ``vectors`` and exact whenever the exact sum is a double,
    in every coordinate where no left-to-right partial sum overflows.

    Sums left to right, then by ``math.fsum`` each finite coordinate with
    more than two nonzero terms.  The others keep the left-to-right result:
    one rounding of at most two terms, or an overflow, which may depend on
    the order.  ``OverflowError`` where the left-to-right sum stays finite
    but the exact sum does not.
    """
    total = np.array(vectors[0], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow stays inf
        for vec in vectors[1:]:
            total = total + vec  # in place, numpy may keep the other NaN's payload
    stack = np.asarray(vectors, dtype=np.float64)
    redo = np.flatnonzero(np.isfinite(total) & (np.count_nonzero(stack, axis=0) > 2))
    if redo.size:
        total[redo] = [math.fsum(stack[:, j].tolist()) for j in redo]  # a column at a time
    return freeze(total)


def ordered_sum(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """Strict left-to-right sum of doubles, read-only."""
    iterator = iter(vectors)
    try:
        total = np.array(next(iterator), dtype=np.float64, copy=True)
    except StopIteration:
        raise ValueError("ordered_sum needs at least one vector") from None
    for vec in iterator:
        total += vec
    return freeze(total)


def share_steps(rng: np.random.Generator, shape, share_range: float, f: int) -> np.ndarray:
    """Uniform shares on the grid 2**-f in [-share_range, share_range], as
    int64 counts of grid steps: the one draw behind every share block."""
    width = math.floor(math.ldexp(share_range, f))
    return rng.integers(-width, width + 1, size=shape)


def make_shares(
    v: FeatureVector,
    n_users: int,
    share_range: float = DEFAULT_SHARE_RANGE,
    rng: np.random.Generator | None = None,
    owner: int = 0,
) -> ShareSet:
    """Split ``v`` into ``n_users`` additive shares on the round's grid.

    The ``n_users - 1`` off-diagonal shares are i.i.d. uniform grid points
    in [-share_range, share_range]; the owner's diagonal share is the
    residual that makes the shares sum exactly to ``v`` encoded on that grid.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if not 0 < share_range < math.inf:
        raise ValueError("share_range must be positive and finite")
    if not 0 <= owner < n_users:
        raise ValueError(f"owner {owner} out of range for {n_users} users")
    if not np.all(np.isfinite(v.values)):
        raise ValueError("feature vector entries must be finite")
    if rng is None:
        rng = seeded_rng(0)
    f = grid_bits(n_users, share_range, v.bounds)
    # a grid point in every row; the owner's row then becomes the residual
    shares = np.ldexp(share_steps(rng, (n_users, len(v)), share_range, f), -f)
    shares[owner] = encode(v.values, v.bounds, f) - (shares.sum(axis=0) - shares[owner])
    return ShareSet(owner=owner, shares=freeze(shares))


def combine_received(
    kept: np.ndarray, received: Sequence[np.ndarray], owner: int = 0
) -> np.ndarray:
    """User ``owner``'s obfuscated vector, read-only: her kept share plus
    the shares she received, exact in any order on the grid.  The sum does
    not depend on ``owner``."""
    kept = np.asarray(kept, dtype=np.float64)
    for vec in received:
        if np.asarray(vec).shape != kept.shape:
            raise ValueError("received share length does not match kept share")
    return ordered_sum([kept, *received])


def aggregate(
    obfuscated: Sequence[np.ndarray],
    per_user_bounds: tuple[float, float] = (0.0, 1.0),
) -> FeatureVector:
    """Coordinate-wise ``exact_sum`` of all obfuscated vectors, in any order.

    By the share-cancellation identity this is the exact sum of the encoded
    vectors; bounds widen to (N*a, N*b).
    """
    if not obfuscated:
        raise ValueError("nothing to aggregate")
    dims = {len(o) for o in obfuscated}
    if len(dims) != 1:
        raise ValueError("obfuscated vectors disagree on dimension")
    n = len(obfuscated)
    a, b = per_user_bounds
    total = exact_sum(obfuscated)
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
