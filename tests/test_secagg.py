import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedtrend.bayes import PosteriorRanking, PriorDistribution
from fedtrend.corpus import VocabularyIndex
from fedtrend.netsim import Message, MessageKind, RoundConfig, run_round
from fedtrend.secagg import (
    FeatureVector,
    ShareSet,
    aggregate,
    check_grid,
    combine_received,
    encode,
    encode_steps,
    encoded_sum,
    exact_sum,
    frozen,
    grid_bits,
    make_shares,
    ordered_sum,
    seeded_rng,
    share_steps,
    validate_aggregate,
)

RECONSTRUCTION_TOL = 1e-9


def unit_vector(rng, d):
    return FeatureVector(values=rng.uniform(0.0, 1.0, d), bounds=(0.0, 1.0))


def run_protocol(secrets, share_range, seed):
    """Share, exchange, combine, aggregate: the math without the network."""
    n = len(secrets)
    share_sets = [
        make_shares(s, n, share_range, rng=seeded_rng((seed, i)), owner=i)
        for i, s in enumerate(secrets)
    ]
    obfuscated = [
        combine_received(
            share_sets[i].diagonal,
            [share_sets[k].share_for(i) for k in range(n) if k != i],
            owner=i,
        )
        for i in range(n)
    ]
    return aggregate(obfuscated, per_user_bounds=secrets[0].bounds)


# ---------------------------------------------------------------------------
# make_shares
# ---------------------------------------------------------------------------


def test_single_user_share_is_the_vector():
    v = FeatureVector(values=np.array([0.25, 0.75]), bounds=(0.0, 1.0))
    share_set = make_shares(v, 1, 100.0, rng=seeded_rng(0), owner=0)
    assert share_set.shares.shape == (1, 2)
    assert np.array_equal(share_set.diagonal, v.values)


def test_shares_sum_back_to_vector():
    v = FeatureVector(values=np.array([0.5, 0.25]), bounds=(0.0, 1.0))
    for seed in range(20):
        share_set = make_shares(v, 3, 100.0, rng=seeded_rng(seed), owner=0)
        total = ordered_sum(share_set.shares)
        assert np.max(np.abs(total - v.values)) <= 1e-12


def test_diagonal_is_exact_residual():
    # The kept share is bit-for-bit the residual of the encoded vector and
    # the random-share sum, in either summation order.
    v = FeatureVector(values=np.array([0.1, 0.9, 0.5]), bounds=(0.0, 1.0))
    share_set = make_shares(v, 5, 100.0, rng=seeded_rng(3), owner=2)
    others = [k for k in range(5) if k != 2]
    encoded = encode(v.values, v.bounds, grid_bits(5, 100.0, v.bounds))
    for order in (others, others[::-1]):
        residual = encoded - ordered_sum(share_set.shares[order])
        assert np.array_equal(share_set.diagonal, residual)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    share_range=st.floats(min_value=1e-3, max_value=1e12),
    high=st.floats(min_value=0.0, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**31),
)
# bounds off the grid of step 2**-7: no grid point inside them lies within
# half a step of -0.99627
@example(n=35, share_range=502633886983.0, high=0.998046875, seed=35)
def test_shares_are_grid_points_that_sum_exactly(n, share_range, high, seed):
    rng = seeded_rng(seed)
    v = FeatureVector(values=rng.uniform(-high, high, 7), bounds=(-high, high))
    share_set = make_shares(v, n, share_range, rng=rng, owner=seed % n)
    f = grid_bits(n, share_range, v.bounds)
    bound = n * (2 * Fraction(share_range) + Fraction(high))
    assert bound * Fraction(2) ** f < 2**53 <= bound * Fraction(2) ** (f + 2)
    numerators = np.ldexp(share_set.shares, f)
    assert np.array_equal(numerators, np.round(numerators))
    assert np.all(np.abs(numerators) < 2.0**53)
    others = np.delete(share_set.shares, seed % n, axis=0)
    assert np.all(np.abs(others) <= share_range)
    encoded = encode(v.values, v.bounds, f)
    # a stack of vectors encodes row by row
    stack = encode(np.stack([v.values[::-1], v.values]), v.bounds, f)
    assert stack.tobytes() == np.stack([encoded[::-1], encoded]).tobytes()
    step = 2.0**-f
    # the nearest grid point inside the bounds: at most half a step away, or,
    # next to a bound off the grid, the outermost grid point, under a step away
    error = np.abs(encoded - v.values)
    assert np.all((-high <= encoded) & (encoded <= high))
    outermost = (encoded - step < -high) | (encoded + step > high)
    assert np.all((error <= step / 2) | (outermost & (error < step)))
    assert np.array_equal(ordered_sum(share_set.shares), encoded)
    assert np.array_equal(ordered_sum(share_set.shares[::-1]), encoded)


def test_off_diagonal_shares_in_range():
    v = FeatureVector(values=np.zeros(16), bounds=(0.0, 1.0))
    share_set = make_shares(v, 10, 5.0, rng=seeded_rng(1), owner=4)
    others = [k for k in range(10) if k != 4]
    assert np.all(np.abs(share_set.shares[others]) <= 5.0)


def test_shares_deterministic_for_fixed_seed():
    v = FeatureVector(values=np.array([0.5, 0.25]), bounds=(0.0, 1.0))
    a = make_shares(v, 3, 100.0, rng=seeded_rng(42), owner=0)
    b = make_shares(v, 3, 100.0, rng=seeded_rng(42), owner=0)
    assert a.shares.tobytes() == b.shares.tobytes()


# ranges of fewer and more than 2**32 values, through numpy's 32- and 64-bit
# bounded paths; the last is the default round's width, 100 * 2**39
@pytest.mark.parametrize(
    "width", [1000, 2**31, 2**32 - 1, 2**32, 2**33, 2**40, 100 * 2**39]
)
def test_share_steps_drawn_in_row_chunks_are_one_draw(width):
    # the round-robin transcript writer draws a block a chunk of rows at a
    # time; that must be the stream of one (n, d) draw, which numpy's
    # generator gives but does not document
    for d in (1, 3, 4, 699):
        for n in (2, 5, 10):
            whole = share_steps(np.random.default_rng(width + n * d), (n, d), width, 0)
            for rows in (1, 2, 3):
                rng = np.random.default_rng(width + n * d)
                chunks = [
                    share_steps(rng, (min(rows, n - start), d), width, 0)
                    for start in range(0, n, rows)
                ]
                assert np.array_equal(np.concatenate(chunks), whole), (d, n, rows)


def test_make_shares_rejects_nonfinite():
    v = FeatureVector(values=np.array([np.inf]), bounds=(0.0, float("inf")))
    with pytest.raises(ValueError):
        make_shares(v, 2, 100.0, rng=seeded_rng(0))


def test_make_shares_validates_arguments():
    v = FeatureVector(values=np.zeros(2), bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        make_shares(v, 0, 100.0, rng=seeded_rng(0))
    with pytest.raises(ValueError):
        make_shares(v, 2, 0.0, rng=seeded_rng(0))
    with pytest.raises(ValueError):
        make_shares(v, 2, 100.0, rng=seeded_rng(0), owner=2)


#: Grids no round can use, with the text that ``run_round`` gives for them
#: (tests/test_netsim.py ROUND_INPUT_FAULTS).
UNSERVABLE_GRIDS = {
    # a step above D: every peer share would be 0, the kept share the vector
    "zero_width_shares": (
        FeatureVector(values=np.array([0.5, 0.25])),
        1e-20,
        "share range D=1e-20 is too narrow for N=2 users: the grid step "
        "2^-51 = 4.44089e-16 exceeds D, so every share would be 0",
    ),
    # step 2^-11 at D = 1e12: 0.3 * 2^11 = 614.4 and 0.3001 * 2^11 = 614.6
    "no_grid_point_in_bounds": (
        FeatureVector(values=np.array([0.3]), bounds=(0.3, 0.3001)),
        1e12,
        "share range D=1e+12 is too coarse for N=2 users: the grid step "
        "2^-11 = 0.000488281 has no point inside the bounds (0.3, 0.3001)",
    ),
}


@pytest.mark.parametrize("grid", list(UNSERVABLE_GRIDS))
@pytest.mark.parametrize("call", ["make_shares", "encoded_sum"])
def test_unservable_grids_are_refused_as_a_round_refuses_them(call, grid):
    v, share_range, text = UNSERVABLE_GRIDS[grid]
    with pytest.raises(ValueError) as refused:
        if call == "make_shares":
            make_shares(v, 2, share_range, rng=seeded_rng(0))
        else:
            encoded_sum([v, v], share_range)
    assert str(refused.value) == text


#: The largest share range that ``grid_bits`` accepts for N users with
#: bounds (0, 1): one more ulp lets N vectors below 2**53 steps reach 2**1023.
LARGEST_SHARE_RANGES = {
    1: float.fromhex("0x1.fffffffffffffp+1020"),
    2: float.fromhex("0x1.fffffffffffffp+1018"),
    3: float.fromhex("0x1.5555555555554p+1018"),
    61: float.fromhex("0x1.0c9714fbcda3ap+1010"),
}


@pytest.mark.parametrize("n", list(LARGEST_SHARE_RANGES))
def test_grid_bits_refuses_one_ulp_past_the_largest_share_range(n):
    largest = LARGEST_SHARE_RANGES[n]
    assert n.bit_length() + 53 - grid_bits(n, largest, (0.0, 1.0)) == 1023
    beyond = float(np.nextafter(largest, np.inf))
    text = f"share range D={beyond:g} is too large for N={n} users: "
    with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
        grid_bits(n, beyond, (0.0, 1.0))


def _with_boundary_examples(test):
    """``test`` with an example at each largest share range and one past it."""
    for n, largest in LARGEST_SHARE_RANGES.items():
        for share_range in (largest, float(np.nextafter(largest, np.inf))):
            test = example(n=n, share_range=share_range, bounds=(0.0, 1.0), d=2, seed=n)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 64),
    share_range=st.integers(-30, 1023).map(lambda k: 2.0**k),
    bounds=st.sampled_from(
        [(0.0, 1.0), (-1.0, 1.0), (0.0, 5e307), (0.0, 1.7976931348623157e308)]
    ),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
# `aggregate --share-range 5e307` over three [5e307, 0.5]
@example(n=3, share_range=5e307, bounds=(0.0, 5e307), d=2, seed=14)
# D + max(|a|, |b|) / 2 passes the largest double
@example(n=1, share_range=2.0**1023, bounds=(0.0, 1.7976931348623157e308), d=1, seed=0)
@_with_boundary_examples
def test_every_accepted_grid_sums_its_round_exactly(n, share_range, bounds, d, seed):
    rng = seeded_rng(seed)
    a, b = bounds
    values = rng.uniform(a, b, (n, d))
    values[rng.random((n, d)) < 0.5] = b
    secrets = [FeatureVector(v, bounds) for v in values]
    cfg = RoundConfig(seed=seed, share_range=share_range)
    try:
        f = grid_bits(n, share_range, bounds)
    except ValueError as refused:  # and so is every round on this grid
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
            run_round(secrets, cfg)
        return
    assert n.bit_length() + 53 - f <= 1023
    try:
        check_grid(n, share_range, bounds, (values.min(), values.max()))
    except ValueError:  # the secrets would lose what they carry: take their grid points
        values = np.ldexp(encode_steps(values, bounds, f), -f)
        secrets = [FeatureVector(v, bounds) for v in values]
    total, _ = run_round(secrets, cfg)
    assert np.all(np.isfinite(total.values))
    assert total.values.tobytes() == encoded_sum(secrets, share_range).tobytes()
    steps = encode_steps(values, bounds, f)
    for j, value in enumerate(total.values.tolist()):
        assert Fraction(value) == sum(map(Fraction, steps[:, j].tolist())) * Fraction(2) ** -f


def test_share_uniformity():
    # 10^4 off-diagonal shares: range respected, per-coordinate mean within
    # five standard errors of zero.
    d, n_samples, share_range = 4, 10_000, 100.0
    rng = seeded_rng(123)
    v = FeatureVector(values=np.zeros(d), bounds=(0.0, 1.0))
    share_set = make_shares(v, n_samples + 1, share_range, rng=rng, owner=0)
    samples = share_set.shares[1:]
    assert np.all(np.abs(samples) <= share_range)
    stderr = (2 * share_range / np.sqrt(12)) / np.sqrt(n_samples)
    assert np.all(np.abs(samples.mean(axis=0)) <= 5 * stderr)


# ---------------------------------------------------------------------------
# combine_received / aggregate
# ---------------------------------------------------------------------------


def test_combine_with_no_peers():
    kept = np.array([1.0, 2.0])
    assert np.array_equal(combine_received(kept, []), kept)


def test_combine_simple_sum():
    out = combine_received(np.array([1.0, 0.0]), [np.array([-1.0, 2.0])])
    assert out.tolist() == [0.0, 2.0]
    assert not out.flags.writeable


def test_combine_length_mismatch():
    with pytest.raises(ValueError):
        combine_received(np.zeros(2), [np.zeros(3)])


def test_aggregate_all_zero():
    vectors = [np.zeros(3) for _ in range(4)]
    agg = aggregate(vectors, per_user_bounds=(0.0, 1.0))
    assert np.all(agg.values == 0.0)
    assert agg.bounds == (0.0, 4.0)


def test_aggregate_two_users_close_to_direct_sum():
    secrets = [
        FeatureVector(values=np.array([0.2]), bounds=(0.0, 1.0)),
        FeatureVector(values=np.array([0.3]), bounds=(0.0, 1.0)),
    ]
    agg = run_protocol(secrets, 100.0, seed=5)
    assert abs(agg.values[0] - 0.5) <= 1e-9


def test_aggregate_requires_vectors():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_dimension_mismatch():
    with pytest.raises(ValueError, match="disagree on dimension"):
        aggregate([np.zeros(2), np.zeros(3)])


def test_aggregate_order_independent():
    rng = seeded_rng(9)
    vectors = [rng.uniform(-5, 5, 6) for _ in range(5)]
    forward = aggregate(vectors, per_user_bounds=(0.0, 1.0))
    backward = aggregate(vectors[::-1], per_user_bounds=(0.0, 1.0))
    assert np.array_equal(forward.values, backward.values)


def test_aggregate_sum_is_correctly_rounded():
    # a float left-to-right sum loses the 1.0 entirely
    values = [np.array([1e100, 0.5]), np.array([1.0, 0.25]), np.array([-1e100, 0.25])]
    assert ordered_sum(values).tolist() == [0.0, 1.0]
    assert exact_sum(values).tolist() == [1.0, 1.0]
    assert not exact_sum(values).flags.writeable
    for order in (values, values[::-1]):
        assert aggregate(order).values.tolist() == [1.0, 1.0]


def _reference_exact_sum(vectors):
    """``exact_sum`` as it was before it dropped the two-sum pass, verbatim
    but for the freeze: left to right, with Knuth's two-sum error of every
    addition, and ``math.fsum`` again on each finite coordinate that rounded."""
    total = np.array(vectors[0], dtype=np.float64)
    rounded = np.zeros(total.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow stays inf
        for vec in vectors[1:]:
            partial = total + vec
            back = partial - total
            rounded |= (total - (partial - back)) + (vec - back) != 0
            total = partial
    redo = np.flatnonzero(rounded & np.isfinite(total))
    if redo.size:
        columns = np.stack([np.asarray(vec)[redo] for vec in vectors], axis=1)
        total[redo] = [math.fsum(column.tolist()) for column in columns]
    return total


# signed zeros, subnormals, infinities, NaN, and terms near the largest double,
# whose left-to-right partial sums overflow
SUM_EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, np.inf, -np.inf, np.nan,
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 9e307, 5e291,
    1.0, -1.0, 0.1, 1e16, 2.0**-60,
])
SUM_TERMS = st.one_of(SUM_EDGES, st.floats(), st.floats(-4.0, 4.0), st.integers(-9, 9).map(float))


@st.composite
def sum_stacks(draw):
    """N in 1..60 vectors of d in 1..8 doubles, dense or mostly zeros, some
    columns with one nonzero term."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 8))
    fill = draw(st.sampled_from([None, st.just(0.0), st.just(-0.0)]))
    stack = draw(arrays(np.float64, (n, d), elements=SUM_TERMS, fill=fill))
    for column in draw(st.sets(st.integers(0, d - 1))):
        keep = draw(st.integers(0, n - 1))
        stack[np.arange(n) != keep, column] = draw(st.sampled_from([0.0, -0.0]))
    return stack


@settings(max_examples=150, deadline=None)
@given(stack=sum_stacks())
@example(stack=np.array([[1.7976931348623157e308, 1e308], [1.0, -1e308], [-1e308, 1e308]]))
@example(stack=np.array([[-0.0], [-0.0]]))
@example(stack=np.array([[1e100, 0.5], [1.0, 0.25], [-1e100, 0.25]]))
# two NaNs with different payloads: the sum keeps the reference's payload
@example(stack=np.array([[0x7FF8000000000000], [0x7FF8000000000001]], dtype=np.uint64).view(np.float64))
def test_exact_sum_equals_the_two_sum_reference(stack):
    rows = list(stack)
    try:
        expected = _reference_exact_sum(rows)
    except OverflowError:  # math.fsum's exact sum of a coordinate overflows
        with pytest.raises(OverflowError):
            exact_sum(rows)
        return
    for vectors in (rows, stack):
        assert exact_sum(vectors).tobytes() == expected.tobytes()
    total = exact_sum(rows)
    for j in np.flatnonzero(np.isfinite(total)).tolist():
        assert total[j] == math.fsum(stack[:, j].tolist())


def test_full_round_n10_d1000_direct_sum_oracle():
    rng = seeded_rng(7)
    secrets = [unit_vector(rng, 1000) for _ in range(10)]
    agg = run_protocol(secrets, 100.0, seed=7)
    direct = ordered_sum([s.values for s in secrets])
    assert np.max(np.abs(agg.values - direct)) <= RECONSTRUCTION_TOL


@pytest.mark.parametrize("n", [1, 2, 5, 10, 50])
@pytest.mark.parametrize("d", [1, 10, 1000])
@pytest.mark.parametrize("share_range", [1.0, 100.0, 1e6])
def test_reconstruction_grid(n, d, share_range):
    rng = seeded_rng((n, d, int(share_range)))
    secrets = [unit_vector(rng, d) for _ in range(n)]
    agg = run_protocol(secrets, share_range, seed=11)
    direct = ordered_sum([s.values for s in secrets])
    # The aggregate is the exact sum of the encoded secrets, each within
    # 2^-(f+1) <= 2 * eps * D * N of its raw entry; the N rounding errors add
    # like a random walk, ~eps * D * N^1.5.  The 4x-eps floor covers the
    # D=1e6 corners beyond the nominal 1e-9 * max(1, D*N*1e-7) envelope.
    eps = 2.0**-52
    tol = max(1e-9 * max(1.0, share_range * n * 1e-7), 4 * eps * share_range * n**1.5)
    assert np.max(np.abs(agg.values - direct)) <= tol


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_reconstruction_property(n, d, seed):
    rng = seeded_rng(seed)
    secrets = [unit_vector(rng, d) for _ in range(n)]
    agg = run_protocol(secrets, 100.0, seed=seed)
    direct = ordered_sum([s.values for s in secrets])
    assert np.max(np.abs(agg.values - direct)) <= RECONSTRUCTION_TOL


# ---------------------------------------------------------------------------
# validate_aggregate
# ---------------------------------------------------------------------------


def test_validation_accepts_honest_round():
    rng = seeded_rng(2)
    secrets = [unit_vector(rng, 32) for _ in range(10)]
    agg = run_protocol(secrets, 100.0, seed=2)
    assert validate_aggregate(agg, 10, (0.0, 1.0)).ok


def test_validation_flags_inflated_coordinate():
    values = np.array([0.5, 0.5 + 1000.0, 0.5])
    agg = FeatureVector(values=values, bounds=(0.0, 10.0))
    report = validate_aggregate(agg, 10, (0.0, 1.0))
    assert not report.ok
    assert [j for j, _ in report.flagged] == [1]


def test_validation_boundary_inclusive():
    agg = FeatureVector(values=np.array([10.0, 0.0]), bounds=(0.0, 10.0))
    report = validate_aggregate(agg, 10, (0.0, 1.0), tolerance=0.0)
    assert report.ok


def test_validation_never_raises_on_nan():
    agg = FeatureVector(values=np.array([np.nan, 0.6, 0.6]), bounds=(0.0, 1.0))
    report = validate_aggregate(agg, 1, (0.0, 1.0))
    assert isinstance(report.ok, bool)
    assert not report.ok
    assert [j for j, _ in report.flagged] == [0]


# ---------------------------------------------------------------------------
# frozen: every class that keeps an array, and who may still write it
# ---------------------------------------------------------------------------

VOCAB = VocabularyIndex(["a", "b"], [1.0, 3.0])

#: Each class that keeps an array, as a function from array to kept array.
KEEPERS = {
    "frozen": frozen,
    "FeatureVector": lambda a: FeatureVector(values=a).values,
    "ShareSet": lambda a: ShareSet(owner=0, shares=a).shares,
    "Message": lambda a: Message(0, "0", "1", MessageKind.SHARE, a).payload,
    "PriorDistribution": lambda a: PriorDistribution(vocab=VOCAB, p=a).p,
    "PosteriorRanking": lambda a: PosteriorRanking(VOCAB, a, (0, 1)).scores,
    "VocabularyIndex": lambda a: VocabularyIndex(["a", "b"], a).idf,
}


def writable(buffer):
    return np.frombuffer(buffer)


def read_only_view(buffer):
    view = np.frombuffer(buffer)[:]
    view.setflags(write=False)
    return view


def read_only_over_bytearray(buffer):
    array = np.frombuffer(buffer)
    array.setflags(write=False)
    return array


@pytest.mark.parametrize("keeper", list(KEEPERS))
@pytest.mark.parametrize("source", [writable, read_only_view, read_only_over_bytearray])
def test_kept_array_is_copied_while_writable_memory_reaches_it(keeper, source):
    buffer = bytearray(np.array([0.25, 0.75]).tobytes())
    kept = KEEPERS[keeper](source(buffer))
    np.frombuffer(buffer)[0] = 0.5  # write the source memory
    assert kept[0] == 0.25
    assert not kept.flags.writeable


def frozen_array():
    array = np.array([0.25, 0.75])
    array.setflags(write=False)
    return array


def frozen_view():
    return frozen_array()[:]


def over_bytes():
    return np.frombuffer(np.array([0.25, 0.75]).tobytes())


@pytest.mark.parametrize("keeper", list(KEEPERS))
@pytest.mark.parametrize("source", [frozen_array, frozen_view, over_bytes])
def test_frozen_array_is_shared(keeper, source):
    array = source()
    assert np.shares_memory(KEEPERS[keeper](array), array)


def test_vocabulary_leaves_caller_idf_writable():
    idf = np.array([1.0, 2.0])
    vocab = VocabularyIndex(["a", "b"], idf)
    idf[0] = 5.0
    assert vocab.idf[0] == 1.0
