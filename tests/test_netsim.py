import binascii
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedtrend import netsim
from fedtrend.netsim import (
    AGGREGATOR_ID,
    DELIVERIES,
    AdversaryBehavior,
    Message,
    MessageKind,
    RoundConfig,
    Transcript,
    _round_seeds,
    _schedule,
    inject_adversary,
    load_transcript,
    run_round,
    transcript_privacy_check,
    transcript_to_jsonl,
    write_transcript,
)
from fedtrend.secagg import (
    FeatureVector,
    aggregate,
    combine_received,
    encode,
    encoded_sum,
    exact_sum,
    grid_bits,
    make_shares,
    ordered_sum,
    seeded_rng,
    validate_aggregate,
)


def random_secrets(n, d, seed):
    rng = seeded_rng(seed)
    return [
        FeatureVector(values=rng.uniform(0.0, 1.0, d), bounds=(0.0, 1.0))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# run_round
# ---------------------------------------------------------------------------


def test_single_user_round_degenerates():
    secrets = random_secrets(1, 4, seed=0)
    agg, transcript = run_round(secrets, RoundConfig(seed=0))
    assert np.array_equal(agg.values, encoded_sum(secrets, 100.0))
    assert transcript.count(MessageKind.SHARE) == 0
    assert transcript.count(MessageKind.OBFUSCATED) == 1
    assert transcript.count(MessageKind.AGGREGATE) == 1


def test_round_matches_direct_sum():
    secrets = random_secrets(10, 40, seed=3)
    agg, _ = run_round(secrets, RoundConfig(seed=3))
    direct = ordered_sum([s.values for s in secrets])
    assert np.max(np.abs(agg.values - direct)) <= 1e-9
    assert agg.bounds == (0.0, 10.0)


def test_round_deterministic_transcripts():
    secrets = random_secrets(5, 8, seed=11)
    cfg = RoundConfig(seed=11, delivery="seeded_shuffle")
    agg1, t1 = run_round(secrets, cfg)
    agg2, t2 = run_round(secrets, cfg)
    assert np.array_equal(agg1.values, agg2.values)
    assert transcript_to_jsonl(t1) == transcript_to_jsonl(t2)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_message_count_law(n):
    secrets = random_secrets(n, 6, seed=n)
    _, transcript = run_round(secrets, RoundConfig(seed=n))
    assert len(transcript.messages) == n * n + n
    assert transcript.count(MessageKind.SHARE) == n * (n - 1)
    assert transcript.count(MessageKind.OBFUSCATED) == n
    assert transcript.count(MessageKind.AGGREGATE) == n


@pytest.mark.parametrize("n, share_range", [(8, 100.0), (45, 1e6), (13, 13801.6)])
def test_delivery_schedules_agree_on_aggregate(n, share_range):
    secrets = random_secrets(n, 12, seed=21)
    agg_rr, t_rr = run_round(secrets, RoundConfig(21, share_range, "round_robin"))
    agg_sh, t_sh = run_round(secrets, RoundConfig(21, share_range, "seeded_shuffle"))
    # every sum of the round is exact, so both equal the exact encoded sum
    f = grid_bits(n, share_range, (0.0, 1.0))
    exact = exact_sum([encode(s.values, s.bounds, f) for s in secrets])
    assert encoded_sum(secrets, share_range).tobytes() == exact.tobytes()
    assert agg_rr.values.tobytes() == agg_sh.values.tobytes() == exact.tobytes()
    assert [m.sender for m in t_rr.messages] != [m.sender for m in t_sh.messages]
    assert len(t_rr.messages) == len(t_sh.messages) == n * n + n


def test_conservation_across_seeds():
    for seed in range(20):
        secrets = random_secrets(7, 9, seed=seed)
        agg, _ = run_round(secrets, RoundConfig(seed=seed))
        direct = ordered_sum([s.values for s in secrets])
        assert np.max(np.abs(agg.values - direct)) <= 1e-9


def _reference_round(secrets, cfg, round_index):
    """The round that ``run_round`` runs, built from ``secagg``'s primitives
    over the same seeds: each user's block from ``make_shares``, the shares
    in ``_schedule`` order, and each user's obfuscated vector from
    ``combine_received`` once her last share has arrived."""
    seeds, deliver_seed, _ = _round_seeds(secrets, cfg, round_index)
    n, r, deliver = len(secrets), round_index, np.random.default_rng(deliver_seed)
    blocks = [
        make_shares(s, n, cfg.share_range, rng=np.random.default_rng(seed), owner=i).shares
        for i, (s, seed) in enumerate(zip(secrets, seeds))
    ]
    peers = [
        [Message(r, str(i), str(k), MessageKind.SHARE, blocks[i][k]) for k in range(n) if k != i]
        for i in range(n)
    ]
    shares = _schedule(peers, cfg.delivery, deliver)
    received, ready = [[] for _ in range(n)], [0] if n == 1 else []
    for msg in shares:
        k = int(msg.receiver)
        received[k].append(msg.payload)
        if len(received[k]) == n - 1:
            ready.append(k)
    obfuscated = _schedule([
        [Message(r, str(k), AGGREGATOR_ID, MessageKind.OBFUSCATED,
                 combine_received(blocks[k][k], received[k], owner=k))]
        for k in ready
    ], cfg.delivery, deliver)
    result = aggregate([m.payload for m in obfuscated], secrets[0].bounds)
    broadcasts = _schedule([
        [Message(r, AGGREGATOR_ID, str(k), MessageKind.AGGREGATE, result.values)]
        for k in range(n)
    ], cfg.delivery, deliver)
    messages = tuple(shares + obfuscated + broadcasts)
    return result, Transcript(n, len(secrets[0]), cfg.share_range, cfg.seed, messages)


def _both_paths(secrets, cfg, round_index):
    """``run_round``'s result and transcript, then ``_reference_round``'s."""
    return run_round(secrets, cfg, round_index), _reference_round(secrets, cfg, round_index)


@pytest.mark.parametrize("round_index", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 45])
@pytest.mark.parametrize("delivery", ["round_robin", "seeded_shuffle"])
def test_engine_delivers_what_the_reference_delivers(delivery, n, round_index):
    secrets = random_secrets(n, 7, seed=n)
    cfg = RoundConfig(seed=5, delivery=delivery)
    (agg, transcript), (ref_agg, ref_transcript) = _both_paths(secrets, cfg, round_index)
    assert agg.values.tobytes() == ref_agg.values.tobytes()
    assert agg.bounds == ref_agg.bounds
    assert transcript_to_jsonl(transcript) == transcript_to_jsonl(ref_transcript)
    assert len(transcript.messages) == n * n + n


@pytest.mark.parametrize("row_budget", [1, 20, 30, 70])
def test_engine_draws_the_same_shares_in_any_row_chunks(monkeypatch, row_budget):
    # round robin draws each sender's block 1, 2, 3 or 7 rows at a time at
    # N = 10; a chunk can hold only the owner's row, which is never sent
    monkeypatch.setattr(netsim, "_ROW_BUDGET", row_budget)
    secrets = random_secrets(10, 7, seed=3)
    (_, transcript), (_, ref_transcript) = _both_paths(secrets, RoundConfig(seed=5), 0)
    assert transcript_to_jsonl(transcript) == transcript_to_jsonl(ref_transcript)


def test_engine_keeps_a_lone_users_signed_zero():
    # -1e-300 encodes to -0.0; a sum started from zeros would give +0.0
    secrets = [fv(-1e-300, 0.5, bounds=(-1.0, 1.0))]
    (agg, transcript), (ref_agg, ref_transcript) = _both_paths(
        secrets, RoundConfig(seed=0), 0
    )
    assert agg.values.tobytes() == ref_agg.values.tobytes()
    assert np.signbit(agg.values).tolist() == [True, False]
    assert transcript_to_jsonl(transcript) == transcript_to_jsonl(ref_transcript)
    # the oracle's sum keeps it too, where ndarray.sum would give +0.0
    assert encoded_sum(secrets, 100.0).tobytes() == agg.values.tobytes()


def test_engine_shares_payloads_by_reference():
    n, cfg = 4, RoundConfig(seed=6)
    secrets = random_secrets(n, 5, seed=6)
    result, transcript = run_round(secrets, cfg)
    seeds, _, _ = _round_seeds(secrets, cfg, 0)  # the same seeds
    blocks = [
        make_shares(s, n, cfg.share_range, rng=np.random.default_rng(seed), owner=i).shares
        for i, (s, seed) in enumerate(zip(secrets, seeds))
    ]
    shares = [m for m in transcript.messages if m.kind is MessageKind.SHARE]
    assert len(shares) == n * (n - 1)
    sender_blocks = {}
    for msg in shares:
        sender, receiver = int(msg.sender), int(msg.receiver)
        # a row view of the sender's frozen share block, not a copy
        block = sender_blocks.setdefault(msg.sender, msg.payload.base)
        assert msg.payload.base is block and not block.flags.writeable
        assert np.shares_memory(msg.payload, block[receiver])
        # the row that make_shares draws from the same rng, bit for bit
        assert msg.payload.tobytes() == blocks[sender][receiver].tobytes()
    assert len({id(block) for block in sender_blocks.values()}) == n
    # the residual each owner keeps travels in no message
    residuals = {blocks[i][i].tobytes() for i in range(n)}
    assert not any(m.payload.tobytes() in residuals for m in transcript.messages)
    broadcast = [m.payload for m in transcript.messages if m.kind is MessageKind.AGGREGATE]
    assert len(broadcast) == n
    assert all(payload is result.values for payload in broadcast)


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("delivery", DELIVERIES)
def test_transcript_follows_the_protocol_phases(delivery, n):
    # read from the transcript alone, without the reference round
    cfg = RoundConfig(seed=4, delivery=delivery)
    agg, transcript = run_round(random_secrets(n, 5, seed=4), cfg)
    users = [str(k) for k in range(n)]
    kinds = [m.kind for m in transcript.messages]
    phases = [MessageKind.SHARE, MessageKind.OBFUSCATED, MessageKind.AGGREGATE]
    assert kinds == sorted(kinds, key=phases.index)
    # every user hears once from each peer, and from no one else
    for k in users:
        senders = [m.sender for m in transcript.messages
                   if m.kind is MessageKind.SHARE and m.receiver == k]
        assert sorted(senders) == sorted(u for u in users if u != k)
    vectors = [m for m in transcript.messages if m.kind is MessageKind.OBFUSCATED]
    assert sorted(m.sender for m in vectors) == sorted(users)
    assert {m.receiver for m in vectors} == {AGGREGATOR_ID}
    broadcasts = [m for m in transcript.messages if m.kind is MessageKind.AGGREGATE]
    assert sorted(m.receiver for m in broadcasts) == sorted(users)
    assert all(m.sender == AGGREGATOR_ID for m in broadcasts)
    assert all(m.payload.tobytes() == agg.values.tobytes() for m in broadcasts)


def test_transcript_builds_its_messages_once_on_first_read():
    _, transcript = run_round(random_secrets(3, 2, seed=1), RoundConfig(seed=1))
    assert "messages" not in vars(transcript)
    messages = transcript.messages
    assert type(messages) is tuple and transcript.messages is messages
    replaced = dataclasses.replace(transcript, messages=messages[:2])
    assert replaced.messages == messages[:2]
    assert [m for part in replaced.parts for m in part()] == list(messages[:2])


@st.composite
def conformance_rounds(draw):
    """Up to 8 users' secrets in bounds around 0, where entries such as
    -0.0 and -1e-300 encode to -0.0, and a share range from 1e-3 to 1e12."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    a, b = draw(st.floats(-4.0, 0.0)), draw(st.floats(0.0, 4.0))
    entry = st.floats(a, b) | st.sampled_from([-0.0, -1e-300, 0.0, a, b])
    secrets = [
        fv(*draw(st.lists(entry, min_size=d, max_size=d)), bounds=(a, b)) for _ in range(n)
    ]
    return secrets, 10.0 ** draw(st.floats(-3.0, 12.0))


@settings(max_examples=150, deadline=None)
@given(conformance_rounds(), st.sampled_from(["round_robin", "seeded_shuffle"]),
       st.integers(0, 1), st.integers(0, 2**32))
def test_engine_conforms_to_the_reference_on_every_accepted_grid(
    round_, delivery, round_index, seed
):
    secrets, share_range = round_
    cfg = RoundConfig(seed=seed, share_range=share_range, delivery=delivery)
    try:
        (agg, transcript), (ref_agg, ref_transcript) = _both_paths(
            secrets, cfg, round_index
        )
    except ValueError:
        assume(False)  # check_grid refuses this grid for these secrets
    assert agg.values.tobytes() == ref_agg.values.tobytes()
    assert agg.bounds == ref_agg.bounds
    jsonl = transcript_to_jsonl(transcript)
    assert jsonl == transcript_to_jsonl(ref_transcript)
    # each read draws the shares and the delivery order again from the seeds
    assert transcript_to_jsonl(transcript) == jsonl
    copies = [dataclasses.replace(transcript) for _ in range(2)]
    assert [transcript_to_jsonl(c) for c in copies] == [jsonl, jsonl]


def test_run_round_peak_memory_is_linear_in_users():
    n, d = 80, 64
    secrets = random_secrets(n, d, seed=8)
    run_round(secrets, RoundConfig(seed=8))  # warm numpy's and the rngs' caches
    tracemalloc.start()
    try:
        run_round(secrets, RoundConfig(seed=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one user's block of shares is N·d; all N blocks at once would be 80x that
    assert peak < 10 * n * d * 8


def test_write_transcript_peak_memory_is_linear_in_users(tmp_path):
    n, d = 60, 200
    _, transcript = run_round(random_secrets(n, d, seed=9), RoundConfig(seed=9))
    path = tmp_path / "transcript.jsonl"
    write_transcript(transcript, path)  # warm numpy's and the rngs' caches
    tracemalloc.start()
    try:
        write_transcript(transcript, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # round robin holds a few rows of each sender's block, not all N blocks
    assert peak < n * n * d * 8 / 4


def test_write_transcript_keeps_no_send_order_at_small_d(tmp_path):
    n, d = 200, 1
    _, transcript = run_round(random_secrets(n, d, seed=9), RoundConfig(seed=9))
    path = tmp_path / "transcript.jsonl"
    write_transcript(transcript, path)  # warm numpy's and the rngs' caches
    tracemalloc.start()
    try:
        write_transcript(transcript, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # round robin computes each (sender, receiver) pair as it sends; a list
    # of all N(N-1) pairs would hold about 70 bytes each, 2.7 MiB here
    assert peak < 16 * n * n


# ---------------------------------------------------------------------------
# privacy checks
# ---------------------------------------------------------------------------


def test_honest_round_has_no_violations():
    secrets = random_secrets(4, 6, seed=8)
    _, transcript = run_round(secrets, RoundConfig(seed=8))
    assert transcript_privacy_check(transcript, secrets).ok


def test_privacy_sweep_small():
    for seed in range(50):
        secrets = random_secrets(5, 8, seed=seed)
        _, transcript = run_round(secrets, RoundConfig(seed=seed))
        assert transcript_privacy_check(transcript, secrets).ok


def test_planted_raw_vector_leak_is_flagged():
    secrets = random_secrets(3, 4, seed=1)
    _, transcript = run_round(secrets, RoundConfig(seed=1))
    leak = Message(0, "1", AGGREGATOR_ID, MessageKind.OBFUSCATED, secrets[1].values)
    tampered = Transcript(
        n_users=transcript.n_users,
        dim=transcript.dim,
        share_range=transcript.share_range,
        seed=transcript.seed,
        messages=transcript.messages + (leak,),
    )
    report = transcript_privacy_check(tampered, secrets)
    assert len(report.violations) == 1
    index, reason = report.violations[0]
    assert index == len(tampered.messages) - 1
    assert "user 1" in reason


def test_single_user_round_is_flagged():
    # with no peers, the obfuscated vector is the user's encoded vector
    secrets = random_secrets(1, 4, seed=0)
    _, transcript = run_round(secrets, RoundConfig(seed=0))
    report = transcript_privacy_check(transcript, secrets)
    assert report.violations == (
        (0, "Obfuscated message from 0 to aggregator equals the raw vector of user 0"),
    )


def test_planted_encoded_vector_leak_is_flagged():
    secrets = random_secrets(3, 4, seed=1)
    _, transcript = run_round(secrets, RoundConfig(seed=1))
    f = grid_bits(3, transcript.share_range, secrets[2].bounds)
    encoded = encode(secrets[2].values, secrets[2].bounds, f)
    assert not np.array_equal(encoded, secrets[2].values)
    leak = Message(0, "0", "1", MessageKind.SHARE, encoded)
    tampered = Transcript(3, 4, transcript.share_range, 1, transcript.messages + (leak,))
    report = transcript_privacy_check(tampered, secrets)
    reason = "Share message from 0 to 1 equals the raw vector of user 2"
    assert report.violations == ((len(tampered.messages) - 1, reason),)


def test_share_range_violation_is_flagged():
    secrets = random_secrets(3, 4, seed=2)
    _, transcript = run_round(secrets, RoundConfig(seed=2))
    bad = Message(0, "0", "2", MessageKind.SHARE, np.full(4, 250.0))
    tampered = Transcript(
        n_users=3,
        dim=4,
        share_range=transcript.share_range,
        seed=2,
        messages=transcript.messages + (bad,),
    )
    report = transcript_privacy_check(tampered, secrets)
    assert not report.ok
    assert any("outside" in reason for _, reason in report.violations)


# ---------------------------------------------------------------------------
# adversary injection
# ---------------------------------------------------------------------------


def test_inflation_outside_range_is_flagged():
    secrets = random_secrets(10, 8, seed=5)
    _, _, report = inject_adversary(
        secrets,
        RoundConfig(seed=5),
        AdversaryBehavior.INFLATE_COORDINATE,
        adversary=3,
        coordinate=2,
        amount=10.0 + 1.0,  # beyond N*b no matter the honest sum
    )
    assert not report.ok
    assert [j for j, _ in report.flagged] == [2]


def test_within_range_inflation_passes_validation():
    # Manipulation that stays inside [N*a, N*b] is undetectable by design.
    secrets = [
        FeatureVector(values=np.full(4, 0.1), bounds=(0.0, 1.0)) for _ in range(10)
    ]
    _, _, report = inject_adversary(
        secrets,
        RoundConfig(seed=6),
        "inflate_coordinate",
        adversary=0,
        coordinate=1,
        amount=0.5,
    )
    assert report.ok


def test_out_of_range_share_detected_in_transcript():
    secrets = random_secrets(5, 4, seed=9)
    agg, transcript, report = inject_adversary(
        secrets,
        RoundConfig(seed=9),
        AdversaryBehavior.OUT_OF_RANGE_SHARE,
        adversary=2,
        coordinate=3,
    )
    # the aggregate itself stays consistent, so range validation passes...
    assert report.ok
    direct = ordered_sum([s.values for s in secrets])
    assert np.max(np.abs(agg.values - direct)) <= 1e-9
    # ...but the per-message range check trips
    privacy = transcript_privacy_check(transcript, secrets)
    assert any("outside" in reason for _, reason in privacy.violations)


@pytest.mark.parametrize("amount", [np.inf, -np.inf, np.nan])
def test_non_finite_inflation_is_flagged(amount):
    # the aggregator sums what the wire carries; no range holds inf or NaN
    secrets = random_secrets(4, 3, seed=2)
    agg, _, report = inject_adversary(
        secrets, RoundConfig(seed=2), "inflate_coordinate", adversary=1, coordinate=2,
        amount=amount,
    )
    assert [j for j, _ in report.flagged] == [2]
    assert np.isfinite(agg.values[:2]).all()
    assert np.array_equal(agg.values[2:], [amount], equal_nan=True)


@pytest.mark.parametrize("delivery", DELIVERIES)
@pytest.mark.parametrize(
    "behavior, rewritten",
    [
        ("inflate_coordinate", {("2", AGGREGATOR_ID)}),
        ("out_of_range_share", {("2", "0"), ("0", AGGREGATOR_ID), ("2", AGGREGATOR_ID)}),
    ],
)
def test_adversary_round_is_the_honest_round_rewritten(behavior, rewritten, delivery):
    n, cfg = 5, RoundConfig(seed=12, delivery=delivery)
    secrets = random_secrets(n, 4, seed=12)
    honest_agg, honest = run_round(secrets, cfg)
    agg, transcript, _ = inject_adversary(secrets, cfg, behavior, adversary=2, coordinate=1)

    def route(m):
        return m.round, m.sender, m.receiver, m.kind

    assert list(map(route, transcript.messages)) == list(map(route, honest.messages))
    assert len(transcript.messages) == n * n + n
    changed = [
        (m, h) for m, h in zip(transcript.messages, honest.messages)
        if m.payload.tobytes() != h.payload.tobytes()
    ]
    assert all(np.flatnonzero(m.payload != h.payload).tolist() == [1] for m, h in changed)
    # at D = 100 the 2D share is on the grid, so the excess cancels exactly
    moved = behavior == "inflate_coordinate"
    broadcasts = {(AGGREGATOR_ID, str(k)) for k in range(n)} if moved else set()
    assert {(m.sender, m.receiver) for m, _ in changed} == rewritten | broadcasts
    assert (agg.values.tobytes() == honest_agg.values.tobytes()) is not moved


def fv(*values, bounds=(0.0, 1.0)):
    return FeatureVector(values=np.array(values, dtype=float), bounds=bounds)


ROUND_INPUT_FAULTS = {
    "mixed_dimensions": ([fv(0.5, 0.5), fv(0.5, 0.5, 0.5)], 100.0, r"same dimension"),
    "no_coordinates": ([fv(), fv()], 100.0, r"same dimension, at least 1$"),
    "mixed_bounds": ([fv(0.5), fv(0.5, bounds=(0.0, 2.0))], 100.0, r"same bounds$"),
    "infinite_bound": (
        [fv(0.5, bounds=(0.0, np.inf)), fv(0.5, bounds=(0.0, np.inf))],
        100.0,
        r"^bounds \(0, inf\) must be finite$",
    ),
    "out_of_bounds": ([fv(0.5), fv(1.5)], 100.0, r"^secret of user 1 violates"),
    "nan_entry": ([fv(np.nan), fv(0.5)], 100.0, r"^secret of user 0 violates"),
    # N = 2 at D = 1e16: the grid step 2^3 rounds every entry to 0
    "coarse_grid": (
        [fv(0.2, 0.4), fv(0.3, 0.1)],
        1e16,
        r"^share range D=1e\+16 is too coarse for N=2 users: the grid step 2\^3 = 8",
    ),
    # a grid step above D leaves every share at 0, so each obfuscated
    # vector would be its sender's encoded secret
    "zero_width_shares": (
        [fv(0.2, 0.4), fv(0.3, 0.1)],
        1e-20,
        r"^share range D=1e-20 is too narrow for N=2 users: the grid step "
        r"2\^-51 = 4\.44089e-16 exceeds D, so every share would be 0$",
    ),
    # D = 1e-310 inside bounds (0, 1e-310) puts the step at 2^-1080, below
    # the smallest double, so not every grid point is a double
    "subnormal_grid": (
        [fv(3e-311, bounds=(0.0, 1e-310)), fv(1e-311, bounds=(0.0, 1e-310))],
        1e-310,
        r"^share range D=1e-310 is too small for N=2 users: the grid step "
        r"2\^-1080 = 0 is below the smallest double, 2\^-1074$",
    ),
    "zero_width_shares_wide_bounds": (
        [fv(1e20, 0.4, bounds=(0.0, 1e20)), fv(0.3, 3e5, bounds=(0.0, 1e20))],
        100.0,
        r"^share range D=100 is too narrow for N=2 users: the grid step 2\^15 = 32768 ",
    ),
    # step 2^-11 at D = 1e12: 0.3 * 2^11 = 614.4 and 0.3001 * 2^11 = 614.6
    "no_grid_point_in_bounds": (
        [fv(0.3, bounds=(0.3, 0.3001)), fv(0.3001, bounds=(0.3, 0.3001))],
        1e12,
        r"^share range D=1e\+12 is too coarse for N=2 users: the grid step "
        r"2\^-11 = 0\.000488281 has no point inside the bounds \(0\.3, 0\.3001\)$",
    ),
    # step 1 at D = 2^50: both secrets would encode to 1, the one grid point
    # inside the bounds, and the aggregate would read 2 for a true sum of 0.7
    "one_grid_point": (
        [fv(0.1, bounds=(0.1, 1.0)), fv(0.6, bounds=(0.1, 1.0))],
        2.0**50,
        r"^share range D=1\.1259e\+15 is too coarse for N=2 users: the grid step "
        r"2\^0 = 1 leaves one point, 1, inside the bounds \(0\.1, 1\)$",
    ),
    # 0 lies outside the bounds, so no secret encodes to 0; each encodes to 1
    "one_grid_point_above_zero": (
        [fv(0.1, bounds=(0.1, 1.0)), fv(0.1, bounds=(0.1, 1.0))],
        2.0**50,
        r"2\^0 = 1 rounds every secret to 1, the grid point nearest 0 inside the "
        r"bounds \(0\.1, 1\)$",
    ),
    # step 1 at D = 2^50 with points 1, 2 and 3 inside the bounds: both
    # secrets would encode to 1, the point nearest 0, and sum to 2, not 0.2
    "every_secret_to_the_point_nearest_zero": (
        [fv(0.1, bounds=(0.1, 3.0)), fv(0.1, bounds=(0.1, 3.0))],
        2.0**50,
        r"^share range D=1\.1259e\+15 is too coarse for N=2 users: the grid step "
        r"2\^0 = 1 rounds every secret to 1, the grid point nearest 0 inside the "
        r"bounds \(0\.1, 3\)$",
    ),
    "every_secret_to_the_point_nearest_zero_below_zero": (
        [fv(-0.1, -0.2, bounds=(-3.0, -0.1))] * 2,
        2.0**50,
        r"rounds every secret to -1, the grid point nearest 0 inside the bounds "
        r"\(-3, -0\.1\)$",
    ),
}


@pytest.mark.parametrize("fault", list(ROUND_INPUT_FAULTS))
@pytest.mark.parametrize("entry", ["run_round", "inject_adversary"])
def test_round_entries_share_one_input_check(entry, fault):
    secrets, share_range, cause = ROUND_INPUT_FAULTS[fault]
    cfg = RoundConfig(seed=0, share_range=share_range)
    with pytest.raises(ValueError, match=cause):
        if entry == "run_round":
            run_round(secrets, cfg)
        else:
            inject_adversary(secrets, cfg, "out_of_range_share", adversary=1)


@st.composite
def in_bound_rounds(draw):
    """Secrets inside one pair of bounds, of any scale, and a share range."""
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=25))
    a = draw(st.floats(min_value=-scale, max_value=scale))
    b = draw(st.floats(min_value=a, max_value=a + scale))
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entries = st.lists(st.floats(min_value=a, max_value=b), min_size=d, max_size=d)
    secrets = [fv(*draw(entries), bounds=(a, b)) for _ in range(n)]
    return secrets, 10.0 ** draw(st.floats(min_value=-20, max_value=20))


@settings(max_examples=300, deadline=None)
@given(round_=in_bound_rounds())
# 0.7 * 2^11 = 1433.6 would round up past the bound 0.7 at D = 1e12
@example(round_=([fv(0.7, 0.3, bounds=(0.3, 0.7))] * 2, 1e12))
def test_accepted_rounds_over_in_bound_secrets_pass_range_validation(round_):
    secrets, share_range = round_
    try:
        agg, _ = run_round(secrets, RoundConfig(seed=0, share_range=share_range))
    except ValueError:
        return  # no round runs on a grid that cannot carry these secrets
    report = validate_aggregate(agg, len(secrets), secrets[0].bounds)
    assert report.ok, report.flagged


def test_secrets_at_the_one_grid_point_pass():
    secrets = [fv(1.0, 1.0, bounds=(0.1, 1.0))] * 2
    agg, _ = run_round(secrets, RoundConfig(0, share_range=2.0**50))
    assert agg.values.tolist() == [2.0, 2.0]


def test_all_zero_secrets_pass_any_grid():
    # nothing is lost when the secrets are 0 to begin with
    agg, _ = run_round([fv(0.0, 0.0), fv(0.0, 0.0)], RoundConfig(0, share_range=1e16))
    assert not agg.values.any()


def test_inject_adversary_needs_two_users():
    with pytest.raises(ValueError):
        inject_adversary(
            random_secrets(1, 2, seed=0),
            RoundConfig(seed=0),
            "inflate_coordinate",
        )


@pytest.mark.parametrize("behavior", list(AdversaryBehavior))
@pytest.mark.parametrize(
    "index, value", [("adversary", -1), ("adversary", 4), ("coordinate", -1), ("coordinate", 3)]
)
def test_inject_adversary_rejects_an_index_out_of_range(behavior, index, value):
    secrets = random_secrets(4, 3, seed=0)  # N = 4 users, d = 3 coordinates
    with pytest.raises(ValueError, match=f"^{index} index out of range$"):
        inject_adversary(secrets, RoundConfig(seed=0), behavior, **{index: value})


# ---------------------------------------------------------------------------
# transcript serialization
# ---------------------------------------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payloads=st.lists(arrays(np.float64, 5, elements=st.floats()), max_size=12))
@example(payloads=[np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324])])
def test_transcript_jsonl_roundtrip(tmp_path, payloads):
    secrets = random_secrets(3, 5, seed=13)
    _, transcript = run_round(secrets, RoundConfig(seed=13))
    # arbitrary doubles in place of the first payloads: -0.0, infinities,
    # NaN and subnormals come back bit for bit, since a payload is the
    # base64 of its bytes
    messages = list(transcript.messages)
    for i, payload in enumerate(payloads):
        messages[i] = dataclasses.replace(messages[i], payload=payload)
    transcript = dataclasses.replace(transcript, messages=tuple(messages))
    path = tmp_path / "transcript.jsonl"
    write_transcript(transcript, path)
    assert path.read_text(encoding="utf-8") == transcript_to_jsonl(transcript)
    loaded = load_transcript(path)
    assert loaded.n_users == transcript.n_users
    assert loaded.dim == transcript.dim
    assert loaded.share_range == transcript.share_range
    assert loaded.seed == transcript.seed
    assert len(loaded.messages) == len(transcript.messages)
    for original, parsed in zip(transcript.messages, loaded.messages):
        assert parsed.round == original.round
        assert parsed.kind is original.kind
        assert parsed.sender == original.sender
        assert parsed.receiver == original.receiver
        assert parsed.payload.tobytes() == original.payload.tobytes()
        # kept read-only over the decoded bytes, not copied
        assert type(parsed.payload.base) is bytes


@pytest.mark.parametrize(
    "payload, reason",
    [
        ([0.25, 0.5], "is not a base64 string"),
        (None, "is not a base64 string"),
        ("AAAAAAAA@AAAAAAAAAAAAAA", "is not valid base64"),
        ("AAAAAAAAAAA", "is not valid base64"),
        # the lenient decoder reads this as one byte
        ("AA==AAAAAAAAAAAAAAAAAAAA", "is not valid base64"),
        ("AAAAAAAAAAAAAAAAAAAAAA\u00e9", "is not valid base64"),
        (
            binascii.b2a_base64(bytes(24), newline=False).decode(),
            "holds 24 bytes, not 8 \\* d = 16",
        ),
        ("", "holds 0 bytes"),
    ],
)
def test_load_transcript_rejects_malformed_payload(tmp_path, payload, reason):
    _, transcript = run_round(random_secrets(2, 2, seed=5), RoundConfig(seed=5))
    lines = transcript_to_jsonl(transcript).splitlines(keepends=True)
    record = json.loads(lines[3])
    record["payload"] = payload
    lines[3] = json.dumps(record) + "\n"
    path = tmp_path / "transcript.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"line 4: payload {reason}"):
        load_transcript(path)


@pytest.mark.parametrize(
    "index, line, reason",
    [
        (3, "not json\n", r"not JSON \(Expecting value"),
        (3, '{"round": 0, "from": "0", "to": "1", "payload": ""}\n', r"missing field 'kind'$"),
        (
            3,
            '{"round": 0, "from": "0", "to": "1", "kind": "Shared", "payload": ""}\n',
            r"'Shared' is not a valid MessageKind$",
        ),
        (
            3,
            '{"round": 0, "from": [0], "to": "1", "kind": "Share", '
            '"payload": "AAAAAAAAAAAAAAAAAAAAAA=="}\n',
            r"node names must be strings$",
        ),
        (0, "garbage\n", r"not JSON \(Expecting value"),
        (0, '{"N": 2, "D": 100.0, "seed": 5}\n', r"missing field 'd'$"),
    ],
    ids=[
        "not_json", "missing_field", "unknown_kind", "list_name", "header_not_json",
        "header_without_d",
    ],
)
def test_load_transcript_names_the_bad_line(tmp_path, index, line, reason):
    _, transcript = run_round(random_secrets(2, 2, seed=5), RoundConfig(seed=5))
    lines = transcript_to_jsonl(transcript).splitlines(keepends=True)
    lines[index] = line
    path = tmp_path / "transcript.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    where = f"^{re.escape(str(path))}: line {index + 1}: "
    with pytest.raises(ValueError, match=where + reason):
        load_transcript(path)


@pytest.mark.parametrize("index", [0, 3], ids=["header", "message"])
def test_load_transcript_names_a_line_that_is_not_utf8(tmp_path, index):
    _, transcript = run_round(random_secrets(2, 2, seed=5), RoundConfig(seed=5))
    lines = transcript_to_jsonl(transcript).encode().splitlines(keepends=True)
    lines[index] = lines[index].replace(b'"', b'"\xff', 1)
    path = tmp_path / "transcript.jsonl"
    path.write_bytes(b"".join(lines))
    where = f"^{re.escape(str(path))}: line {index + 1}: "
    with pytest.raises(ValueError, match=where + "'utf-8' codec can't decode byte 0xff"):
        load_transcript(path)


def test_transcript_header_fields(tmp_path):
    secrets = random_secrets(2, 3, seed=17)
    _, transcript = run_round(secrets, RoundConfig(seed=17))
    text = transcript_to_jsonl(transcript)
    header = json.loads(text.splitlines()[0])
    assert header == {"N": 2, "d": 3, "D": 100.0, "seed": 17}


def test_round_config_validation():
    with pytest.raises(ValueError):
        RoundConfig(seed=0, delivery="carrier_pigeon")
    with pytest.raises(ValueError):
        RoundConfig(seed=0, share_range=0.0)
    with pytest.raises(ValueError):
        RoundConfig(seed=0, share_range=float("inf"))
    with pytest.raises(ValueError):
        RoundConfig(seed=-1)
