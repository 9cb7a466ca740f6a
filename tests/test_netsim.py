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

from fedtrend.netsim import (
    AGGREGATOR_ID,
    AdversaryBehavior,
    AggregatorNode,
    Message,
    MessageKind,
    ProtocolViolation,
    RoundConfig,
    Transcript,
    UserNode,
    inject_adversary,
    load_transcript,
    run_round,
    transcript_privacy_check,
    transcript_to_jsonl,
    write_transcript,
)
from fedtrend.secagg import (
    FeatureVector,
    encode,
    exact_sum,
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
    assert np.array_equal(agg.values, encode(secrets[0], 1, 100.0))
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
    exact = exact_sum([encode(s, n, share_range) for s in secrets])
    assert agg_rr.values.tobytes() == agg_sh.values.tobytes() == exact.tobytes()
    assert [m.sender for m in t_rr.messages] != [m.sender for m in t_sh.messages]
    assert len(t_rr.messages) == len(t_sh.messages) == n * n + n


def test_conservation_across_seeds():
    for seed in range(20):
        secrets = random_secrets(7, 9, seed=seed)
        agg, _ = run_round(secrets, RoundConfig(seed=seed))
        direct = ordered_sum([s.values for s in secrets])
        assert np.max(np.abs(agg.values - direct)) <= 1e-9


def test_no_phantom_knowledge():
    from fedtrend.netsim import _execute_round, _round_users

    cfg = RoundConfig(seed=4)
    users, deliver_rng = _round_users(random_secrets(6, 5, seed=4), cfg, 0)
    _execute_round(users, cfg, 0, deliver_rng)
    for i, user in enumerate(users):
        assert sorted(user.received) == [k for k in range(6) if k != i]
        assert user.result is not None


def test_honest_round_shares_payloads_by_reference():
    from fedtrend.netsim import _execute_round, _round_users

    n = 4
    cfg = RoundConfig(seed=6)
    users, deliver_rng = _round_users(random_secrets(n, 5, seed=6), cfg, 0)
    result, transcript = _execute_round(users, cfg, 0, deliver_rng)
    shares = [m for m in transcript.messages if m.kind is MessageKind.SHARE]
    assert len(shares) == n * (n - 1)
    for msg in shares:
        # a row view of the sender's frozen share set, not a copy
        assert msg.payload.base is users[int(msg.sender)].kept.base
    broadcast = [m.payload for m in transcript.messages if m.kind is MessageKind.AGGREGATE]
    assert len(broadcast) == n
    assert all(payload is result.values for payload in broadcast)
    assert all(user.result.values is result.values for user in users)


def _both_paths(secrets, cfg, round_index):
    """``run_round``'s result and transcript, then those of the honest nodes
    that ``_execute_round`` runs over the same inputs."""
    from fedtrend.netsim import _execute_round, _round_users

    engine = run_round(secrets, cfg, round_index)
    users, deliver_rng = _round_users(secrets, cfg, round_index)
    return engine, _execute_round(users, cfg, round_index, deliver_rng)


@pytest.mark.parametrize("round_index", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 45])
@pytest.mark.parametrize("delivery", ["round_robin", "seeded_shuffle"])
def test_engine_delivers_what_the_nodes_deliver(delivery, n, round_index):
    secrets = random_secrets(n, 7, seed=n)
    cfg = RoundConfig(seed=5, delivery=delivery)
    (agg, transcript), (node_agg, node_transcript) = _both_paths(secrets, cfg, round_index)
    assert agg.values.tobytes() == node_agg.values.tobytes()
    assert agg.bounds == node_agg.bounds
    assert transcript_to_jsonl(transcript) == transcript_to_jsonl(node_transcript)
    assert len(transcript.messages) == n * n + n


def test_engine_keeps_a_lone_users_signed_zero():
    # -1e-300 encodes to -0.0; a sum started from zeros would give +0.0
    secrets = [fv(-1e-300, 0.5, bounds=(-1.0, 1.0))]
    (agg, transcript), (node_agg, node_transcript) = _both_paths(
        secrets, RoundConfig(seed=0), 0
    )
    assert agg.values.tobytes() == node_agg.values.tobytes()
    assert np.signbit(agg.values).tolist() == [True, False]
    assert transcript_to_jsonl(transcript) == transcript_to_jsonl(node_transcript)


def test_engine_shares_payloads_by_reference():
    from fedtrend.netsim import _round_users

    n, cfg = 4, RoundConfig(seed=6)
    secrets = random_secrets(n, 5, seed=6)
    result, transcript = run_round(secrets, cfg)
    users, _ = _round_users(secrets, cfg, 0)  # the same rngs, undrawn
    blocks = [
        make_shares(s, n, cfg.share_range, rng=user.rng, owner=i).shares
        for i, (s, user) in enumerate(zip(secrets, users))
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
def test_engine_conforms_to_the_nodes_on_every_accepted_grid(round_, delivery, round_index, seed):
    secrets, share_range = round_
    cfg = RoundConfig(seed=seed, share_range=share_range, delivery=delivery)
    try:
        (agg, transcript), (node_agg, node_transcript) = _both_paths(
            secrets, cfg, round_index
        )
    except ValueError:
        assume(False)  # check_grid refuses this grid for these secrets
    assert agg.values.tobytes() == node_agg.values.tobytes()
    assert agg.bounds == node_agg.bounds
    jsonl = transcript_to_jsonl(transcript)
    assert jsonl == transcript_to_jsonl(node_transcript)
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


# ---------------------------------------------------------------------------
# state machine violations
# ---------------------------------------------------------------------------


def make_user(index=0, n_users=3):
    secret = FeatureVector(values=np.array([0.5]), bounds=(0.0, 1.0))
    return UserNode(index, secret, n_users, 100.0, seeded_rng(0))


def share_msg(sender, receiver, payload=(0.0,)):
    return Message(0, str(sender), str(receiver), MessageKind.SHARE, np.asarray(payload))


def obfuscated_msg(sender, payload=(0.5,)):
    return Message(
        0, str(sender), AGGREGATOR_ID, MessageKind.OBFUSCATED, np.asarray(payload)
    )


def share_before_start():
    make_user().receive_share(share_msg(1, 0))


def duplicate_share():
    user = make_user()
    user.start(0)
    user.receive_share(share_msg(1, 0))
    user.receive_share(share_msg(1, 0))


def share_after_obfuscating():
    user = make_user(n_users=2)
    user.start(0)
    out = user.receive_share(share_msg(1, 0))
    assert out is not None and out.kind is MessageKind.OBFUSCATED
    user.receive_share(share_msg(1, 0))


def shares_to_user_0(*messages, n_users=3):
    user = make_user(n_users=n_users)
    user.start(0)
    for msg in messages:
        user.receive_share(msg)


class SilentUser(UserNode):
    def _maybe_obfuscate(self, round_no):
        return None


def round_with_silent_user(silent=1, n=3):
    from fedtrend.netsim import _execute_round, _round_users

    secrets = random_secrets(n, 2, seed=0)
    cfg = RoundConfig(seed=0)
    users, deliver_rng = _round_users(secrets, cfg, 0)
    users[silent] = SilentUser(
        silent, secrets[silent], n, cfg.share_range, users[silent].rng
    )
    _execute_round(users, cfg, 0, deliver_rng)


def aggregator_fed(*messages, n_users=3):
    agg = AggregatorNode(n_users, per_user_bounds=(0.0, 1.0))
    for msg in messages:
        agg.receive(msg)
    return agg


PROTOCOL_FAULTS = {
    "share_before_start": (share_before_start, r"^user 0: share received"),
    "duplicate_share": (duplicate_share, r"^user 0: .*duplicate share from 1$"),
    "share_after_obfuscating": (share_after_obfuscating, r"^user 0: .*phase Obfuscated"),
    "share_from_non_user": (
        lambda: shares_to_user_0(share_msg("mallory", 0)),
        r"^user 0: unexpected or duplicate share from mallory$",
    ),
    "share_from_unknown_user": (
        lambda: shares_to_user_0(share_msg(3, 0)),
        r"^user 0: unexpected or duplicate share from 3$",
    ),
    "share_wrong_length": (
        lambda: shares_to_user_0(share_msg(2, 0, [0.5, 0.5])),
        r"^user 0: share from 2 has shape \(2,\), not \(1,\)$",
    ),
    "share_nan": (
        lambda: shares_to_user_0(share_msg(1, 0, [np.nan]), n_users=2),
        r"^user 0: share from 1 has a non-finite entry$",
    ),
    "share_inf_then_honest": (
        lambda: shares_to_user_0(share_msg(2, 0, [np.inf]), share_msg(1, 0)),
        r"^user 0: share from 2 has a non-finite entry$",
    ),
    "share_to_aggregator": (
        lambda: aggregator_fed(share_msg(0, AGGREGATOR_ID)),
        r"^aggregator: received Share message from 0$",
    ),
    "duplicate_vector": (
        lambda: aggregator_fed(obfuscated_msg(1), obfuscated_msg(1)),
        r"duplicate vector from 1$",
    ),
    "unknown_sender": (lambda: aggregator_fed(obfuscated_msg(3)), r"vector from 3$"),
    "non_user_sender": (
        lambda: aggregator_fed(obfuscated_msg("mallory")),
        r"^aggregator: unexpected or duplicate vector from mallory$",
    ),
    "nan": (
        lambda: aggregator_fed(obfuscated_msg(0), obfuscated_msg(2, [np.nan])),
        r"vector from 2 has a non-finite entry",
    ),
    "inf": (
        lambda: aggregator_fed(obfuscated_msg(1, [-np.inf])),
        r"vector from 1 has a non-finite entry",
    ),
    "wrong_length": (
        lambda: aggregator_fed(obfuscated_msg(0), obfuscated_msg(2, [0.5, 0.5])),
        r"vector from 2 has shape \(2,\), not \(1,\)",
    ),
    "missing_vector": (
        round_with_silent_user,
        r"without all obfuscated vectors; missing users 1$",
    ),
    "missing_vectors": (
        lambda: aggregator_fed(obfuscated_msg(1), n_users=4).finish(),
        r"missing users 0, 2, 3$",
    ),
}


@pytest.mark.parametrize("fault", list(PROTOCOL_FAULTS))
def test_protocol_violation_names_node(fault):
    action, names_node = PROTOCOL_FAULTS[fault]
    with pytest.raises(ProtocolViolation, match=names_node):
        action()


def test_user_rejects_double_start():
    user = make_user()
    user.start(0)
    with pytest.raises(ProtocolViolation, match="start"):
        user.start(0)


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
    encoded = encode(secrets[2], 3, transcript.share_range)
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
        (0, "garbage\n", r"not JSON \(Expecting value"),
        (0, '{"N": 2, "D": 100.0, "seed": 5}\n', r"missing field 'd'$"),
    ],
    ids=["not_json", "missing_field", "unknown_kind", "header_not_json", "header_without_d"],
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
