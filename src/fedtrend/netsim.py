"""Deterministic in-memory simulation of one secure-aggregation round.

A round runs the protocol phases in order: every user splits her secret
into shares and sends the off-diagonal ones to her peers; once a user holds
all N-1 peer shares she sends her combined (obfuscated) vector to the
aggregator; the aggregator sums the N obfuscated vectors and broadcasts the
result.  Delivery order within each phase follows the configured schedule
(``round_robin`` or ``seeded_shuffle``); the aggregate is invariant to it
because every sum of the round is exact on ``secagg``'s grid.

``run_round``, the honest path, computes in O(N·d) memory: it adds each
user's block of shares into the obfuscated vectors as integer grid steps,
drops it, and draws it again from her seed when the transcript is read.
``UserNode`` and ``AggregatorNode`` are state machines exchanging messages
over an in-process queue: ``inject_adversary`` runs them, rewriting one
user's outgoing messages on the wire, and as honest nodes they deliver
what ``run_round`` does.  Both paths share one input check.

``write_transcript`` saves a transcript, every delivered message in order,
as JSON Lines, with each payload written as the base64 text of its d
little-endian doubles: exact for every double, at one C call per message.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import secagg
from .secagg import FeatureVector, RangeReport

__all__ = [
    "AGGREGATOR_ID",
    "DELIVERIES",
    "AdversaryBehavior",
    "AggregatorNode",
    "Message",
    "MessageKind",
    "PrivacyReport",
    "ProtocolViolation",
    "RoundConfig",
    "Transcript",
    "UserNode",
    "inject_adversary",
    "load_transcript",
    "run_round",
    "transcript_privacy_check",
    "transcript_to_jsonl",
    "write_transcript",
]

AGGREGATOR_ID = "aggregator"
#: Delivery schedules of a round's phases, the default first.
DELIVERIES = ("round_robin", "seeded_shuffle")


class ProtocolViolation(RuntimeError):
    """A node acted out of phase; the message names the offending node."""


class MessageKind(Enum):
    SHARE = "Share"
    OBFUSCATED = "Obfuscated"
    AGGREGATE = "Aggregate"


class AdversaryBehavior(Enum):
    INFLATE_COORDINATE = "inflate_coordinate"
    OUT_OF_RANGE_SHARE = "out_of_range_share"


@dataclass(frozen=True, eq=False)
class Message:
    round: int
    sender: str
    receiver: str
    kind: MessageKind
    payload: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payload", secagg.frozen(self.payload))


@dataclass(frozen=True)
class Transcript:
    """Every delivered message of a run, plus the round parameters.

    ``parts`` are callables that yield the same messages on every call; in
    order they make up ``messages``, which ``messages=None`` builds on first
    read and keeps.  ``write_transcript`` streams the parts instead.
    """

    n_users: int
    dim: int
    share_range: float
    seed: int
    messages: tuple[Message, ...] | None
    parts: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        messages = self.messages
        if messages is None:
            object.__delattr__(self, "messages")  # so a read reaches __getattr__
        else:
            object.__setattr__(self, "parts", (lambda: messages,))

    def __getattr__(self, name: str):
        if name != "messages":
            raise AttributeError(name)
        messages = tuple(m for part in self.parts for m in part())
        object.__setattr__(self, "messages", messages)
        return messages

    def count(self, kind: MessageKind) -> int:
        return sum(1 for m in self.messages if m.kind is kind)


@dataclass(frozen=True)
class RoundConfig:
    seed: int
    share_range: float = secagg.DEFAULT_SHARE_RANGE
    delivery: str = DELIVERIES[0]

    def __post_init__(self):
        if self.delivery not in DELIVERIES:
            raise ValueError(f"unknown delivery schedule: {self.delivery!r}")
        if not 0 < self.share_range < math.inf:
            raise ValueError("share_range must be positive and finite")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")


class _Phase(Enum):
    INIT = "Init"
    SHARES_SENT = "SharesSent"
    OBFUSCATED = "Obfuscated"
    DONE = "Done"


def _user_index(sender: str, n_users: int) -> int | None:
    """The index of the user of the round that ``sender`` names, else None."""
    index = int(sender) if str(sender).isdecimal() else -1
    return index if 0 <= index < n_users else None


def _check_shape(node: str, what: str, msg: Message, shape: tuple) -> None:
    if msg.payload.shape != shape:
        raise ProtocolViolation(
            f"{node}: {what} from {msg.sender} has shape {msg.payload.shape}, not {shape}"
        )


class UserNode:
    """Protocol state machine for one user.

    Transitions Init -> SharesSent -> Obfuscated -> Done only; the
    obfuscated vector is emitted after exactly N-1 peer shares arrived.
    """

    def __init__(self, index, secret, n_users, share_range, rng):
        self.index = int(index)
        self.id = str(index)
        self.secret: FeatureVector = secret
        self.n_users = n_users
        self.share_range = share_range
        self.rng = rng
        self.phase = _Phase.INIT
        self.kept: np.ndarray | None = None
        self.received: dict[int, np.ndarray] = {}
        self.result: FeatureVector | None = None

    def start(self, round_no: int) -> tuple[list[Message], Message | None]:
        """Create shares; returns the peer messages and, when the user has
        no peers to wait for (N=1), her obfuscated message right away."""
        if self.phase is not _Phase.INIT:
            raise ProtocolViolation(f"user {self.id}: start() called twice")
        share_set = secagg.make_shares(
            self.secret, self.n_users, self.share_range, rng=self.rng, owner=self.index
        )
        self.kept = share_set.diagonal
        outgoing = [
            Message(round_no, self.id, str(k), MessageKind.SHARE, share_set.share_for(k))
            for k in range(self.n_users)
            if k != self.index
        ]
        self.phase = _Phase.SHARES_SENT
        return outgoing, self._maybe_obfuscate(round_no)

    def receive_share(self, msg: Message) -> Message | None:
        if self.phase is not _Phase.SHARES_SENT:
            raise ProtocolViolation(
                f"user {self.id}: share received in phase {self.phase.value}"
            )
        sender = _user_index(msg.sender, self.n_users)
        if sender is None or sender == self.index or sender in self.received:
            raise ProtocolViolation(
                f"user {self.id}: unexpected or duplicate share from {msg.sender}"
            )
        _check_shape(f"user {self.id}", "share", msg, self.kept.shape)
        self.received[sender] = msg.payload
        return self._maybe_obfuscate(msg.round)

    def _maybe_obfuscate(self, round_no: int) -> Message | None:
        if len(self.received) != self.n_users - 1:
            return None
        total = secagg.combine_received(self.kept, list(self.received.values()))
        # a non-finite entry in any share makes the sum non-finite, so one
        # check of the sum covers every share before anything is sent
        if not np.isfinite(total).all():
            for sender, share in self.received.items():
                if not np.isfinite(share).all():
                    raise ProtocolViolation(
                        f"user {self.id}: share from {sender} has a non-finite entry"
                    )
        self.phase = _Phase.OBFUSCATED
        return Message(round_no, self.id, AGGREGATOR_ID, MessageKind.OBFUSCATED, total)

    def receive_aggregate(self, msg: Message) -> None:
        if self.phase is not _Phase.OBFUSCATED:
            raise ProtocolViolation(
                f"user {self.id}: aggregate received in phase {self.phase.value}"
            )
        a, b = self.secret.bounds
        self.result = FeatureVector(msg.payload, (self.n_users * a, self.n_users * b))
        self.phase = _Phase.DONE


class AggregatorNode:
    """Collects the N obfuscated vectors and sums them; never sees shares."""

    def __init__(self, n_users: int, per_user_bounds: tuple[float, float]):
        self.n_users = n_users
        self.per_user_bounds = per_user_bounds
        self.buffer: dict[int, np.ndarray] = {}
        self.result: FeatureVector | None = None

    def receive(self, msg: Message) -> None:
        if msg.kind is not MessageKind.OBFUSCATED:
            raise ProtocolViolation(
                f"aggregator: received {msg.kind.value} message from {msg.sender}"
            )
        owner = _user_index(msg.sender, self.n_users)
        if owner is None or owner in self.buffer:
            raise ProtocolViolation(
                f"aggregator: unexpected or duplicate vector from {msg.sender}"
            )
        first = next(iter(self.buffer.values()), msg.payload)
        _check_shape("aggregator", "vector", msg, first.shape)
        if not np.isfinite(msg.payload).all():
            raise ProtocolViolation(
                f"aggregator: vector from {msg.sender} has a non-finite entry"
            )
        self.buffer[owner] = msg.payload
        if len(self.buffer) == self.n_users:
            self.result = secagg.aggregate(
                list(self.buffer.values()), per_user_bounds=self.per_user_bounds
            )

    def finish(self) -> FeatureVector:
        """The aggregate; raises, naming the users whose vectors never came,
        when the round ends early."""
        if self.result is None:
            missing = [i for i in range(self.n_users) if i not in self.buffer]
            raise ProtocolViolation(
                "aggregator: round ended without all obfuscated vectors; "
                f"missing users {', '.join(map(str, missing))}"
            )
        return self.result


# ---------------------------------------------------------------------------
# Round execution
# ---------------------------------------------------------------------------


def _schedule(batches: list[list], delivery: str, rng) -> list:
    """Order one phase's items: cycle senders, or shuffle with the rng."""
    if delivery == "seeded_shuffle":
        flat = [m for batch in batches for m in batch]
        return [flat[i] for i in rng.permutation(len(flat))]
    width = max((len(b) for b in batches), default=0)
    return [b[i] for i in range(width) for b in batches if i < len(b)]


def _execute_round(users, cfg, round_index, deliver_rng, send=lambda msg: msg):
    """Deliver one round among ``users``; ``send`` maps each message a user
    emits to the message the wire carries."""
    n = len(users)
    secret = users[0].secret
    aggregator = AggregatorNode(n, per_user_bounds=secret.bounds)
    delivered: list[Message] = []

    share_batches: list[list[Message]] = []
    obfuscated: list[Message] = []
    for user in users:
        outgoing, obf = user.start(round_index)
        share_batches.append([send(m) for m in outgoing])
        if obf is not None:
            obfuscated.append(send(obf))

    for msg in _schedule(share_batches, cfg.delivery, deliver_rng):
        delivered.append(msg)
        reply = users[int(msg.receiver)].receive_share(msg)
        if reply is not None:
            obfuscated.append(send(reply))

    for msg in _schedule([[m] for m in obfuscated], cfg.delivery, deliver_rng):
        delivered.append(msg)
        aggregator.receive(msg)

    result = aggregator.finish()

    broadcasts = [
        [Message(round_index, AGGREGATOR_ID, u.id, MessageKind.AGGREGATE, result.values)]
        for u in users
    ]
    for msg in _schedule(broadcasts, cfg.delivery, deliver_rng):
        delivered.append(msg)
        users[int(msg.receiver)].receive_aggregate(msg)

    return result, Transcript(n, len(secret), cfg.share_range, cfg.seed, tuple(delivered))


def _round_users(secrets: Sequence[FeatureVector], cfg: RoundConfig, round_index: int):
    """The users of a round over ``secrets``, and its delivery rng.

    The one check of a round's inputs: ``ValueError`` unless there is at
    least one user, the secrets share one dimension d >= 1 and one pair of
    bounds, every secret lies inside them, and ``secagg.check_grid``
    accepts the grid for them.
    """
    n = len(secrets)
    if n < 1:
        raise ValueError("need at least one user")
    if len({len(s) for s in secrets}) != 1 or len(secrets[0]) < 1:
        raise ValueError("all secrets must have the same dimension, at least 1")
    bounds = {s.bounds for s in secrets}
    if len(bounds) != 1:
        raise ValueError("all secrets must declare the same bounds")
    a, b = bounds.pop()
    low, high = math.inf, -math.inf
    for i, s in enumerate(secrets):
        s_low, s_high = float(s.values.min()), float(s.values.max())
        if not a <= s_low <= s_high <= b:  # NaN fails too
            raise ValueError(f"secret of user {i} violates its declared bounds")
        low, high = min(low, s_low), max(high, s_high)
    secagg.check_grid(n, cfg.share_range, (a, b), (low, high))
    seeds = np.random.SeedSequence((int(cfg.seed), int(round_index))).spawn(n + 1)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    users = [UserNode(i, secrets[i], n, cfg.share_range, rngs[i]) for i in range(n)]
    return users, rngs[n]


def run_round(
    secrets: Sequence[FeatureVector], cfg: RoundConfig, round_index: int = 0
) -> tuple[FeatureVector, Transcript]:
    """Run one honest aggregation round over the users' secret vectors;
    ``ValueError`` for inputs that no round can take.  What
    ``_execute_round`` returns for honest users, in O(N·d) memory."""
    users, deliver_rng = _round_users(secrets, cfg, round_index)
    n, d, share_range = len(users), len(secrets[0]), cfg.share_range
    f = secagg.grid_bits(n, share_range, secrets[0].bounds)
    net = np.zeros((n, d), dtype=np.int64)  # row k: steps received - steps sent
    for user in users:
        steps = secagg.share_steps(user.rng, (n, d), share_range, f)
        steps[user.index] = 0  # the residual stays with its owner
        net += steps
        net[user.index] -= steps.sum(axis=0)
    obfuscated = np.stack([secagg.encode(s, n, share_range) for s in secrets])
    if n > 1:  # adding +0.0 would turn a lone user's encoded -0.0 into +0.0
        obfuscated += np.ldexp(net, -f)  # exact: every sum is below 2**53 steps
    obfuscated.setflags(write=False)
    result = secagg.aggregate(list(obfuscated), secrets[0].bounds)
    seeds = [rng.bit_generator.seed_seq for rng in [u.rng for u in users] + [deliver_rng]]

    def messages():  # the blocks drawn again from the seeds; residuals stay unsent
        *rngs, deliver = [np.random.default_rng(seed) for seed in seeds]
        blocks = [np.ldexp(secagg.share_steps(rng, (n, d), share_range, f), -f)
                  for rng in rngs]
        for block in blocks:
            block.setflags(write=False)
        peers = [[(i, k) for k in range(n) if k != i] for i in range(n)]
        shares, r = _schedule(peers, cfg.delivery, deliver), round_index
        for i, k in shares:
            yield Message(r, str(i), str(k), MessageKind.SHARE, blocks[i][k])
        # a user's obfuscated vector leaves when her last share arrives
        arrived = list(dict.fromkeys(k for _, k in reversed(shares)))[::-1] or [0]
        for k in _schedule([[k] for k in arrived], cfg.delivery, deliver):
            yield Message(r, str(k), AGGREGATOR_ID, MessageKind.OBFUSCATED, obfuscated[k])
        for k in _schedule([[k] for k in range(n)], cfg.delivery, deliver):
            yield Message(r, AGGREGATOR_ID, str(k), MessageKind.AGGREGATE, result.values)

    return result, Transcript(n, d, share_range, cfg.seed, None, (messages,))


# ---------------------------------------------------------------------------
# Adversary injection
# ---------------------------------------------------------------------------


def inject_adversary(
    secrets: Sequence[FeatureVector],
    cfg: RoundConfig,
    behavior: AdversaryBehavior | str,
    adversary: int = 0,
    coordinate: int = 0,
    amount: float | None = None,
) -> tuple[FeatureVector, Transcript, RangeReport]:
    """Run a round where one designated user misbehaves.

    Every user runs the honest protocol on inputs that ``run_round``
    accepts; only the adversary's outgoing messages are rewritten on the
    wire.  ``inflate_coordinate`` adds ``amount`` (default: enough to
    escape the admissible range) to one coordinate of her Obfuscated
    payload.  ``out_of_range_share`` puts 2D into that coordinate of her
    first peer share and takes the excess off her Obfuscated payload, so
    the aggregate is unchanged and only the transcript range check trips.
    Returns the aggregate, transcript, and the aggregator's
    range-validation report.
    """
    behavior = AdversaryBehavior(behavior)
    n = len(secrets)
    if n < 2:
        raise ValueError("adversary injection needs at least two users")
    if not 0 <= adversary < n:
        raise ValueError("adversary index out of range")
    users, deliver_rng = _round_users(secrets, cfg, 0)
    a, b = secrets[0].bounds
    sender, peer = str(adversary), str(int(adversary == 0))
    added: dict[str, float] = {}  # receiver -> what the coordinate gains
    if behavior is AdversaryBehavior.INFLATE_COORDINATE:
        added[AGGREGATOR_ID] = n * (b - a) + 1.0 if amount is None else amount

    def send(msg: Message) -> Message:
        if msg.sender != sender:
            return msg
        if behavior is AdversaryBehavior.OUT_OF_RANGE_SHARE and msg.receiver == peer:
            excess = 2.0 * cfg.share_range - msg.payload[coordinate]
            added.update({peer: excess, AGGREGATOR_ID: -excess})
        if msg.receiver not in added:
            return msg
        values = msg.payload.copy()
        values[coordinate] += added[msg.receiver]
        return replace(msg, payload=values)

    result, transcript = _execute_round(users, cfg, 0, deliver_rng, send)
    return result, transcript, secagg.validate_aggregate(result, n, (a, b))


# ---------------------------------------------------------------------------
# Privacy checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyReport:
    """Transcript-level violations, as (message index, reason) pairs."""

    violations: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _canonical_bytes(values: np.ndarray) -> bytes:
    # fold -0.0 onto +0.0 so byte equality matches numeric equality
    v = np.asarray(values, dtype=np.float64)
    return np.where(v == 0.0, 0.0, v).astype("<f8").tobytes()


def transcript_privacy_check(
    transcript: Transcript, secrets: Sequence[FeatureVector]
) -> PrivacyReport:
    """Honest-but-curious audit of a recorded round.

    Checks that (i) no payload delivered to the aggregator equals any
    user's raw vector, (ii) every user-to-user share lies in [-D, D]^d, and
    (iii) no node other than user i ever observes user i's raw vector.  A
    raw vector counts both as given and as the round's grid encodes it.
    """
    d = transcript.share_range
    secret_owner = {
        _canonical_bytes(values): str(i)
        for i, s in enumerate(secrets)
        for values in (s.values, secagg.encode(s, transcript.n_users, d))
    }
    violations: list[tuple[int, str]] = []
    for idx, msg in enumerate(transcript.messages):
        if (
            msg.kind is MessageKind.SHARE
            and msg.sender != AGGREGATOR_ID
            and msg.receiver != AGGREGATOR_ID
        ):
            if np.any(msg.payload < -d) or np.any(msg.payload > d):
                violations.append(
                    (idx, f"share from {msg.sender} to {msg.receiver} outside [-D, D]")
                )
        owner = secret_owner.get(_canonical_bytes(msg.payload))
        if owner is not None and msg.receiver != owner:
            violations.append(
                (
                    idx,
                    f"{msg.kind.value} message from {msg.sender} to {msg.receiver} "
                    f"equals the raw vector of user {owner}",
                )
            )
    return PrivacyReport(violations=tuple(violations))


# ---------------------------------------------------------------------------
# Transcript serialization
# ---------------------------------------------------------------------------


def _format_payload(values: np.ndarray) -> str:
    """Base64 of the payload's doubles, little-endian: exact for every double."""
    raw = np.ascontiguousarray(values, dtype="<f8")
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _parse_payload(payload, dim: int) -> np.ndarray:
    """The ``dim`` doubles that ``_format_payload`` wrote as ``payload``,
    read-only over the decoded bytes; a ``ValueError`` if ``payload`` is
    anything else."""
    if not isinstance(payload, str):
        raise ValueError("payload is not a base64 string")
    try:
        raw = binascii.a2b_base64(payload)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raw = None
    # the decoder skips stray characters; only the writer's own text
    # encodes its bytes back to itself
    if raw is None or binascii.b2a_base64(raw, newline=False) != payload.encode():
        raise ValueError("payload is not valid base64")
    if len(raw) != 8 * dim:
        raise ValueError(f"payload holds {len(raw)} bytes, not 8 * d = {8 * dim}")
    return np.frombuffer(raw, dtype="<f8")


def _jsonl_lines(transcript: Transcript) -> Iterator[str]:
    yield json.dumps(
        {
            "N": transcript.n_users,
            "d": transcript.dim,
            "D": transcript.share_range,
            "seed": transcript.seed,
        }
    ) + "\n"
    for msg in (m for part in transcript.parts for m in part()):
        yield '{"round": %d, "from": %s, "to": %s, "kind": %s, "payload": "%s"}\n' % (
            msg.round,
            json.dumps(msg.sender),
            json.dumps(msg.receiver),
            json.dumps(msg.kind.value),
            _format_payload(msg.payload),
        )


def transcript_to_jsonl(transcript: Transcript) -> str:
    """JSON Lines text: a metadata header, then one message per line.

    A payload is the base64 text of its d doubles as little-endian IEEE-754
    bytes, which round-trips every double exactly (-0.0, infinities, NaN
    and subnormals included).
    """
    return "".join(_jsonl_lines(transcript))


def write_transcript(transcript: Transcript, path: str | Path) -> None:
    """Write ``transcript_to_jsonl(transcript)`` to ``path``, line by line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_jsonl_lines(transcript))


def _read_record(path: str | Path, lineno: int, line: str, parse):
    """``parse`` of the JSON object on line ``lineno`` of ``path``; a
    ``ValueError`` naming the path and the line if that line is not JSON,
    lacks a field or holds a bad value."""
    try:
        return parse(json.loads(line))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {lineno}: not JSON ({exc})") from None
    except KeyError as exc:
        raise ValueError(f"{path}: line {lineno}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None


def load_transcript(path: str | Path) -> Transcript:
    """Read a transcript that ``write_transcript`` wrote.  A header or
    message line that is not JSON or lacks a field, a message of an unknown
    kind and a payload other than base64 of exactly d doubles raise
    ``ValueError`` naming the path and the line."""
    with open(path, encoding="utf-8") as handle:
        header = _read_record(path, 1, handle.readline(), lambda rec: Transcript(
            int(rec["N"]), int(rec["d"]), float(rec["D"]), int(rec["seed"]), ()
        ))
        messages = tuple(
            _read_record(path, lineno, line, lambda rec: Message(
                int(rec["round"]), rec["from"], rec["to"], MessageKind(rec["kind"]),
                _parse_payload(rec["payload"], header.dim),
            ))
            for lineno, line in enumerate(handle, start=2)
            if line.strip()
        )
    return replace(header, messages=messages)
