"""Deterministic in-memory simulation of one secure-aggregation round.

A round runs the protocol phases in order: every user splits her secret
into shares and sends the off-diagonal ones to her peers; once a user holds
all N-1 peer shares she sends her combined (obfuscated) vector to the
aggregator; the aggregator sums the N obfuscated vectors and broadcasts the
result.  Delivery order within each phase follows the configured schedule
(``round_robin`` or ``seeded_shuffle``); the aggregate is invariant to it
because every sum of the round is exact on ``secagg``'s grid.

``run_round`` runs a round in O(N·d) memory: it adds each user's block of
shares into the obfuscated vectors as integer grid steps, drops it, and
draws it again from her seed when the transcript is read.
``inject_adversary`` runs that round and rewrites, on the wire, the
messages that one misbehaving user changes.

Every transcript is one stream of sends, (round, sender, receiver, kind,
payload) tuples that a ``Message`` also unpacks to.  ``write_transcript``
saves the stream, every delivered message in order, as JSON Lines, with
each payload written as the base64 text of its d little-endian doubles:
exact for every double, at one C call per message.  A round's sends are
drawn again from its seeds, with no ``Message``: ``round_robin`` reaches
each sender's rows in order, so a block is drawn a few rows at a time, the
send order is computed as it goes and ``run`` writes in O(N·d) memory;
``seeded_shuffle`` may send any share first, so it draws whole blocks and
lists its N(N-1) sends.
"""

from __future__ import annotations

import binascii
import functools
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
    "Message",
    "MessageKind",
    "PrivacyReport",
    "RoundConfig",
    "Transcript",
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
        if not isinstance(self.sender, str) or not isinstance(self.receiver, str):
            raise TypeError("node names must be strings")
        object.__setattr__(self, "payload", secagg.frozen(self.payload))

    def __iter__(self):  # the send this message records
        return iter((self.round, self.sender, self.receiver, self.kind, self.payload))


@dataclass(frozen=True)
class Transcript:
    """Every delivered message of a run, plus the round parameters.

    ``parts`` are callables that yield the same sends, (round, sender,
    receiver, kind, payload) with str node names, on every call; in order
    they make up ``messages``, which ``messages=None`` builds on first read
    and keeps.  ``write_transcript`` streams the parts instead.
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
        messages = tuple(Message(*send) for part in self.parts for send in part())
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


def _round_seeds(secrets: Sequence[FeatureVector], cfg: RoundConfig, round_index: int):
    """The ``SeedSequence``s of a round's N users over ``secrets``, the one
    of its delivery order, and the bits f of its grid.

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
    f = secagg.check_grid(n, cfg.share_range, (a, b), (low, high))
    *users, deliver = np.random.SeedSequence((int(cfg.seed), int(round_index))).spawn(n + 1)
    return users, deliver, f


# Share rows the round-robin writer holds over all senders: up to N = 22 a
# sender's block is one draw, at N = 200 a draw is two rows.
_ROW_BUDGET = 512


def run_round(
    secrets: Sequence[FeatureVector], cfg: RoundConfig, round_index: int = 0
) -> tuple[FeatureVector, Transcript]:
    """Run one honest aggregation round over the users' secret vectors, in
    O(N·d) memory; ``ValueError`` for inputs that no round can take."""
    seeds, deliver_seed, f = _round_seeds(secrets, cfg, round_index)
    n, d, share_range = len(seeds), len(secrets[0]), cfg.share_range
    net = np.zeros((n, d), dtype=np.int64)  # row k: steps received - steps sent
    for i, seed in enumerate(seeds):
        steps = secagg.share_steps(np.random.default_rng(seed), (n, d), share_range, f)
        steps[i] = 0  # the residual stays with its owner
        net += steps
        net[i] -= steps.sum(axis=0)
    obfuscated = secagg.encode([s.values for s in secrets], secrets[0].bounds, f)
    if n > 1:  # adding +0.0 would turn a lone user's encoded -0.0 into +0.0
        # exact: every sum is below 2**53 steps
        obfuscated = secagg.freeze(obfuscated + np.ldexp(net, -f))
    result = secagg.aggregate(list(obfuscated), secrets[0].bounds)

    def sends():  # the shares drawn again from the seeds
        names = (*map(str, range(n)), AGGREGATOR_ID)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        deliver = np.random.default_rng(deliver_seed)
        rows = n if cfg.delivery == "seeded_shuffle" else max(1, _ROW_BUDGET // n)
        held = [(0, ())] * n  # per sender: index of its first held row, and the rows

        def share(i, k):  # round robin asks each sender's rows in order, a shuffle any
            start, block = held[i]
            while k >= start + len(block):  # the owner's own row is drawn, never sent
                start += len(block)
                steps = secagg.share_steps(rngs[i], (min(rows, n - start), d), share_range, f)
                block = secagg.freeze(np.ldexp(steps, -f))
                held[i] = start, block
            return block[k - start]

        # a user's obfuscated vector leaves when her last share arrives
        if cfg.delivery == "seeded_shuffle":
            peers = [[(i, k) for k in range(n) if k != i] for i in range(n)]
            shares = _schedule(peers, cfg.delivery, deliver)
            arrived = list(dict.fromkeys(k for _, k in reversed(shares)))[::-1] or [0]
        else:  # column c of sender i goes to c + (c >= i): user k < n - 1 hears
            # last from n - 1 in column k, n - 1 from n - 2 just before n - 2 does
            shares = ((i, c + (c >= i)) for c in range(n - 1) for i in range(n))
            arrived = [*range(n - 2), n - 1, n - 2][:n]
        for i, k in shares:
            yield round_index, names[i], names[k], MessageKind.SHARE, share(i, k)
        for k in _schedule([[k] for k in arrived], cfg.delivery, deliver):
            yield round_index, names[k], AGGREGATOR_ID, MessageKind.OBFUSCATED, obfuscated[k]
        for k in _schedule([[k] for k in range(n)], cfg.delivery, deliver):
            yield round_index, AGGREGATOR_ID, names[k], MessageKind.AGGREGATE, result.values

    return result, Transcript(n, d, share_range, cfg.seed, None, (sends,))


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

    The round is ``run_round``'s honest one over the same inputs, with the
    messages that the misbehaviour changes rewritten on the wire: each
    gains a value at ``coordinate``.  ``inflate_coordinate`` adds
    ``amount`` (default: enough to escape the admissible range) to the
    adversary's Obfuscated payload.  ``out_of_range_share`` raises her
    share for one peer to 2D; the peer's Obfuscated payload carries the
    excess and hers gives it up, so the aggregate is unchanged and only the
    transcript range check trips.  The aggregator sums the Obfuscated
    payloads as the wire carries them.  Returns the aggregate, transcript,
    and the aggregator's range-validation report.
    """
    behavior = AdversaryBehavior(behavior)
    n = len(secrets)
    if n < 2:
        raise ValueError("adversary injection needs at least two users")
    if not 0 <= adversary < n:
        raise ValueError("adversary index out of range")
    _, honest = run_round(secrets, cfg)
    if not 0 <= coordinate < honest.dim:
        raise ValueError("coordinate index out of range")
    a, b = secrets[0].bounds
    sender, peer = str(adversary), str(int(adversary == 0))
    if behavior is AdversaryBehavior.INFLATE_COORDINATE:
        gains = {(sender, AGGREGATOR_ID): n * (b - a) + 1.0 if amount is None else amount}
    else:
        share = next(m for m in honest.messages if (m.sender, m.receiver) == (sender, peer))
        excess = 2.0 * cfg.share_range - share.payload[coordinate]
        gains = {(sender, peer): excess, (peer, AGGREGATOR_ID): excess,
                 (sender, AGGREGATOR_ID): -excess}

    def rewrite(msg: Message) -> Message:
        gain = gains.get((msg.sender, msg.receiver))
        if gain is None:
            return msg
        values = msg.payload.copy()
        values[coordinate] += gain
        return replace(msg, payload=values)

    sent = [rewrite(m) for m in honest.messages if m.kind is not MessageKind.AGGREGATE]
    result = secagg.aggregate(
        [m.payload for m in sent if m.kind is MessageKind.OBFUSCATED], (a, b)
    )
    broadcasts = [
        replace(m, payload=result.values)
        for m in honest.messages
        if m.kind is MessageKind.AGGREGATE
    ]
    transcript = replace(honest, messages=tuple(sent + broadcasts))
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
    d, bounds = transcript.share_range, secrets[0].bounds
    f = secagg.grid_bits(transcript.n_users, d, bounds)
    encoded = secagg.encode([s.values for s in secrets], bounds, f)
    secret_owner = {
        _canonical_bytes(values): str(i)
        for i, s in enumerate(secrets)
        for values in (s.values, encoded[i])
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


def _format_payload(values: np.ndarray) -> bytes:
    """Base64 of the payload's doubles, little-endian: exact for every double."""
    raw = np.ascontiguousarray(values, dtype="<f8")
    return binascii.b2a_base64(raw, newline=False)


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


_LINE = b'{"round": %d, "from": %s, "to": %s, "kind": %s, "payload": "%s"}\n'
_KINDS = {kind: json.dumps(kind.value).encode() for kind in MessageKind}


def _jsonl_lines(transcript: Transcript) -> Iterator[bytes]:
    yield json.dumps(
        {
            "N": transcript.n_users,
            "d": transcript.dim,
            "D": transcript.share_range,
            "seed": transcript.seed,
        }
    ).encode() + b"\n"
    quote = functools.cache(lambda name: json.dumps(name).encode())  # once per name
    last = text = None
    for part in transcript.parts:
        for r, sender, receiver, kind, payload in part():
            if payload is not last:  # a round's broadcasts carry one array
                last, text = payload, _format_payload(payload)
            yield _LINE % (r, quote(sender), quote(receiver), _KINDS[kind], text)


def transcript_to_jsonl(transcript: Transcript) -> str:
    """JSON Lines text: a metadata header, then one message per line.

    A payload is the base64 text of its d doubles as little-endian IEEE-754
    bytes, which round-trips every double exactly (-0.0, infinities, NaN
    and subnormals included).
    """
    return b"".join(_jsonl_lines(transcript)).decode("ascii")


def write_transcript(transcript: Transcript, path: str | Path) -> None:
    """Write ``transcript_to_jsonl(transcript)`` to ``path``, line by line,
    drawing each round's shares again: a few rows of each block at a time
    under ``round_robin``, all N blocks under ``seeded_shuffle``."""
    with open(path, "wb", buffering=1 << 16) as handle:  # a write call per ~8 lines at d = 699
        handle.writelines(_jsonl_lines(transcript))


def _read_record(path: str | Path, lineno: int, line: bytes, parse):
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
    """Read a transcript that ``write_transcript`` wrote.  A line that is
    not UTF-8 JSON or lacks a field, a message of an unknown kind or with a
    node name other than a string, and a payload other than base64 of
    exactly d doubles raise ``ValueError`` naming the path and the line."""
    with open(path, "rb") as handle:  # json.loads decodes each line
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
