"""Deterministic in-memory simulation of one secure-aggregation round.

A round runs the protocol phases in order: every user splits her secret
into shares and sends the off-diagonal ones to her peers; once a user holds
all N-1 peer shares she sends her combined (obfuscated) vector to the
aggregator; the aggregator sums the N obfuscated vectors and broadcasts the
result.  Delivery order within each phase follows the configured schedule
(``round_robin`` or ``seeded_shuffle``); the aggregate is invariant to it
because every sum of the round is exact on ``secagg``'s grid.

``run_round`` draws no share and spawns no seed: shares cancel in the
aggregate, the int64 sum of the encoded secrets' grid steps.  They exist
only in a round's transcript: each read spawns the seeds, draws the shares,
each row once, adds them into the encoded secrets' steps, yields the
Obfuscated vectors from those steps, and raises ``CancellationError``
before the broadcast unless those sum to the aggregate.  ``inject_adversary``
rewrites a round's sends, as they are read, where one misbehaving user changes them.

Every transcript is one stream of sends, (round, sender, receiver, kind,
payload) tuples that a ``Message`` also unpacks to, and keeps no message
(see ``Transcript``); a count follows the same send order with no payload
drawn or decoded.  ``write_transcript`` saves the stream as JSON Lines,
each payload the base64 text of its d little-endian doubles: exact for
every double, at one C call per message.  ``round_robin`` reaches each
sender's rows in order, so a block is drawn a few rows at a time, the send
order is computed as it goes, and ``run`` writes and a read streams in
O(N·d) memory; ``seeded_shuffle`` may send any share first, so it draws
whole blocks and holds its N(N-1) senders and receivers as integer arrays.
"""

from __future__ import annotations

import binascii
import functools
import json
import math
import sys
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import secagg
from .secagg import FeatureVector, RangeReport

__all__ = [
    "AGGREGATOR_ID",
    "DELIVERIES",
    "AdversaryBehavior",
    "CancellationError",
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


class CancellationError(ValueError):
    """A round's Obfuscated vectors do not sum to its aggregate."""


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


class _MessageView:
    """The ``Message``s of a transcript's parts.  They can be iterated,
    counted with ``len``, and added to a tuple, which gives a tuple; nothing
    else.  Each read streams them from the parts again and keeps none; a
    count reads the parts with ``payloads=False``, building no ``Message``."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts

    def __iter__(self) -> Iterator[Message]:
        for part in self.parts:
            for send in part():
                yield send if type(send) is Message else Message(*send)

    def __len__(self) -> int:
        return sum(1 for part in self.parts for _ in part(payloads=False))

    def __add__(self, other):
        return tuple(self) + other if isinstance(other, tuple) else NotImplemented


@dataclass(frozen=True, eq=False)
class Transcript:
    """Every delivered message of a run, plus the round parameters.

    ``parts`` are callables ``part(payloads=True)`` that yield the same
    sends, (round, sender, receiver, kind, payload) with str node names, on
    every call; ``part(payloads=False)`` gives as ``None`` only a payload
    it would draw or decode: a round's shares and Obfuscated vectors, a
    loaded file's payloads.  ``messages`` is a ``_MessageView`` over them.
    ``messages=None`` reads ``parts``; other ``messages`` (another
    transcript's view, or any iterable, read once into a tuple) become the
    one part.  ``write_transcript`` and ``transcript_privacy_check`` stream
    the parts with no ``Message`` at all.  A transcript equals, and hashes
    as, only itself.
    """

    n_users: int
    dim: int
    share_range: float
    seed: int
    messages: Iterable[Message] | None
    parts: tuple = field(default=(), repr=False)
    grid_bits: int | None = None  # f of the rounds' grid 2**-f; a loaded file's is unknown

    def __post_init__(self):
        messages = self.messages
        if isinstance(messages, _MessageView):
            parts = messages.parts
        elif messages is not None:
            messages = tuple(messages)  # read once: an iterator yields its items once
            parts = (lambda payloads=True: messages,)
        else:
            parts = self.parts
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "messages", _MessageView(parts))

    def count(self, kind: MessageKind) -> int:
        """Messages of ``kind``, counted over the parts' sends with
        ``payloads=False``, so that no ``Message`` is built and no payload
        drawn or decoded."""
        sends = (send for part in self.parts for send in part(payloads=False))
        return sum(1 for _, _, _, k, _ in sends if k is kind)


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


def _round(secrets: secagg.Rows | Sequence[FeatureVector], cfg: RoundConfig, round_index: int):
    """One honest round over ``secrets``: its aggregate, its transcript, the
    bits f of its grid, the secrets' ``encode_steps`` and ``seeds()``, which
    spawns the same N + 1 ``SeedSequence``s, users' and delivery's, each call.

    The one check of a round's inputs: ``ValueError`` unless there is at
    least one user, the secrets share one dimension d >= 1 and one pair of
    bounds, every secret lies inside them, and ``secagg.check_grid``
    accepts the grid for them.
    """
    values, (a, b) = secagg.as_rows(secrets)
    stack = np.asarray(values)  # a sequence of rows is stacked here, for this call alone
    n, share_range = len(stack), cfg.share_range
    if stack.ndim != 2 or 0 in stack.shape:
        raise ValueError("need at least one user, all secrets of the same dimension, at least 1")
    low, high = float(stack.min()), float(stack.max())
    if not a <= low <= high <= b:  # NaN fails too
        i = np.flatnonzero(~((stack >= a) & (stack <= b)).all(axis=1))[0]
        raise ValueError(f"secret of user {i} violates its declared bounds")
    f = secagg.check_grid(n, share_range, (a, b), (low, high))
    encoded, d = secagg.encode_steps(stack, (a, b), f), stack.shape[1]
    result = FeatureVector(secagg.sum_steps(encoded, f), (n * a, n * b))

    def seeds():  # only a read that draws shares or shuffles spawns them
        return np.random.SeedSequence((int(cfg.seed), int(round_index))).spawn(n + 1)

    def sends(payloads=True):  # the shares, drawn from the seeds on each read
        names = (*map(str, range(n)), AGGREGATOR_ID)
        shuffled = cfg.delivery == "seeded_shuffle"
        spawned = seeds() if payloads or shuffled else ()
        deliver = np.random.default_rng(spawned[n]) if shuffled else None
        # a count takes the same order with no share generator and no share
        rngs = [np.random.default_rng(seed) for seed in spawned[:n]] if payloads else ()
        rows = n if shuffled else max(1, _ROW_BUDGET // n)
        held = [(0, ())] * n  # per sender: index of its first held row, and the rows
        # row k: her encoded steps + received - sent, in int64 (a lone user's keeps -0.0)
        net = secagg.encode_steps(values, (a, b), f) if payloads else None
        net = net.astype(np.int64) if payloads and n > 1 else net

        def share(i, k):  # round robin asks each sender's rows in order, a shuffle any
            if not payloads:
                return None
            start, block = held[i]
            while k >= start + len(block):
                start += len(block)
                steps = secagg.share_steps(rngs[i], (min(rows, n - start), d), share_range, f)
                _add_shares(net, i, start, steps)
                block = secagg.freeze(np.ldexp(steps, -f))
                held[i] = start, block
            return block[k - start]

        def order(items):  # a phase's sends as listed, or in one permutation of them
            return [items[j] for j in deliver.permutation(len(items))] if shuffled else items

        # a user's obfuscated vector leaves when her last share arrives
        if shuffled:  # share j: sender i = j // (n - 1)'s column c = j % (n - 1), to c + (c >= i)
            senders, receivers = np.divmod(deliver.permutation(n * (n - 1)), max(n - 1, 1))
            receivers += receivers >= senders
            arrived = list(dict.fromkeys(receivers[::-1].tolist()))[::-1] or [0]
            shares = zip(senders.tolist(), receivers.tolist())
        else:  # user k < n - 1 hears last from n - 1 in column k, n - 1 from n - 2
            # just before n - 2 does
            shares = ((i, c + (c >= i)) for c in range(n - 1) for i in range(n))
            arrived = [*range(n - 2), n - 1, n - 2][:n]
        for i, k in shares:
            yield round_index, names[i], names[k], MessageKind.SHARE, share(i, k)
        obfuscated = secagg.freeze(np.ldexp(net, -f)) if payloads else (None,) * n
        for k in order(arrived):
            yield round_index, names[k], AGGREGATOR_ID, MessageKind.OBFUSCATED, obfuscated[k]
        if payloads and secagg.sum_steps(net, f).tobytes() != result.values.tobytes():
            raise CancellationError(f"round {round_index}: the shares do not cancel in the sum")
        for k in order(range(n)):
            yield round_index, AGGREGATOR_ID, names[k], MessageKind.AGGREGATE, result.values

    transcript = Transcript(n, d, share_range, cfg.seed, None, (sends,), f)
    return result, transcript, f, encoded, seeds


# Share rows the round-robin writer holds over all senders: up to N = 22 a
# sender's block is one draw, at N = 200 a draw is two rows.
_ROW_BUDGET = 512


def run_round(
    secrets: secagg.Rows | Sequence[FeatureVector], cfg: RoundConfig, round_index: int = 0
) -> tuple[FeatureVector, Transcript]:
    """Run one honest aggregation round over the users' secret vectors, with
    no share drawn and no seed spawned; ``ValueError`` for inputs that no round can take."""
    return _round(secrets, cfg, round_index)[:2]


def _add_shares(net: np.ndarray, i: int, start: int, steps: np.ndarray) -> None:
    """Add a chunk of sender i's steps, rows ``start``.., into net, and its sum off her row."""
    net[start:start + len(steps)] += steps
    net[i] -= steps.sum(axis=0)


# ---------------------------------------------------------------------------
# Adversary injection
# ---------------------------------------------------------------------------


def inject_adversary(
    secrets: secagg.Rows | Sequence[FeatureVector],
    cfg: RoundConfig,
    behavior: AdversaryBehavior | str,
    adversary: int = 0,
    coordinate: int = 0,
    amount: float | None = None,
) -> tuple[FeatureVector, Transcript, RangeReport]:
    """Run a round where one designated user misbehaves.

    The round is ``run_round``'s honest one, its inputs checked once, with the
    messages that the misbehaviour changes rewritten on the wire: each
    gains a value at ``coordinate``.  ``inflate_coordinate`` adds
    ``amount`` (default: enough to escape the admissible range) to the
    adversary's Obfuscated payload.  ``out_of_range_share`` raises her
    share for one peer to 2D; the peer's Obfuscated payload carries the
    excess and hers gives it up, so the aggregate is unchanged and only the
    transcript range check trips.  The aggregator sums the Obfuscated
    payloads as the wire carries them, from whole share blocks drawn one at
    a time.  Returns the aggregate, transcript and range-validation report.
    """
    behavior = AdversaryBehavior(behavior)
    secrets = secagg.as_rows(secrets)
    n, (a, b) = len(secrets.values), secrets.bounds
    if n < 2:
        raise ValueError("adversary injection needs at least two users")
    if not 0 <= adversary < n:
        raise ValueError("adversary index out of range")
    _, honest, f, net, spawn = _round(secrets, cfg, 0)
    if not 0 <= coordinate < honest.dim:
        raise ValueError("coordinate index out of range")
    (part,) = honest.parts  # its sends, drawn from the seeds on each call
    *seeds, _ = spawn()
    sender, peer = str(adversary), str(int(adversary == 0))
    if behavior is AdversaryBehavior.INFLATE_COORDINATE:
        gains = {(sender, AGGREGATOR_ID): n * (b - a) + 1.0 if amount is None else amount}
    else:  # her share for the peer: the first rows of her block, as a whole draw gives them
        rng = np.random.default_rng(seeds[adversary])
        share = secagg.share_steps(rng, (int(peer) + 1, honest.dim), cfg.share_range, f)[-1]
        excess = 2.0 * cfg.share_range - np.ldexp(share[coordinate], -f)
        gains = {(sender, peer): excess, (peer, AGGREGATOR_ID): excess,
                 (sender, AGGREGATOR_ID): -excess}
    net = net.astype(np.int64)  # the Obfuscated vectors, each sender's block drawn whole
    for i, seed in enumerate(seeds):  # and dropped before the next is drawn
        rng = np.random.default_rng(seed)
        _add_shares(net, i, 0, secagg.share_steps(rng, net.shape, cfg.share_range, f))

    # the honest sends with the gains, as the wire carries them
    def rewritten(payloads=True, broadcast=None, obfuscated=(None,) * n):
        for r, s, t, kind, payload in part(payloads):
            if kind is MessageKind.AGGREGATE:
                payload = broadcast
            elif kind is MessageKind.OBFUSCATED and not payloads:
                payload = obfuscated[int(s)]
            if payload is not None and (s, t) in gains:
                payload = payload.copy()
                payload[coordinate] += gains[s, t]
                secagg.freeze(payload)
            yield r, s, t, kind, payload

    sent = rewritten(False, obfuscated=np.ldexp(net, -f))
    del net
    result = secagg.aggregate([p for _, _, _, k, p in sent if k is MessageKind.OBFUSCATED], (a, b))
    transcript = replace(
        honest, messages=None, parts=(lambda payloads=True: rewritten(payloads, result.values),)
    )
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
    transcript: Transcript, secrets: secagg.Rows | Sequence[FeatureVector]
) -> PrivacyReport:
    """Honest-but-curious audit of a recorded round.

    Checks that (i) no payload delivered to the aggregator equals any
    user's raw vector, (ii) every user-to-user share lies in [-D, D]^d, and
    (iii) no node other than user i ever observes user i's raw vector.  A
    raw vector counts both as given and as the round's grid encodes it.
    """
    d, (values, bounds) = transcript.share_range, secagg.as_rows(secrets)
    encoded = secagg.encode(values, bounds, secagg.grid_bits(transcript.n_users, d, bounds))
    secret_owner = {
        _canonical_bytes(raw): str(i) for i, row in enumerate(values) for raw in (row, encoded[i])
    }
    violations: list[tuple[int, str]] = []
    sends = (send for part in transcript.parts for send in part())  # no messages kept
    for idx, (_, sender, receiver, kind, payload) in enumerate(sends):
        if kind is MessageKind.SHARE and AGGREGATOR_ID not in (sender, receiver):
            if np.any(payload < -d) or np.any(payload > d):
                violations.append((idx, f"share from {sender} to {receiver} outside [-D, D]"))
        owner = secret_owner.get(_canonical_bytes(payload))
        if owner is not None and receiver != owner:
            reason = f"{kind.value} message from {sender} to {receiver} equals"
            violations.append((idx, f"{reason} the raw vector of user {owner}"))
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
    drawing each round's shares, each row once: a few rows of each block at
    a time under ``round_robin``, all N blocks under ``seeded_shuffle``."""
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


def _integer(rec: dict, name: str, low: int) -> int:
    """Field ``name`` of ``rec``, a JSON integer (not a boolean) >= ``low``."""
    value = rec[name]
    if type(value) is not int or value < low:
        raise ValueError(f"{name!r} must be an integer >= {low}, not {value!r}")
    return value


def _parse_header(rec: dict) -> Transcript:
    """The header's round parameters, with no messages: N, d >= 1 and seed
    >= 0 JSON integers, D a JSON number with 0 < D < inf as in ``RoundConfig``."""
    n, dim, share_range = _integer(rec, "N", 1), _integer(rec, "d", 1), rec["D"]
    # an int past the largest double is no finite double either
    if type(share_range) not in (int, float) or not 0 < share_range <= sys.float_info.max:
        raise ValueError(f"'D' must be a positive finite number, not {share_range!r}")
    return Transcript(n, dim, float(share_range), _integer(rec, "seed", 0), ())


def load_transcript(path: str | Path) -> Transcript:
    """Read a transcript that ``write_transcript`` wrote.  A line that is
    not UTF-8 JSON or lacks a field, a header that ``_parse_header``
    rejects, a round that is not a JSON integer >= 0, a message of an
    unknown kind or with a node name other than a string, and a payload
    other than base64 of exactly d doubles raise ``ValueError`` naming the
    path and the line.

    The one pass that checks every line keeps no payload, only each line's
    CRC-32.  Each read of the transcript's messages parses the file again,
    with the same checks, and raises ``ValueError`` naming the path and the
    first line that has changed, gone or been added since the load, so a
    read never yields a stream other than the one checked.  A count checks
    each line's CRC-32 just the same, then reads its round, nodes and kind
    and leaves the payload undecoded."""
    from array import array  # here, so that run and check never load the module

    with open(path, "rb") as handle:  # json.loads decodes each line
        line = handle.readline()
        header = _read_record(path, 1, line, _parse_header)

        def head(rec: dict) -> tuple:  # the send without its payload
            return _integer(rec, "round", 0), rec["from"], rec["to"], MessageKind(rec["kind"]), None

        def parse(rec: dict) -> Message:
            return Message(*head(rec)[:4], _parse_payload(rec["payload"], header.dim))

        sums = array("L", [zlib.crc32(line)])
        for lineno, line in enumerate(handle, start=2):
            sums.append(zlib.crc32(line))
            if line.strip():
                _read_record(path, lineno, line, parse)

    def sends(payloads=True):  # the same pass again, each line first checked against its sum
        read = parse if payloads else head
        with open(path, "rb") as handle:
            for lineno, (line, loaded) in enumerate(zip_longest(handle, sums), start=1):
                if line is None or zlib.crc32(line) != loaded:
                    raise ValueError(f"{path}: line {lineno}: changed since the transcript was loaded")
                if lineno > 1 and line.strip():
                    yield _read_record(path, lineno, line, read)

    return replace(header, messages=None, parts=(sends,))
