"""Exact reference for fedtrend outputs, written apart from the program.

From the documents each user sampled and the IDF table, the reference
recomputes every top-k keyword set with its own counting code, each user's
likelihood as exact ``Fraction``s, their exact sum, and the exact score
L_j * idf_j, where idf_j is the table's decimal taken exactly.  The expected
ranking sorts by exact score, exact ties in lexicographic keyword order.

The checks below compare the program's outputs with that reference and with
the structural laws of one secure-aggregation round.  None of them compares
against a stored copy of earlier output.  Each raises ``Mismatch`` with a
message that names what differs.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

#: Largest allowed gap between a secure aggregate coordinate and the exact
#: pooled likelihood, and between the aggregate and the exact sum of the
#: obfuscated payloads.  Equal to the acceptance suite's reconstruction
#: bound; the float protocol's error at N = 200, D = 100 is about 1e-10.
AGGREGATE_TOLERANCE = 1e-9

SHARE, OBFUSCATED, AGGREGATE = "Share", "Obfuscated", "Aggregate"
AGGREGATOR = "aggregator"


class Mismatch(Exception):
    """A program output departs from the exact reference."""


class TieOrderMismatch(Mismatch):
    """The ranking follows the exact scores but orders some exactly tied
    keywords out of lexicographic order: tied coordinates of the aggregate
    were rounded into different cells of the program's score grid."""


@dataclass(frozen=True)
class IdfTable:
    keywords: tuple[str, ...]
    idf: tuple[Fraction, ...]

    @classmethod
    def read(cls, path: str | Path) -> "IdfTable":
        """``term<TAB>idf`` lines; each idf decimal is taken exactly."""
        keywords, idf = [], []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line:
                term, value = line.split("\t")
                keywords.append(term)
                idf.append(Fraction(value))
        return cls(tuple(keywords), tuple(idf))


@dataclass(frozen=True)
class Reference:
    keywords: tuple[str, ...]
    pooled: tuple[Fraction, ...]  # exact sum over users
    score: dict[str, Fraction]  # exact L_j * idf_j by keyword
    ranking: tuple[str, ...]  # by exact score, ties lexicographic


def top_keywords(tokens: Iterable[str], k: int) -> list[str]:
    """The k most frequent tokens, ties broken by the smaller token."""
    counts = Counter(tokens)
    return [t for _, t in heapq.nsmallest(k, ((-c, t) for t, c in counts.items()))]


def exact_reference(
    user_docs: Sequence[Sequence[tuple[str, Sequence[str]]]], table: IdfTable, k: int
) -> Reference:
    """``user_docs[i]`` lists user i's sampled documents as (doc id, tokens),
    one entry per sampled copy."""
    index = {kw: j for j, kw in enumerate(table.keywords)}
    top_cache: dict[str, list[int]] = {}
    counts_by_total: dict[int, Counter] = defaultdict(Counter)
    for docs in user_docs:
        counts: Counter = Counter()
        for doc_id, tokens in docs:
            if doc_id not in top_cache:
                top_cache[doc_id] = [index[t] for t in top_keywords(tokens, k) if t in index]
            counts.update(top_cache[doc_id])
        total = sum(counts.values())
        if total:
            counts_by_total[total].update(counts)
    pooled = [Fraction(0)] * len(table.keywords)
    for total, counts in counts_by_total.items():
        for j, c in counts.items():
            pooled[j] += Fraction(c, total)
    score = [p * w for p, w in zip(pooled, table.idf)]
    order = sorted(range(len(score)), key=lambda j: (-score[j], table.keywords[j]))
    return Reference(
        keywords=table.keywords,
        pooled=tuple(pooled),
        score=dict(zip(table.keywords, score)),
        ranking=tuple(table.keywords[j] for j in order),
    )


def max_abs_error(values: Sequence[float], exact: Sequence[Fraction]) -> float:
    """Largest |values[j] - exact[j]|, computed exactly, then rounded."""
    if len(values) != len(exact):
        raise Mismatch(f"vector has {len(values)} coordinates, expected {len(exact)}")
    return float(max(abs(Fraction(float(v)) - e) for v, e in zip(values, exact)))


def check_ranking(ranked: Sequence[str], ref: Reference) -> None:
    """Raise unless ``ranked`` is the exact order, keyword for keyword."""
    ranked = tuple(ranked)
    if ranked == ref.ranking:
        return
    if sorted(ranked) != sorted(ref.ranking):
        raise Mismatch("ranking does not hold each vocabulary keyword once")
    pos = next(i for i, (a, b) in enumerate(zip(ranked, ref.ranking)) if a != b)
    message = (
        f"ranking departs from the exact order at rank {pos + 1}: "
        f"{ranked[pos]!r} where {ref.ranking[pos]!r} is expected"
    )
    scores = [ref.score[kw] for kw in ranked]
    if all(a >= b for a, b in zip(scores, scores[1:])):
        raise TieOrderMismatch(message + " (exactly tied)")
    raise Mismatch(message)


def check_aggregate(values: Sequence[float], ref: Reference) -> float:
    err = max_abs_error(values, ref.pooled)
    if err > AGGREGATE_TOLERANCE:
        raise Mismatch(
            f"aggregate is {err:.3e} from the exact pooled likelihood "
            f"(tolerance {AGGREGATE_TOLERANCE:g})"
        )
    return err


def read_rankings_csv(path: str | Path) -> tuple[str, ...]:
    """Keyword column of ``keyword,score,rank``; ranks must run 1, 2, ..."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "keyword,score,rank":
        raise Mismatch(f"{path}: missing 'keyword,score,rank' header")
    keywords = []
    for expected_rank, line in enumerate(lines[1:], start=1):
        keyword, score, rank = line.rsplit(",", 2)
        if int(rank) != expected_rank or not math.isfinite(float(score)):
            raise Mismatch(f"{path}: bad row {expected_rank}: {line!r}")
        keywords.append(keyword)
    return tuple(keywords)


def check_transcript(transcript, n_users: int, dim: int, share_range: float):
    """Structural laws of a recorded run; returns the last round's aggregate.

    Per round: N^2 + N messages, namely one share inside [-D, D] from each
    user to each other user, one obfuscated vector from each user to the
    aggregator, and one aggregate from the aggregator to each user; every
    aggregate copy is the same vector, and the obfuscated payloads sum to it
    within ``AGGREGATE_TOLERANCE``.
    """
    if (transcript.n_users, transcript.dim, transcript.share_range) != (
        n_users,
        dim,
        share_range,
    ):
        raise Mismatch(
            f"transcript header (N={transcript.n_users}, d={transcript.dim}, "
            f"D={transcript.share_range}) does not match the run"
        )
    by_round: dict[int, list] = defaultdict(list)
    for msg in transcript.messages:
        by_round[msg.round].append(msg)
    if sorted(by_round) != list(range(len(by_round))) or not by_round:
        raise Mismatch(f"transcript rounds {sorted(by_round)} are not 0, 1, ...")
    users = {str(i) for i in range(n_users)}
    aggregate = None
    for rnd, messages in sorted(by_round.items()):
        if len(messages) != n_users * n_users + n_users:
            raise Mismatch(
                f"round {rnd}: {len(messages)} messages, expected N^2+N = "
                f"{n_users * n_users + n_users}"
            )
        kinds = Counter(m.kind.value for m in messages)
        expected = {SHARE: n_users * (n_users - 1), OBFUSCATED: n_users, AGGREGATE: n_users}
        if kinds != Counter({k: v for k, v in expected.items() if v}):
            raise Mismatch(f"round {rnd}: message kinds {dict(kinds)}, expected {expected}")
        obfuscated: dict[str, np.ndarray] = {}
        copies = []
        links = set()
        for m in messages:
            if (m.kind.value, m.sender, m.receiver) in links:
                raise Mismatch(f"round {rnd}: second {m.kind.value} from {m.sender} to {m.receiver}")
            links.add((m.kind.value, m.sender, m.receiver))
            payload = np.asarray(m.payload, dtype=np.float64)
            if payload.shape != (dim,):
                raise Mismatch(f"round {rnd}: payload of shape {payload.shape} from {m.sender}")
            kind = m.kind.value
            if kind == SHARE:
                if m.sender not in users or m.receiver not in users or m.sender == m.receiver:
                    raise Mismatch(f"round {rnd}: share from {m.sender} to {m.receiver}")
                if not (np.all(payload >= -share_range) and np.all(payload <= share_range)):
                    raise Mismatch(
                        f"round {rnd}: share from {m.sender} to {m.receiver} "
                        f"outside [-D, D] = [{-share_range:g}, {share_range:g}]"
                    )
            elif kind == OBFUSCATED:
                if m.sender not in users or m.receiver != AGGREGATOR:
                    raise Mismatch(f"round {rnd}: obfuscated vector from {m.sender} to {m.receiver}")
                obfuscated[m.sender] = payload
            else:
                if m.sender != AGGREGATOR or m.receiver not in users:
                    raise Mismatch(f"round {rnd}: aggregate from {m.sender} to {m.receiver}")
                copies.append(payload)
        if any(not np.array_equal(c, copies[0]) for c in copies):
            raise Mismatch(f"round {rnd}: aggregate copies differ")
        aggregate = copies[0]
        stacked = np.stack([obfuscated[u] for u in sorted(obfuscated, key=int)])
        exact_sum = np.array([math.fsum(col) for col in stacked.T])
        err = float(np.max(np.abs(exact_sum - aggregate)))
        if not err <= AGGREGATE_TOLERANCE:
            raise Mismatch(f"round {rnd}: obfuscated payloads sum to {err:.3e} off the aggregate")
    return aggregate
