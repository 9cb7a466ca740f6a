"""Non-private comparison rankings and the centralized test oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bayes import PosteriorRanking, PriorDistribution, local_likelihoods, rank_rounds
from .corpus import Document, VocabularyIndex, document_columns, term_columns
from .secagg import FeatureVector, exact_sum

__all__ = [
    "CountRanking",
    "centralized_oracle",
    "local_top_keywords",
    "pooled_likelihood",
    "rank_by_pooled_trend",
    "rank_by_term_totals",
    "rank_by_total_count",
]


@dataclass(frozen=True)
class CountRanking:
    """Keyword counts with a deterministic order and per-keyword ranks.

    ``order`` is descending by count, ties lexicographic.  Ranks are
    ordinal (1, 2, 3, ...) or dense (tied counts share a rank) depending on
    which baseline produced the ranking.
    """

    counts: dict[str, int]
    order: tuple[str, ...]
    ranks: dict[str, int]

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], dense: bool = False) -> "CountRanking":
        # a stable descending sort keeps the lexicographic order among ties
        order = tuple(sorted(sorted(counts), key=counts.__getitem__, reverse=True))
        if dense:  # 1 + the number of distinct counts above
            levels = sorted(set(counts.values()), reverse=True)
            ranks = dict(zip(order, (levels.index(counts[kw]) + 1 for kw in order)))
        else:
            ranks = dict(zip(order, range(1, len(order) + 1)))
        return cls(counts=dict(counts), order=order, ranks=ranks)


def rank_by_total_count(
    all_docs: Sequence[Document], vocab: VocabularyIndex
) -> CountRanking:
    """Rank vocabulary keywords by total token occurrences in the pooled
    document multiset (documents sampled more than once count per copy).
    Each distinct document's tokens are counted once, weighted by its
    copies in one ``bincount`` over the pooled copies."""
    copies, _, counts = document_columns([all_docs], vocab)
    return rank_by_term_totals(term_columns(counts, vocab).weighted_sum(copies[0]), vocab)


def rank_by_term_totals(totals: np.ndarray, vocab: VocabularyIndex) -> CountRanking:
    """``rank_by_total_count`` from each keyword's total occurrences, as
    ``corpus.DocumentColumns.weighted_sum`` gives them."""
    return CountRanking.from_counts(dict(zip(vocab.keywords, totals.astype(int).tolist())))


def rank_by_pooled_trend(local_tops: Sequence[str]) -> CountRanking:
    """Rank keywords by how many users report them as their local trend.

    Uses dense ranking: keywords with the same number of votes share a
    rank, ordered lexicographically within it.
    """
    counts: dict[str, int] = {}
    for keyword in local_tops:
        counts[keyword] = counts.get(keyword, 0) + 1
    return CountRanking.from_counts(counts, dense=True)


def local_top_keywords(likelihoods, vocab: VocabularyIndex) -> list[str | None]:
    """Each user's top keyword: the argmax of each row of ``likelihoods``,
    ties in lexicographic order, ``None`` for a row with no positive entry
    (an all-zero row: nothing to report).  One pass over all rows."""
    order = np.array(vocab.by_keyword, dtype=np.intp)
    lexical = np.asarray(likelihoods)[:, order]  # argmax takes the first of tied maxima
    tops, found = order[lexical.argmax(axis=1)], lexical.max(axis=1) > 0  # NaN is no top
    return [vocab.keywords[j] if ok else None for j, ok in zip(tops.tolist(), found.tolist())]


def pooled_likelihood(
    all_users_docs: Sequence[Sequence[Document]],
    vocab: VocabularyIndex,
    k: int = 5,
    alpha0: float = 0.0,
) -> FeatureVector:
    """Exact likelihood aggregate: the correctly rounded sum of the per-user
    Dirichlet means, with no shares and no network."""
    n = len(all_users_docs)
    if n == 0:
        raise ValueError("need at least one user")
    per_user = local_likelihoods(all_users_docs, vocab, k=k, alpha0=alpha0)
    return FeatureVector(
        values=exact_sum([lk.values.values for lk in per_user]), bounds=(0.0, float(n))
    )


def centralized_oracle(
    all_users_docs: Sequence[Sequence[Document]],
    vocab: VocabularyIndex,
    k: int,
    prior: PriorDistribution,
    alpha0: float = 0.0,
    resolution: float = 0.0,
) -> PosteriorRanking:
    """Posterior ranking computed without any secure aggregation.

    Scored by ``rank_rounds`` like the federated path, on the score grid of
    pitch ``resolution``; used to verify that the protocol round changes
    nothing but the privacy of the inputs.
    """
    pooled = pooled_likelihood(all_users_docs, vocab, k=k, alpha0=alpha0)
    return rank_rounds(
        [pooled.values], prior, len(all_users_docs), resolution=resolution
    )[0]
