"""End-to-end experiment orchestration.

Loads a corpus, IDF table and stopwords, samples virtual users, runs the
federated pipeline (preprocess -> per-user likelihoods -> secure
aggregation round -> posterior ranking), and writes rankings, the protocol
transcript, and run metadata.  The two non-private baselines, which only
``rankings.md`` shows, are built when first read: ``check`` builds neither.
The oracle, ``meta["oracle_match"]``, holds when every round's aggregate
equals the share-free sum of the encoded likelihoods
(``secagg.encoded_sum``) bit for bit; equal sums rank equally.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, baselines, bayes, corpus, netsim, secagg

__all__ = [
    "AGGREGATIONS",
    "OOV_POLICIES",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "build_vocabulary",
    "rankings_csv",
    "run_experiment",
    "sample_user_documents",
    "write_outputs",
]

#: How a round's aggregate becomes evidence: the sum, or the sum over N.
AGGREGATIONS = ("sum", "mean")
#: How ``build_vocabulary`` treats corpus tokens the IDF table lacks.
OOV_POLICIES = ("drop", "max")


class ConfigError(ValueError):
    """Invalid experiment configuration or unreadable input file."""


@dataclass
class ExperimentConfig:
    corpus_path: str
    idf_path: str
    stopword_path: str
    corpus_format: str = "lines"
    n_users: int = 10
    k: int = 5
    share_range: float = secagg.DEFAULT_SHARE_RANGE
    seed: int = 0
    rounds: int = 1
    aggregation: str = "sum"
    oov: str = "drop"
    delivery: str = netsim.DELIVERIES[0]
    alpha0: float = 0.0
    lemmatize: bool = True
    score_resolution: float = bayes.DEFAULT_SCORE_RESOLUTION

    def validate(self) -> None:
        if self.n_users < 1:
            raise ConfigError("n_users must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation mode: {self.aggregation!r}")
        if self.oov not in OOV_POLICIES:
            raise ConfigError(f"unknown oov policy: {self.oov!r}")
        if self.corpus_format not in corpus.CORPUS_FORMATS:
            raise ConfigError(f"unknown corpus format: {self.corpus_format!r}")
        try:
            self.round_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for label, path in (
            ("corpus", self.corpus_path),
            ("idf table", self.idf_path),
            ("stopword list", self.stopword_path),
        ):
            if not Path(path).is_file():
                raise ConfigError(f"{label} not found: {path}")

    def round_config(self) -> netsim.RoundConfig:
        """Seed, share range and delivery schedule of every round."""
        return netsim.RoundConfig(
            seed=self.seed, share_range=self.share_range, delivery=self.delivery
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    vocab: corpus.VocabularyIndex
    user_docs: list[list[corpus.Document]]
    likelihoods: list[bayes.LikelihoodVector]
    initial_prior: bayes.PriorDistribution
    aggregate: secagg.FeatureVector
    validation: secagg.RangeReport
    posterior: bayes.PosteriorRanking
    transcript: netsim.Transcript
    #: ``copies`` and ``counts`` of ``corpus.document_columns`` over ``user_docs``
    copies: np.ndarray
    counts: list
    meta: dict = field(default_factory=dict)

    @functools.cached_property
    def count_ranking(self) -> baselines.CountRanking:
        """The total-count baseline over every user's documents."""
        terms = corpus.term_columns(self.counts, self.vocab)
        totals = terms.weighted_sum(self.copies.sum(axis=0))
        return baselines.rank_by_term_totals(totals, self.vocab)

    @functools.cached_property
    def pooled_ranking(self) -> baselines.CountRanking:
        """The pooled-trend baseline: the users' votes for their top keyword."""
        rows = [lk.values.values for lk in self.likelihoods]
        tops = baselines.local_top_keywords(rows, self.vocab)
        return baselines.rank_by_pooled_trend([top for top in tops if top is not None])


def build_vocabulary(
    idf_table: corpus.VocabularyIndex,
    documents: Sequence[corpus.Document],
    oov: str = "drop",
) -> corpus.VocabularyIndex:
    """Resolve out-of-vocabulary corpus tokens against the IDF table.

    ``drop`` keeps the table as-is (OOV tokens simply never score);
    ``max`` appends OOV tokens, sorted, at the table's maximum IDF.
    """
    if oov == "drop" or len(idf_table) == 0:
        return idf_table
    known = set(idf_table.keywords)
    extra = sorted(set().union(*(doc.tokens for doc in documents)) - known)
    if not extra:
        return idf_table
    max_idf = float(idf_table.idf.max())
    return corpus.VocabularyIndex(
        list(idf_table.keywords) + extra,
        list(idf_table.idf) + [max_idf] * len(extra),
    )


def sample_user_documents(
    documents: Sequence[corpus.Document], n_users: int, rng: np.random.Generator
) -> list[list[corpus.Document]]:
    """Each user draws a uniform number of documents (1..corpus size) from
    the corpus with replacement; deterministic for a seeded rng."""
    if not documents:
        raise ConfigError("corpus is empty")
    if n_users < 1:
        raise ConfigError("n_users must be >= 1")
    assignments = []
    size = len(documents)
    for _ in range(n_users):
        m = int(rng.integers(1, size + 1))
        picks = rng.integers(0, size, size=m)
        assignments.append([documents[i] for i in picks.tolist()])
    return assignments


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    cfg.validate()

    try:
        stopwords = corpus.load_stopwords(cfg.stopword_path)
        pre_cfg = corpus.PreprocessConfig(stopwords=stopwords, lemmatize=cfg.lemmatize)
        documents = corpus.preprocess_corpus(
            corpus.load_corpus(cfg.corpus_path, cfg.corpus_format), pre_cfg
        )
        idf_table = corpus.load_idf_table(cfg.idf_path)
    except corpus.CorpusFormatError as exc:
        raise ConfigError(str(exc)) from exc
    vocab = build_vocabulary(idf_table, documents, oov=cfg.oov)
    try:  # the weights that --oov max adds may make the sum overflow
        prior = bayes.compute_prior(vocab)
    except ValueError as exc:
        raise ConfigError(f"{cfg.idf_path}: {exc}") from exc

    # The sampling stream is separated from the per-round protocol streams
    # by the extra entropy word.
    sample_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 1)))
    user_docs = sample_user_documents(documents, cfg.n_users, sample_rng)
    copies, primary, counts = corpus.document_columns(user_docs, vocab, cfg.k)
    likelihoods = bayes.column_likelihoods(primary, copies, cfg.alpha0)
    secrets = [lk.values for lk in likelihoods]

    round_cfg = cfg.round_config()
    aggregates: list[np.ndarray] = []
    parts: list = []  # of the round transcripts, read only when written
    for round_index in range(cfg.rounds):
        try:
            aggregate, transcript = netsim.run_round(secrets, round_cfg, round_index)
        except ValueError as exc:  # e.g. a share range too coarse for N
            raise ConfigError(str(exc)) from exc
        parts.extend(transcript.parts)
        aggregates.append(aggregate.values)
    # the oracle: each round's aggregate is the sum without shares, bit for bit
    exact = secagg.encoded_sum(secrets, cfg.share_range).tobytes()
    # each round sums the same secrets: one range check stands for all of them
    validation = secagg.validate_aggregate(aggregate, cfg.n_users, secrets[0].bounds)
    try:
        posteriors = bayes.rank_rounds(
            aggregates, prior, cfg.n_users, cfg.aggregation, cfg.score_resolution
        )
    except ValueError as exc:  # all-zero scores leave the next round no prior
        raise ConfigError(f"--rounds {cfg.rounds}: {exc} under {cfg.idf_path}") from exc

    final = posteriors[-1]
    merged = netsim.Transcript(
        cfg.n_users, len(vocab), cfg.share_range, cfg.seed, None, tuple(parts)
    )
    config_dict = asdict(cfg)
    meta = {
        "seed": cfg.seed,
        "config": config_dict,
        "config_hash": hashlib.sha256(
            json.dumps(config_dict, sort_keys=True).encode()
        ).hexdigest(),
        "version": __version__,
        "rng": secagg.RNG_NAME,
        "n_documents": len(documents),
        "vocab_size": len(vocab),
        "user_sample_sizes": [len(docs) for docs in user_docs],
        "aggregate_in_range": validation.ok,
        "oracle_match": all(values.tobytes() == exact for values in aggregates),
    }
    return ExperimentResult(
        config=cfg,
        vocab=vocab,
        user_docs=user_docs,
        likelihoods=likelihoods,
        initial_prior=prior,
        aggregate=aggregate,
        validation=validation,
        posterior=final,
        transcript=merged,
        copies=copies,
        counts=counts,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def rankings_csv(vocab: corpus.VocabularyIndex, ranking: bayes.PosteriorRanking) -> str:
    """``keyword,score,rank`` lines in rank order, 17-significant-digit scores."""
    keywords, scores = vocab.keywords, ranking.scores.tolist()
    rows = [
        "%s,%.17g,%d\n" % (keywords[j], scores[j], rank)
        for rank, j in enumerate(ranking.order, start=1)
    ]
    return "keyword,score,rank\n" + "".join(rows)


def rankings_markdown(result: ExperimentResult) -> str:
    """Markdown table mirroring the evaluation table layout: keyword, total
    count, IDF, and the three baseline rankings, plus the posterior rank."""
    vocab = result.vocab
    keywords, idf = vocab.keywords, vocab.idf.tolist()
    # descending idf, ties in keyword order: a stable sort of the keyword order
    idf_order = sorted(vocab.by_keyword, key=(-vocab.idf).tolist().__getitem__)
    idf_rank = dict(zip(idf_order, range(1, len(idf_order) + 1)))
    counts, count_ranks = result.count_ranking.counts, result.count_ranking.ranks
    pooled_ranks = result.pooled_ranking.ranks
    header = (
        "| keyword | total count | idf | idf rank | count rank "
        "| pooled-trend rank | posterior rank |"
    )
    sep = "|---|---|---|---|---|---|---|"
    rows = [header, sep]
    for rank, j in enumerate(result.posterior.order, start=1):
        kw = keywords[j]
        rows.append(
            f"| {kw} | {counts.get(kw, 0)} | {idf[j]:g} "
            f"| {idf_rank[j]} | {count_ranks.get(kw, '')} "
            f"| {pooled_ranks.get(kw, '')} | {rank} |"
        )
    return "\n".join(rows) + "\n"


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "rankings_csv": out / "rankings.csv",
        "rankings_md": out / "rankings.md",
        "transcript": out / "transcript.jsonl",
        "meta": out / "meta.json",
    }
    paths["rankings_csv"].write_text(
        rankings_csv(result.vocab, result.posterior), encoding="utf-8"
    )
    paths["rankings_md"].write_text(rankings_markdown(result), encoding="utf-8")
    netsim.write_transcript(result.transcript, paths["transcript"])
    paths["meta"].write_text(
        json.dumps(result.meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths
