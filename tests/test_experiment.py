import dataclasses
import hashlib
import json
import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedtrend import baselines, bayes, cli, corpus, data, netsim, secagg
from fedtrend.experiment import (
    ConfigError,
    ExperimentConfig,
    build_vocabulary,
    rankings_csv,
    rankings_markdown,
    run_experiment,
    sample_user_documents,
    write_outputs,
)
from fedtrend.secagg import seeded_rng

from conftest import make_experiment_config


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_single_document_corpus():
    doc = corpus.Document(id="0", raw_text="only")
    assignments = sample_user_documents([doc], 4, seeded_rng(0))
    assert len(assignments) == 4
    assert all(all(d is doc for d in docs) for docs in assignments)
    assert all(1 <= len(docs) <= 1 for docs in assignments)


def test_sampling_deterministic_per_seed(msmarco_docs):
    first = sample_user_documents(msmarco_docs, 10, seeded_rng(42))
    second = sample_user_documents(msmarco_docs, 10, seeded_rng(42))
    assert [[d.id for d in docs] for docs in first] == [
        [d.id for d in docs] for docs in second
    ]


def test_sampling_sizes_in_range(msmarco_docs):
    assignments = sample_user_documents(msmarco_docs, 10, seeded_rng(0))
    assert all(1 <= len(docs) <= len(msmarco_docs) for docs in assignments)


def test_sampling_rejects_empty_corpus():
    with pytest.raises(ConfigError):
        sample_user_documents([], 3, seeded_rng(0))


# ---------------------------------------------------------------------------
# vocabulary building / oov policies
# ---------------------------------------------------------------------------


def test_build_vocabulary_drop_keeps_table():
    table = corpus.VocabularyIndex(["a", "b"], [1.0, 2.0])
    docs = [corpus.Document(id="0", raw_text="", tokens=("a", "zzz"))]
    assert build_vocabulary(table, docs, oov="drop") is table


def test_build_vocabulary_max_appends_oov():
    table = corpus.VocabularyIndex(["a", "b"], [1.0, 2.0])
    docs = [corpus.Document(id="0", raw_text="", tokens=("zzz", "mmm", "a"))]
    vocab = build_vocabulary(table, docs, oov="max")
    assert vocab.keywords == ("a", "b", "mmm", "zzz")
    assert vocab.idf.tolist() == [1.0, 2.0, 2.0, 2.0]


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_experiment_matches_oracle(experiment_config):
    result = run_experiment(experiment_config(seed=123))
    oracle = baselines.centralized_oracle(
        result.user_docs,
        result.vocab,
        k=5,
        prior=result.initial_prior,
        resolution=result.config.score_resolution,
    )
    assert result.posterior.order == oracle.order
    assert np.max(np.abs(result.posterior.scores - oracle.scores)) <= 1e-9
    assert result.meta["oracle_match"]
    assert result.validation.ok


def test_experiment_single_user_single_document(tmp_path):
    corpus_path = tmp_path / "one.txt"
    corpus_path.write_text("phloem and xylem move water\n", encoding="utf-8")
    cfg = make_experiment_config(
        corpus_path=str(corpus_path), n_users=1, seed=7
    )
    result = run_experiment(cfg)
    # every keyword of the single document's PKS scores prior-proportionally;
    # everything else is zero
    nonzero = {
        result.vocab.keywords[j]
        for j in range(len(result.vocab))
        if result.posterior.scores[j] > 0
    }
    doc = result.user_docs[0][0]
    pks = corpus.primary_keyword_set(doc, 5)
    assert nonzero == {kw for kw in pks if kw in result.vocab}
    ranked_nonzero = [kw for kw in result.posterior.ranked_keywords() if kw in nonzero]
    by_prior = sorted(
        nonzero,
        key=lambda kw: (
            -result.initial_prior.p[result.vocab.index_of(kw)],
            kw,
        ),
    )
    assert ranked_nonzero == by_prior


def test_experiment_two_rounds_matches_product_oracle(experiment_config):
    cfg = experiment_config(seed=5, rounds=2)
    result = run_experiment(cfg)

    # brute-force two-step oracle from raw counts
    def pks(doc):
        counts = Counter(doc.tokens)
        return {
            t
            for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        }

    vocab = result.vocab
    pooled = np.zeros(len(vocab))
    for docs in result.user_docs:
        user_counts = np.zeros(len(vocab))
        for doc in docs:
            for kw in pks(doc):
                j = vocab.index_of(kw)
                if j is not None:
                    user_counts[j] += 1
        if user_counts.sum() > 0:
            pooled += user_counts / user_counts.sum()
    q = cfg.score_resolution
    pooled = np.round(pooled / q) * q
    p0 = vocab.idf / vocab.idf.sum()
    s1 = pooled * p0
    p1 = s1 / s1.sum()
    s2 = pooled * p1
    oracle_order = sorted(
        range(len(vocab)), key=lambda j: (-s2[j], vocab.keywords[j])
    )
    assert list(result.posterior.order) == oracle_order


def test_oracle_sums_the_encoded_likelihoods(experiment_config):
    # at D = 1e12 with 60 users the grid step is 2**-6, so encoding visibly
    # moves the likelihoods; the aggregate is the share-free sum of the encodings
    result = run_experiment(experiment_config(seed=2, n_users=60, share_range=1e12))
    secrets = [lk.values for lk in result.likelihoods]
    exact = secagg.encoded_sum(secrets, 1e12)
    assert result.aggregate.values.tobytes() == exact.tobytes()
    assert result.meta["oracle_match"]
    raw = baselines.centralized_oracle(
        result.user_docs, result.vocab, k=5, prior=result.initial_prior,
        resolution=result.config.score_resolution,
    )
    assert raw.scores.tobytes() != result.posterior.scores.tobytes()


@pytest.mark.parametrize("rounds, nudged", [(1, 0), (2, 0), (2, 1)])
def test_oracle_sees_an_aggregate_one_ulp_off(monkeypatch, capsys, rounds, nudged):
    honest = run_experiment(make_experiment_config(rounds=rounds))
    run_round = netsim.run_round

    def nudging(secrets, cfg, round_index=0):
        aggregate, transcript = run_round(secrets, cfg, round_index)
        if round_index == nudged:  # one ulp up on the top coordinate
            values = aggregate.values.copy()
            top = int(np.argmax(values))
            values[top] = np.nextafter(values[top], np.inf)
            aggregate = secagg.FeatureVector(values=values, bounds=aggregate.bounds)
        return aggregate, transcript

    monkeypatch.setattr(netsim, "run_round", nudging)
    result = run_experiment(make_experiment_config(rounds=rounds))
    # the score grid hides the ulp from the ranking, not from the oracle
    assert result.posterior.order == honest.posterior.order
    assert result.meta["oracle_match"] is False
    assert cli.main(["check", "--users", "10", "--seed", "0", "--rounds", str(rounds)]) == 1
    assert capsys.readouterr() == (
        "",
        "oracle check FAILED: a round's aggregate differs from the share-free sum "
        "of the encoded likelihoods\n",
    )


def test_experiment_round_one_prior_reinforcement(experiment_config):
    # The round-1 winner ranks at least as high in the round-2 posterior as
    # it does under a uniform-prior reference (likelihood-only ranking).
    one = run_experiment(experiment_config(seed=9, rounds=1))
    two = run_experiment(experiment_config(seed=9, rounds=2))
    top = one.posterior.ranked_keywords()[0]
    vocab = one.vocab
    uniform_order = sorted(
        range(len(vocab)),
        key=lambda j: (-one.aggregate.values[j], vocab.keywords[j]),
    )
    reference_rank = uniform_order.index(vocab.index_of(top)) + 1
    assert two.posterior.rank_of(top) <= reference_rank


def test_experiment_delivery_schedule_does_not_change_ranking(experiment_config):
    rr = run_experiment(experiment_config(seed=6, delivery="round_robin"))
    sh = run_experiment(experiment_config(seed=6, delivery="seeded_shuffle"))
    assert rr.posterior.order == sh.posterior.order
    assert np.max(np.abs(rr.aggregate.values - sh.aggregate.values)) <= 1e-9


def test_experiment_sum_vs_mean_same_ranking(experiment_config):
    sum_run = run_experiment(experiment_config(seed=3, aggregation="sum"))
    mean_run = run_experiment(experiment_config(seed=3, aggregation="mean"))
    assert sum_run.posterior.order == mean_run.posterior.order
    assert np.max(np.abs(sum_run.posterior.scores - 10 * mean_run.posterior.scores)) <= 1e-9


def test_experiment_outputs_byte_identical(tmp_path, experiment_config):
    cfg = experiment_config(seed=11)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    write_outputs(run_experiment(cfg), out1)
    write_outputs(run_experiment(cfg), out2)
    for name in ("rankings.csv", "rankings.md", "transcript.jsonl", "meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_output_files(tmp_path, experiment_config):
    result = run_experiment(experiment_config(seed=2))
    paths = write_outputs(result, tmp_path / "out")
    csv_lines = paths["rankings_csv"].read_text().splitlines()
    assert csv_lines[0] == "keyword,score,rank"
    assert len(csv_lines) == len(result.vocab) + 1
    first = csv_lines[1].split(",")
    assert first[0] == result.posterior.ranked_keywords()[0]
    assert first[2] == "1"

    md_lines = paths["rankings_md"].read_text().splitlines()
    assert md_lines[0].split("|")[1:-1] == [
        " keyword ",
        " total count ",
        " idf ",
        " idf rank ",
        " count rank ",
        " pooled-trend rank ",
        " posterior rank ",
    ]

    meta = json.loads(paths["meta"].read_text())
    assert meta["seed"] == 2
    assert meta["rng"] == "pcg64"
    assert meta["oracle_match"] is True
    assert "config_hash" in meta

    transcript = netsim.load_transcript(paths["transcript"])
    assert len(transcript.messages) == 110


# The ranking-file writers as they were before they formatted in bulk and
# took the vocabulary's lexicographic order, kept verbatim as references.
def _reference_rankings_csv(vocab, ranking):
    keywords, scores = vocab.keywords, memoryview(ranking.scores)  # items are floats
    lines = ["keyword,score,rank"]
    for rank, j in enumerate(ranking.order, start=1):
        lines.append(f"{keywords[j]},{format(scores[j], '.17g')},{rank}")
    return "\n".join(lines) + "\n"


def _reference_rankings_markdown(result):
    keywords, idf = result.vocab.keywords, memoryview(result.vocab.idf)  # items are floats
    idf_order = sorted(range(len(keywords)), key=lambda j: (-idf[j], keywords[j]))
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


# few distinct values, so idf values and scores tie; -0.0 and subnormals too
TIED_IDF = st.sampled_from([0.0, 0.5, 1.0, 2.5, 5e-324, 1e-310, 1e300])
TIED_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1, 1 / 3, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def ranking_results(draw):
    """A stand-in for ``run_experiment``'s result: a random vocabulary, a
    ranking in any order, and counts and baseline ranks for some keywords."""
    words = st.text("aAbB-é0 ", min_size=1, max_size=3)
    keywords = draw(st.lists(words, unique=True, max_size=12))
    n = len(keywords)
    vocab = corpus.VocabularyIndex(keywords, draw(st.lists(TIED_IDF, min_size=n, max_size=n)))
    scores = np.array(draw(st.lists(TIED_SCORES, min_size=n, max_size=n)), dtype=np.float64)
    order = tuple(draw(st.permutations(range(n))))
    posterior = bayes.PosteriorRanking(vocab=vocab, scores=scores, order=order)
    ranks = st.dictionaries(st.sampled_from(keywords), st.integers(1, n)) if n else st.just({})
    return SimpleNamespace(
        vocab=vocab,
        posterior=posterior,
        count_ranking=SimpleNamespace(counts=draw(ranks), ranks=draw(ranks)),
        pooled_ranking=SimpleNamespace(ranks=draw(ranks)),
    )


@settings(max_examples=300, deadline=None)
@given(result=ranking_results())
def test_ranking_files_equal_the_reference_writers(result):
    assert rankings_csv(result.vocab, result.posterior) == _reference_rankings_csv(
        result.vocab, result.posterior
    )
    assert rankings_markdown(result) == _reference_rankings_markdown(result)


def test_experiment_transcript_rounds_accumulate(experiment_config):
    result = run_experiment(experiment_config(seed=4, rounds=3))
    assert len(result.transcript.messages) == 3 * 110
    rounds = {m.round for m in result.transcript.messages}
    assert rounds == {0, 1, 2}


def test_experiment_oov_max_extends_vocab(experiment_config, tmp_path):
    idf_path = tmp_path / "small.tsv"
    idf_path.write_text("phloem\t9.8125\nxylem\t9.6191\n", encoding="utf-8")
    cfg = make_experiment_config(seed=0, idf_path=str(idf_path), oov="max")
    result = run_experiment(cfg)
    assert len(result.vocab) > 2
    assert float(result.vocab.idf.max()) == 9.8125


def test_config_validation_errors(experiment_config):
    with pytest.raises(ConfigError):
        run_experiment(experiment_config(n_users=0))
    with pytest.raises(ConfigError):
        run_experiment(experiment_config(k=0))
    with pytest.raises(ConfigError):
        run_experiment(experiment_config(share_range=-1.0))
    with pytest.raises(ConfigError):
        run_experiment(experiment_config(rounds=0))
    with pytest.raises(ConfigError):
        run_experiment(experiment_config(aggregation="median"))
    with pytest.raises(ConfigError):
        run_experiment(experiment_config(corpus_path="/nonexistent/corpus.txt"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_writes_outputs(tmp_path, capsys):
    rc = cli.main(["run", "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 0
    for name in ("rankings.csv", "rankings.md", "transcript.jsonl", "meta.json"):
        assert (tmp_path / "out" / name).is_file()
    assert "top keywords" in capsys.readouterr().out


def test_cli_seed_is_mandatory(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--out", "unused"])
    assert exc.value.code == 2


def test_cli_check_passes(capsys):
    assert cli.main(["check", "--seed", "1"]) == 0
    assert "oracle check passed" in capsys.readouterr().out


def _raw_error(out: str) -> tuple[float, int]:
    """The error and the grid bits f of the raw-sum line in ``out``."""
    [line] = [line for line in out.splitlines() if line.startswith("max |aggregate")]
    error, bits = re.fullmatch(
        r"max \|aggregate - raw sum\| = (\S+) \(grid step 2\^(-?\d+) = \S+\)", line
    ).groups()
    return float(error), int(bits)


def test_cli_check_reports_the_raw_sum_error_within_the_encoding_bound(capsys):
    assert cli.main(["check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "oracle check passed: 699 keywords, seed 0"
    error, bits = _raw_error(out)
    # N = 10, D = 100: step 2^-42, and each of the 10 encodings moves an
    # entry by at most half a step
    assert bits == -42
    assert 0 < error <= 10 * 2.0**bits / 2


def test_cli_aggregate_reports_a_coarse_grid_moving_the_sum(tmp_path, capsys):
    # step 1 at D = 2^50 with points 1 and 2 inside the bounds: [0.1] and
    # [0.6] encode to 1 each, so the aggregate reads 2 for a raw sum of 0.7
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(ONE_POINT_VECTOR_FILE, encoding="utf-8")
    argv = ["aggregate", "--vectors", str(vectors), "--seed", "0", "--bounds", "0.1", "2",
            "--share-range", "1125899906842624", "--out", str(tmp_path / "agg")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "aggregated 2 vectors of dimension 1",
        "max |aggregate - raw sum| = 1.3 (grid step 2^0 = 1)",
    ]
    assert (tmp_path / "agg" / "aggregate.csv").read_text() == "coordinate,value\n0,2\n"


def _messages_built(monkeypatch, argv) -> int:
    """How many ``netsim.Message``s ``cli.main(argv)`` constructs."""
    built = []
    post_init = netsim.Message.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(netsim.Message, "__post_init__", counting)
    assert cli.main(argv) == 0
    return len(built)


def test_cli_check_never_builds_the_transcript(monkeypatch, tmp_path):
    argv = ["--users", "20", "--rounds", "2", "--seed", "0"]
    assert _messages_built(monkeypatch, ["check", *argv]) == 0
    # run writes its transcript's lines straight from the rounds' seeds
    run = ["run", *argv, "--out", str(tmp_path / "out")]
    assert _messages_built(monkeypatch, run) == 0
    lines = (tmp_path / "out" / "transcript.jsonl").read_bytes().splitlines()
    assert len(lines) == 1 + 2 * (20 * 20 + 20)


def test_cli_check_derives_one_grid_per_round(monkeypatch):
    calls = Counter()
    for name in ("grid_bits", "encode_steps"):
        def counting(*args, name=name, call=getattr(secagg, name)):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(secagg, name, counting)
    assert cli.main(["check", "--users", "45", "--seed", "0"]) == 0
    # the round, the oracle's sum and the raw-sum line each derive the grid
    # once; the round and the oracle each encode all 45 secrets in one call
    assert calls["grid_bits"] <= 4 and calls["encode_steps"] <= 2, calls


def test_cli_check_builds_no_baselines(monkeypatch, tmp_path, capsys):
    # only rankings.md shows the count and pooled-trend baselines
    calls = Counter()
    names = ("term_columns", "rank_by_term_totals", "local_top_keywords", "rank_by_pooled_trend")
    for name in names:
        module = corpus if name == "term_columns" else baselines

        def counting(*args, name=name, call=getattr(module, name)):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(module, name, counting)
    assert cli.main(["check", "--users", "45", "--seed", "0"]) == 0
    assert calls == Counter()
    assert cli.main(["run", "--users", "10", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert calls == Counter(dict.fromkeys(names, 1))


def _kept_bytes(n_users: int, rounds: int) -> tuple[int, int]:
    """Traced bytes still held while a run's result lives, and its d."""
    tracemalloc.start()
    try:
        result = run_experiment(make_experiment_config(n_users=n_users, rounds=rounds))
        return tracemalloc.get_traced_memory()[0], len(result.vocab)
    finally:
        tracemalloc.stop()


def test_experiment_keeps_no_share_blocks_across_rounds():
    n = 30
    run_experiment(make_experiment_config(n_users=n))  # warm the loaders' caches
    (one, d), (four, _) = _kept_bytes(n, 1), _kept_bytes(n, 4)
    # a round keeps its N·d obfuscated vectors, not its N blocks of N·d shares
    assert four - one < 3 * 1.5 * n * d * 8


@pytest.mark.parametrize("users", ["10", "45", "150"])
@pytest.mark.parametrize("share_range", ["1e2", "1e4", "1e6"])
def test_cli_check_passes_across_share_ranges(capsys, users, share_range):
    for seed in range(5):
        argv = ["check", "--users", users, "--share-range", share_range, "--seed", str(seed)]
        assert cli.main(argv) == 0, f"seed {seed}"


def test_cli_check_survives_exact_zero_coordinates(capsys):
    # float shares once pushed an exactly-zero coordinate below zero here,
    # and the second round's prior rejected it
    argv = ["check", "--users", "55", "--k", "6", "--share-range", "13801.6",
            "--seed", "984", "--rounds", "3", "--delivery", "seeded_shuffle"]
    assert cli.main(argv) == 0
    assert "oracle check passed" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["check"], ["check", "--rounds", "2"], ["run"]])
def test_cli_rejects_share_range_that_zeroes_every_likelihood(tmp_path, capsys, command):
    # D = 1e16 at N = 10 puts the grid step at 2^5, so every likelihood in
    # [0, 1] encodes to 0 and no round would carry any evidence
    out = tmp_path / "out"
    argv = [*command, "--users", "10", "--share-range", "1e16", "--seed", "0"]
    if command[0] == "run":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "D=1e+16" in err and "N=10" in err and "grid step 2^5" in err
    assert not out.exists()


@settings(max_examples=30, deadline=None)
@given(
    n_users=st.integers(min_value=1, max_value=60),
    log_d=st.floats(min_value=0.0, max_value=8.0),
    k=st.integers(min_value=1, max_value=8),
    rounds=st.integers(min_value=1, max_value=3),
    aggregation=st.sampled_from(["sum", "mean"]),
    oov=st.sampled_from(["drop", "max"]),
    delivery=st.sampled_from(["round_robin", "seeded_shuffle"]),
    alpha0=st.sampled_from([0.0, 1e-6, 0.5]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_federated_ranking_equals_oracle(
    n_users, log_d, k, rounds, aggregation, oov, delivery, alpha0, seed
):
    cfg = make_experiment_config(
        n_users=n_users, share_range=10.0**log_d, k=k, rounds=rounds,
        aggregation=aggregation, oov=oov, delivery=delivery, alpha0=alpha0, seed=seed,
    )
    assert run_experiment(cfg).meta["oracle_match"]


@pytest.mark.parametrize("extra", [["--agg", "mean"], ["--rounds", "2"]])
@pytest.mark.parametrize("seed", ["0", "3"])
def test_cli_check_agrees_with_run_oracle_match(tmp_path, extra, seed):
    out = tmp_path / "out"
    assert cli.main(["run", "--seed", seed, "--out", str(out), *extra]) == 0
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    expected = 0 if meta["oracle_match"] else 1
    assert cli.main(["check", "--seed", seed, *extra]) == expected


def _cli_config(monkeypatch, argv):
    """The ``ExperimentConfig`` that ``cli.main(argv)`` runs."""
    configs = []

    def capture(cfg):
        configs.append(cfg)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "run_experiment", capture)
    assert cli.main(argv) == 2
    return configs[0]


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "flag, value, field, expected",
    [
        ("--corpus", "c.txt", "corpus_path", "c.txt"),
        ("--format", "jsonl", "corpus_format", "jsonl"),
        ("--idf", "i.tsv", "idf_path", "i.tsv"),
        ("--stopwords", "s.txt", "stopword_path", "s.txt"),
        ("--users", "7", "n_users", 7),
        ("--k", "3", "k", 3),
        ("--share-range", "50", "share_range", 50.0),
        ("--seed", "5", "seed", 5),
        ("--rounds", "2", "rounds", 2),
        ("--agg", "mean", "aggregation", "mean"),
        ("--oov", "max", "oov", "max"),
        ("--delivery", "seeded_shuffle", "delivery", "seeded_shuffle"),
    ],
)
def test_cli_flag_sets_exactly_its_config_field(monkeypatch, command, flag, value, field, expected):
    defaults = ExperimentConfig(
        corpus_path=str(data.msmarco_corpus_path()),
        idf_path=str(data.idf_table_path()),
        stopword_path=str(data.stopwords_path()),
    )
    assert _cli_config(monkeypatch, [command, "--seed", "0"]) == defaults
    cfg = _cli_config(monkeypatch, [command, "--seed", "0", flag, value])
    assert getattr(defaults, field) != expected
    assert cfg == dataclasses.replace(defaults, **{field: expected})


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = cli.main(
        ["run", "--seed", "0", "--corpus", str(tmp_path / "missing.txt"), "--out", "x"]
    )
    assert rc == 2


@pytest.mark.parametrize("text", ["null", '["Costa", "Rica"]', "7"])
def test_cli_jsonl_text_that_is_not_a_string_is_a_config_error(tmp_path, capsys, text):
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text('{"id": 0, "text": %s}\n' % text, encoding="utf-8")
    argv = ["check", "--seed", "0", "--format", "jsonl", "--corpus", str(corpus_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus_path}: line 1: 'text' must be a string")
    assert "Traceback" not in err


def test_cli_aggregate_roundtrip(tmp_path):
    vectors = tmp_path / "vectors.jsonl"
    with open(vectors, "w", encoding="utf-8") as handle:
        for i, values in enumerate([[0.2, 0.4], [0.3, 0.1], [0.5, 0.9]]):
            handle.write(json.dumps({"id": str(i), "values": values}) + "\n")
    out = tmp_path / "agg"
    rc = cli.main(
        ["aggregate", "--vectors", str(vectors), "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    rows = (out / "aggregate.csv").read_text().splitlines()
    assert rows[0] == "coordinate,value"
    value = float(rows[1].split(",")[1])
    assert abs(value - 1.0) <= 1e-9
    assert (out / "transcript.jsonl").is_file()


def test_cli_aggregate_range_failure_exit_code(tmp_path):
    vectors = tmp_path / "vectors.jsonl"
    # declared bounds [0, 1] but a vector far outside: the summed aggregate
    # escapes [N*a, N*b] and validation must fail with exit code 4
    with open(vectors, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "0", "values": [50.0]}) + "\n")
        handle.write(json.dumps({"id": "1", "values": [0.5]}) + "\n")
    rc = cli.main(
        [
            "aggregate",
            "--vectors",
            str(vectors),
            "--seed",
            "0",
            "--bounds",
            "0",
            "100",
            "--out",
            str(tmp_path / "agg"),
        ]
    )
    assert rc == 0  # within declared bounds: fine
    rc = cli.main(
        [
            "aggregate",
            "--vectors",
            str(vectors),
            "--seed",
            "0",
            "--out",
            str(tmp_path / "agg2"),
        ]
    )
    assert rc == 4


@pytest.mark.parametrize("big", [1e300, 1e308])
def test_cli_aggregate_huge_values_fail_range_validation(tmp_path, capsys, big):
    # values near the largest double: at 1e300 the grid stays exact below
    # them, and a sum outside the declared bounds fails range validation; the
    # share range is wide enough for a grid step that leaves shares nonzero
    vectors = tmp_path / "vectors.jsonl"
    with open(vectors, "w", encoding="utf-8") as handle:
        for i in range(2):
            handle.write(json.dumps({"id": str(i), "values": [big, 0.5]}) + "\n")
    argv = ["aggregate", "--vectors", str(vectors), "--seed", "0", "--out", str(tmp_path),
            "--share-range", "1e300"]
    if big == 1e308:  # two vectors could sum past the largest double: no round runs
        assert cli.main(argv) == 2
        assert "share range D=1e+300 is too large for N=2 users" in capsys.readouterr().err
        assert not (tmp_path / "aggregate.csv").exists()
        assert not (tmp_path / "transcript.jsonl").exists()
        return
    assert cli.main(argv) == 4
    assert "range validation FAILED: ((0," in capsys.readouterr().err
    # the transcript reloads, and every Aggregate payload is the aggregate
    # bit for bit
    rows = (tmp_path / "aggregate.csv").read_text().splitlines()[1:]
    aggregate = np.array([float(row.split(",")[1]) for row in rows])
    assert np.isfinite(aggregate[0])
    transcript = netsim.load_transcript(tmp_path / "transcript.jsonl")
    copies = [
        m.payload for m in transcript.messages if m.kind is netsim.MessageKind.AGGREGATE
    ]
    assert len(copies) == 2
    assert all(c.tobytes() == aggregate.tobytes() for c in copies)


@pytest.mark.parametrize("share_range", ["1e12", "1e13"])
def test_cli_aggregate_in_bound_vectors_pass_range_validation(tmp_path, share_range):
    # 0.7 lies between grid points; it encodes to the point below it, inside
    # the bounds, rather than to the nearer one above
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text('{"values": [0.7, 0.3]}\n' * 2, encoding="utf-8")
    argv = ["aggregate", "--vectors", str(vectors), "--seed", "0", "--bounds", "0.3", "0.7",
            "--share-range", share_range, "--out", str(tmp_path / "agg")]
    assert cli.main(argv) == 0


def test_cli_rank_over_likelihood_file(tmp_path):
    idf = tmp_path / "idf.tsv"
    idf.write_text("alpha\t1.0\nbeta\t4.0\n", encoding="utf-8")
    likelihoods = tmp_path / "lk.jsonl"
    with open(likelihoods, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "0", "values": [0.8, 0.2]}) + "\n")
        handle.write(json.dumps({"id": "1", "values": [0.6, 0.4]}) + "\n")
    out = tmp_path / "rank"
    rc = cli.main(
        [
            "rank",
            "--likelihoods",
            str(likelihoods),
            "--idf",
            str(idf),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "rankings.csv").read_text().splitlines()
    # scores: alpha = 1.4 * 0.2 = 0.28, beta = 0.6 * 0.8 = 0.48
    assert lines[1].startswith("beta,")
    assert lines[2].startswith("alpha,")


def test_cli_rank_dimension_mismatch(tmp_path):
    idf = tmp_path / "idf.tsv"
    idf.write_text("alpha\t1.0\n", encoding="utf-8")
    likelihoods = tmp_path / "lk.jsonl"
    likelihoods.write_text(json.dumps({"id": "0", "values": [0.8, 0.2]}) + "\n")
    rc = cli.main(
        ["rank", "--likelihoods", str(likelihoods), "--idf", str(idf), "--out", "x"]
    )
    assert rc == 2


def _rank_likelihoods_of(tmp_path, result, agg, reverse=False):
    """``rank``'s rankings.csv bytes over the likelihood vectors of ``result``."""
    lines = [
        json.dumps({"id": lk.user_id, "values": lk.values.values.tolist()}) + "\n"
        for lk in result.likelihoods
    ]
    likelihoods = tmp_path / "lk.jsonl"
    likelihoods.write_text("".join(lines[::-1] if reverse else lines), encoding="utf-8")
    out = tmp_path / "rank"
    argv = ["rank", "--likelihoods", str(likelihoods), "--agg", agg, "--out", str(out)]
    assert cli.main(argv) == 0
    return (out / "rankings.csv").read_bytes()


@pytest.mark.parametrize("agg", ["sum", "mean"])
@pytest.mark.parametrize(
    "users, seed", [(10, 18), (12, 7), (45, 0), (45, 6), (45, 8), (45, 20)]
)
def test_cli_rank_writes_the_rankings_of_run(tmp_path, users, seed, agg):
    # at N = 12, seed 7 four exactly tied keywords share ranks 68-71; at
    # N = 45 these seeds have sums that the run's share grid moves into the
    # next score cell
    result = run_experiment(make_experiment_config(n_users=users, seed=seed, aggregation=agg))
    expected = rankings_csv(result.vocab, result.posterior).encode("utf-8")
    assert _rank_likelihoods_of(tmp_path, result, agg) == expected


def test_cli_rank_ignores_line_order(tmp_path):
    result = run_experiment(make_experiment_config(n_users=12, seed=7))
    forward = _rank_likelihoods_of(tmp_path, result, "sum")
    assert _rank_likelihoods_of(tmp_path, result, "sum", reverse=True) == forward


@pytest.mark.parametrize(
    "row, code",
    [([1e300, 0.4], 2), ([-0.5, 0.4], 2), ([1.5, 0], 2), ([0, 1], 0),
     (["0.5", 0.4], 2), ([True, False], 2)],
)
def test_cli_rank_takes_likelihoods_in_the_unit_interval_only(tmp_path, capsys, row, code):
    idf = tmp_path / "idf.tsv"
    idf.write_text("alpha\t1.0\nbeta\t4.0\n", encoding="utf-8")
    likelihoods = tmp_path / "lk.jsonl"
    likelihoods.write_text(
        json.dumps({"id": "u0", "values": [0.3, 0.1]}) + "\n"
        + json.dumps({"id": "u1", "values": row}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "rank"
    argv = ["rank", "--likelihoods", str(likelihoods), "--idf", str(idf), "--out", str(out)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code:
        number = all(type(x) in (int, float) for x in row)
        cause = "outside [0, 1]" if number else "values are not numbers"
        assert "line 2" in err and "'u1'" in err and cause in err
        assert not out.exists()
    else:
        rows = (out / "rankings.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert all(np.isfinite(float(line.split(",")[1])) for line in rows)


def test_cli_aggregate_bad_vector_file(tmp_path):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text("not json\n", encoding="utf-8")
    rc = cli.main(
        ["aggregate", "--vectors", str(vectors), "--seed", "0", "--out", "x"]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "bad_values",
    [
        [float("nan"), 0.5], [0.5, float("-inf")], 3.0, [], [int("9" * 400), 0.5],
        ["0.5", "0.3"], [True, False],
    ],
)
def test_cli_aggregate_rejects_malformed_values(tmp_path, capsys, bad_values):
    vectors = tmp_path / "vectors.jsonl"
    with open(vectors, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "u0", "values": [0.2, 0.4]}) + "\n")
        handle.write(json.dumps({"id": "u1", "values": bad_values}) + "\n")
    out = tmp_path / "agg"
    rc = cli.main(["aggregate", "--vectors", str(vectors), "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "line 2" in err and "'u1'" in err
    assert not out.exists()


VALID_VECTOR_FILE = (
    '{"id": "u0", "values": [0.2, 0.4]}\n{"id": "u1", "values": [0.3, 0.1]}\n'
)
ONE_POINT_VECTOR_FILE = '{"values": [0.1]}\n{"values": [0.6]}\n'
SMALL_VECTOR_FILE = '{"values": [0.1]}\n{"values": [0.1]}\n'
# the largest double, then sixty values each below half its ulp: a left-to-right
# sum stays finite while the exact sum passes the largest double
HUGE_VECTOR_FILE = '{"values": [1.7976931348623157e308]}\n' + '{"values": [5e291]}\n' * 60


@pytest.mark.parametrize(
    "extra, cause, text",
    [(extra, cause, VALID_VECTOR_FILE) for extra, cause in [
        (["--share-range", "nan"], "share_range must be positive and finite"),
        (["--share-range", "-1"], "share_range must be positive and finite"),
        (["--share-range", "inf"], "share_range must be positive and finite"),
        (["--seed", "-1"], "seed must be a nonnegative integer"),
        (["--bounds", "0", "inf"], "bounds (0, inf) must be finite"),
        (
            ["--share-range", "1e16"],
            "share range D=1e+16 is too coarse for N=2 users: the grid step 2^3 = 8",
        ),
        (
            ["--share-range", "1e-20"],
            "share range D=1e-20 is too narrow for N=2 users: the grid step 2^-51",
        ),
        # the envelope of the bounds sets a grid step of 2^15 at D = 100
        (
            ["--bounds", "0", "1e20"],
            "share range D=100 is too narrow for N=2 users: the grid step 2^15 = 32768 "
            "exceeds D, so every share would be 0",
        ),
    ]] + [
        # step 1 at D = 2^50: both vectors would encode to 1, the one grid
        # point inside the bounds, and aggregate to 2 for a true sum of 0.7
        (
            ["--bounds", "0.1", "1", "--share-range", "1125899906842624"],
            "the grid step 2^0 = 1 leaves one point, 1, inside the bounds (0.1, 1)",
            ONE_POINT_VECTOR_FILE,
        ),
        # step 1 at D = 2^50 with points 1, 2 and 3 inside the bounds: both
        # vectors would encode to 1 and aggregate to 2 for a true sum of 0.2
        (
            ["--bounds", "0.1", "3", "--share-range", "1125899906842624"],
            "the grid step 2^0 = 1 rounds every secret to 1, the grid point "
            "nearest 0 inside the bounds (0.1, 3)",
            SMALL_VECTOR_FILE,
        ),
        # step 2^-1080: grid points below the smallest double are not doubles
        (
            ["--bounds", "0", "1e-310", "--share-range", "1e-310"],
            "share range D=1e-310 is too small for N=2 users: the grid step "
            "2^-1080 = 0 is below the smallest double, 2^-1074",
            '{"values": [3e-311]}\n{"values": [1e-311]}\n',
        ),
    ] + [
        # a sum of the 61 vectors could pass the largest double; the bound
        # 1.8e308 sets the step at either share range
        (
            ["--share-range", share_range],
            f"share range D={float(share_range):g} is too large for N=61 users: the grid "
            "step 2^977 = 1.27734e+294 lets a sum of the round's vectors pass the largest "
            "double",
            HUGE_VECTOR_FILE,
        )
        for share_range in ["1e300", "1e306"]
    ] + [
        # D + max(|a|, |b|) / 2 itself passes the largest double
        (
            ["--share-range", "1.7e308"],
            "share range D=1.7e+308 is too large for N=1 users: the grid step 2^973",
            '{"values": [1.7976931348623157e308]}\n',
        ),
    ],
    ids=[
        "D_nan", "D_negative", "D_inf", "seed_negative", "bound_inf", "D_too_coarse",
        "D_too_narrow", "bounds_too_wide", "one_grid_point", "secrets_off_zero",
        "step_below_smallest_double", "sum_past_largest_double_D_1e300",
        "sum_past_largest_double_D_1e306", "share_range_plus_bound_past_largest_double",
    ],
)
def test_cli_aggregate_fault_table(tmp_path, capsys, extra, cause, text):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(text, encoding="utf-8")
    out = tmp_path / "agg"
    argv = ["aggregate", "--vectors", str(vectors), "--seed", "0", "--out", str(out)]
    assert cli.main(argv + extra) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert cause in err
    assert not out.exists()


@st.composite
def edited_vector_files(draw):
    """The two-record vector file after up to four character edits."""
    text = VALID_VECTOR_FILE
    char = st.one_of(
        st.sampled_from(list('0123456789.-+eE[]{}",: \nNaIn')),
        st.characters(exclude_categories=("Cs",)),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        pos = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        keep = pos if edit == "insert" else pos + 1
        text = text[:pos] + ("" if edit == "delete" else draw(char)) + text[keep:]
    return text


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=edited_vector_files())
def test_cli_edited_vector_files_end_in_a_documented_exit_code(tmp_path, capsys, text):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(text, encoding="utf-8")
    idf = tmp_path / "idf.tsv"
    idf.write_text("alpha\t1.0\nbeta\t4.0\n", encoding="utf-8")
    out = str(tmp_path / "out")
    # an exception escaping main() is the traceback a user would see
    aggregate = ["aggregate", "--vectors", str(vectors), "--seed", "0", "--out", out]
    assert cli.main(aggregate) in (0, 2, 4)
    rank = ["rank", "--likelihoods", str(vectors), "--idf", str(idf), "--out", out]
    assert cli.main(rank) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "table",
    ["", "alpha\t0\nbeta\t0\n", "alpha\t1e308\nbeta\t1e308\n"],
    ids=["empty", "all-zero", "overflowing"],
)
@pytest.mark.parametrize("command", ["run", "check", "rank"])
def test_cli_degenerate_idf_table_is_a_config_error(tmp_path, capsys, command, table):
    idf = tmp_path / "idf.tsv"
    idf.write_text(table, encoding="utf-8")
    if command == "rank":
        likelihoods = tmp_path / "lk.jsonl"
        likelihoods.write_text(json.dumps({"values": [0.5, 0.5]}) + "\n", encoding="utf-8")
        argv = ["rank", "--likelihoods", str(likelihoods)]
    else:
        argv = [command, "--seed", "0"]
    argv += ["--idf", str(idf)] + (["--out", str(tmp_path / "out")] if command != "check" else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {idf}: degenerate prior")
    assert not (tmp_path / "out").exists()


def test_cli_oov_max_weights_whose_sum_overflows_are_a_config_error(tmp_path, capsys):
    # the table alone sums to 1.1e308; --oov max adds the corpus's other
    # tokens at 1e308 each
    idf = tmp_path / "idf.tsv"
    idf.write_text("manhattan\t1e308\nproject\t1e307\n", encoding="utf-8")
    assert cli.main(["check", "--seed", "0", "--idf", str(idf)]) == 0
    capsys.readouterr()
    assert cli.main(["check", "--seed", "0", "--oov", "max", "--idf", str(idf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {idf}: degenerate prior")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "table", ["zzzqqq\t1.0\nyyyxxx\t2.0\n", "manhattan\t0\nzzzqqq\t1\n"],
    ids=["no-word-held", "held-word-weighs-0"],
)
@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_rounds_without_evidence_are_a_config_error(tmp_path, capsys, command, table):
    """With no held keyword of positive weight every score of a round is 0,
    which leaves the next round no prior; a single round still ranks."""
    idf = tmp_path / "idf.tsv"
    idf.write_text(table, encoding="utf-8")
    for rounds, status in (1, 0), (2, 2):
        out = tmp_path / f"out{rounds}"
        argv = [command, "--seed", "0", "--idf", str(idf), "--rounds", str(rounds)]
        assert cli.main(argv + (["--out", str(out)] if command == "run" else [])) == status
    err = capsys.readouterr().err
    assert err.startswith("error: --rounds 2: no evidence to update on")
    assert str(idf) in err and "Traceback" not in err
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "0", "--corpus"],
        ["check", "--seed", "0", "--stopwords"],
        ["run", "--seed", "0", "--idf"],
        ["aggregate", "--seed", "0", "--vectors"],
        ["rank", "--likelihoods"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
def test_cli_non_utf8_input_file_is_a_config_error(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes('{"values": [0.5, 0.5]}\nalpha\t1.0\nna\u00efve\n'.encode("latin-1"))
    out = [] if argv[0] == "check" else ["--out", str(tmp_path / "out")]
    assert cli.main([*argv, str(bad), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_stores_the_arrays_their_producers_made(monkeypatch, tmp_path, capsys):
    """Each array a command keeps was frozen in place by the code that made
    it, so ``frozen`` stores it as it is, in the producer's own memory."""
    copies = []

    def spy(values, keep=secagg.frozen):
        kept = keep(values)
        if isinstance(values, np.ndarray) and not np.shares_memory(kept, values):
            copies.append(values.shape)
        return kept

    for module in (secagg, bayes, corpus):
        monkeypatch.setattr(module, "frozen", spy)
    vectors, idf, out = tmp_path / "vectors.jsonl", tmp_path / "idf.tsv", str(tmp_path / "out")
    vectors.write_text('{"values": [0.2, 0.4]}\n{"values": [0.3, 0.1]}\n', encoding="utf-8")
    idf.write_text("alpha\t1.0\nbeta\t4.0\n", encoding="utf-8")
    argv = ["--users", "12", "--seed", "1", "--rounds", "2"]
    assert cli.main(["check", *argv, "--agg", "mean"]) == 0
    assert cli.main(["run", *argv, "--out", out]) == 0
    assert cli.main(["aggregate", "--vectors", str(vectors), "--seed", "0", "--out", out]) == 0
    assert cli.main(["rank", "--likelihoods", str(vectors), "--idf", str(idf), "--out", out]) == 0
    assert copies == []


# sha256 of the files that `fedtrend run` wrote for each argv before the
# document layer became per-document columns; any change to tokenizing,
# sampling, likelihoods, rounds, ranking or formatting moves them.
GOLDEN_RUNS = {
    ("--users", "12", "--seed", "3"): {
        "rankings.csv": "083e953a65cb76b3f3a5298adeaa9676dac30889908f77032ef7f044e89dde1d",
        "rankings.md": "601c464732403ec6f4eed81e36774a1a56dcbbeeec2f4a46f6876518bf2aea09",
        "transcript.jsonl": "ec324564aefcc628dbc4cdb8fef9edae605bfd06119c09a54050ece9e366ffb7",
    },
    ("--users", "45", "--k", "3", "--oov", "max", "--seed", "1"): {
        "rankings.csv": "ee987a1bd82124f2c8207eb5a1422c77e4f23159941de87f98c41f4e4c6d3468",
        "rankings.md": "053a9419e4e0c370697b37033cb91abd004dd8ed38aff05b0788e24af189e34a",
        "transcript.jsonl": "a59fc339762364eb932e3e62ff21293c39a3cb4e01ac5a87596e87f9bd30d659",
    },
    # computed before the transcript writer streamed bytes from the seeds
    ("--users", "12", "--seed", "3", "--rounds", "2", "--delivery", "seeded_shuffle"): {
        "rankings.csv": "43ccf012e2a5af8594f2d84b9d8e3a0feb041c13ea29723b15e0e58f277378da",
        "rankings.md": "4dd73eb7cde19f35f9d624d85a68581ff7b84bf9676333eeed710c8b9765cee3",
        "transcript.jsonl": "ef22195123b88cd79a2562c91cff2db2b6de1cf936e00da5a11b56292ce9d837",
    },
    ("--users", "1", "--seed", "0"): {
        "rankings.csv": "019850806d3e3c77125e1a79eb945ad773f6e5dfb43c7a2d737b540e63996d3a",
        "rankings.md": "6fdcf42d131092f6d24d48bfe64277afc662591c0445f0ec8ed461a97732869e",
        "transcript.jsonl": "94d8a5f48820c96c1e85abdd18e9f90f8472660b157aaf4961ee01705063fbee",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_RUNS), ids=" ".join)
def test_cli_run_writes_the_golden_bytes(tmp_path, capsys, argv):
    assert cli.main(["run", *argv, "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_RUNS[argv]
    }
    assert digests == GOLDEN_RUNS[argv]


# sha256 of what `fedtrend aggregate` writes for the two vectors
# [0.2, 0.4] and [0.3, 0.1] at seed 0, computed before the transcript writer
# streamed bytes from the seeds
GOLDEN_AGGREGATES = {
    "round_robin": "666303c6c49f8075066fe4b3201ab59651617094af8d45f9902dcace73a09f4a",
    "seeded_shuffle": "83758c59c1bd3e23243eea6c0b92951754bfe5962ce98a6ab96809c16578d1ea",
}


@pytest.mark.parametrize("seed", [14, 15, 16, 27, 35])
def test_cli_aggregate_refuses_an_overflow_grid(tmp_path, capsys, seed):
    # N * (2D + 5e307) passes the largest double: the grid step 2^973 lets
    # three vectors below 2^53 steps add up past 2^1023
    vectors, out = tmp_path / "vectors.jsonl", tmp_path / "agg"
    vectors.write_text('{"values": [5e307, 0.5]}\n' * 3, encoding="utf-8")
    argv = ["aggregate", "--vectors", str(vectors), "--share-range", "5e307"]
    assert cli.main([*argv, "--seed", str(seed), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: share range D=5e+307 is too large for N=3 users: the grid step "
        "2^973 = 7.98336e+292 lets a sum of the round's vectors pass the largest double\n"
    )
    assert not (out / "aggregate.csv").exists()
    assert not (out / "transcript.jsonl").exists()


def test_cli_aggregate_keeps_a_lone_users_signed_zero(tmp_path, capsys):
    # -1e-300 encodes to -0.0, which a sum of integer grid steps would lose
    vectors, out = tmp_path / "vectors.jsonl", tmp_path / "agg"
    vectors.write_text('{"values": [-1e-300, 0.5]}\n', encoding="utf-8")
    argv = ["aggregate", "--vectors", str(vectors), "--bounds", "-1", "1", "--seed", "0"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert (out / "aggregate.csv").read_text() == "coordinate,value\n0,-0\n1,0.5\n"
    transcript = hashlib.sha256((out / "transcript.jsonl").read_bytes()).hexdigest()
    assert transcript == "8e62b25091f0d35220ec0f5d56ed86fc20ee223ba559674967b92f29235d2368"


@pytest.mark.parametrize("delivery", list(GOLDEN_AGGREGATES))
def test_cli_aggregate_writes_the_golden_bytes(tmp_path, capsys, delivery):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(
        '{"id": "u0", "values": [0.2, 0.4]}\n{"id": "u1", "values": [0.3, 0.1]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "agg"
    argv = ["aggregate", "--vectors", str(vectors), "--seed", "0", "--delivery", delivery]
    assert cli.main([*argv, "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("aggregate.csv", "transcript.jsonl")
    }
    assert digests == {
        "aggregate.csv": "953b69f46918baaeca77d6ad9c4763a1c001791ac64a00fdf11cfcc0f9034e0c",
        "transcript.jsonl": GOLDEN_AGGREGATES[delivery],
    }
