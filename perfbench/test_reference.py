"""Self-test of the benchmark's reference checker; runs in a few seconds.

    python3 -m pytest perfbench -q

The checker must accept the program's real output and reject each planted
fault: two adjacent keywords swapped in rankings.csv, a share outside
[-D, D], and a transcript with one message missing.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fedtrend import data, netsim  # noqa: E402
from fedtrend.experiment import ExperimentConfig, run_experiment, write_outputs  # noqa: E402

import reference as ref  # noqa: E402

N, D = 10, 100.0


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One `fedtrend run` at N = 10, its written files and its exact reference."""
    cfg = ExperimentConfig(
        corpus_path=str(data.msmarco_corpus_path()),
        idf_path=str(data.idf_table_path()),
        stopword_path=str(data.stopwords_path()),
        n_users=N,
        share_range=D,
        seed=0,
    )
    result = run_experiment(cfg)
    paths = write_outputs(result, tmp_path_factory.mktemp("run"))
    table = ref.IdfTable.read(data.idf_table_path())
    user_docs = [[(doc.id, doc.tokens) for doc in docs] for docs in result.user_docs]
    return result, paths, ref.exact_reference(user_docs, table, cfg.k)


def test_exact_reference_by_hand():
    table = ref.IdfTable(("a", "b", "c", "d"), (Fraction(2), Fraction(1), Fraction(1), Fraction(3)))
    user_docs = [
        [("0", ("a", "a", "b", "x")), ("1", ("c",))],  # top-2 sets {a, b} and {c}
        [("0", ("a", "a", "b", "x"))],
    ]
    got = ref.exact_reference(user_docs, table, k=2)
    # user 0: a, b, c each 1/3; user 1: a, b each 1/2
    assert got.pooled == (Fraction(5, 6), Fraction(5, 6), Fraction(1, 3), Fraction(0))
    # scores 5/3, 5/6, 1/3, 0
    assert got.ranking == ("a", "b", "c", "d")
    assert ref.top_keywords(("b", "a", "c", "c"), 2) == ["c", "a"]


def test_accepts_the_program_output(run):
    _, paths, exact = run
    ref.check_ranking(ref.read_rankings_csv(paths["rankings_csv"]), exact)
    aggregate = ref.check_transcript(
        netsim.load_transcript(paths["transcript"]), N, len(exact.keywords), D
    )
    assert ref.check_aggregate(aggregate, exact) < ref.AGGREGATE_TOLERANCE


def test_rejects_adjacent_keywords_swapped(run, tmp_path):
    _, paths, exact = run
    lines = Path(paths["rankings_csv"]).read_text(encoding="utf-8").splitlines()
    swapped = tmp_path / "rankings.csv"
    for row, expected in ((1, ref.Mismatch), (_tied_row(exact), ref.TieOrderMismatch)):
        rows = list(lines)
        a, b = rows[row].split(",", 1), rows[row + 1].split(",", 1)
        rows[row], rows[row + 1] = f"{b[0]},{a[1]}", f"{a[0]},{b[1]}"
        swapped.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(expected) as caught:
            ref.check_ranking(ref.read_rankings_csv(swapped), exact)
        assert type(caught.value) is expected


def _tied_row(exact) -> int:
    """First csv row whose keyword is exactly tied with the next one."""
    ranking = exact.ranking
    return next(
        i + 1 for i in range(len(ranking) - 1)
        if exact.score[ranking[i]] == exact.score[ranking[i + 1]]
    )


def test_rejects_a_share_outside_the_range(run):
    result, _, exact = run
    messages = list(result.transcript.messages)
    i = next(i for i, m in enumerate(messages) if m.kind is netsim.MessageKind.SHARE)
    payload = messages[i].payload.copy()
    payload[3] = D * 1.5
    messages[i] = dataclasses.replace(messages[i], payload=payload)
    tampered = dataclasses.replace(result.transcript, messages=tuple(messages))
    with pytest.raises(ref.Mismatch, match=r"outside \[-D, D\]"):
        ref.check_transcript(tampered, N, len(exact.keywords), D)


def test_rejects_a_transcript_with_one_message_missing(run, tmp_path):
    _, paths, exact = run
    lines = Path(paths["transcript"]).read_text(encoding="utf-8").splitlines(keepends=True)
    for dropped in (1, len(lines) // 2, len(lines) - 1):
        short = tmp_path / "transcript.jsonl"
        short.write_text("".join(lines[:dropped] + lines[dropped + 1:]), encoding="utf-8")
        with pytest.raises(ref.Mismatch, match="N\\^2\\+N"):
            ref.check_transcript(netsim.load_transcript(short), N, len(exact.keywords), D)
