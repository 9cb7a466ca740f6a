"""Command-line front end.

Subcommands:
  run        full experiment: corpus -> likelihoods -> secure round -> rankings
  aggregate  secure aggregation only, over a JSONL file of vectors
  rank       Bayes ranking only, over a JSONL file of likelihood vectors
  check      assert each round's aggregate equals the share-free sum of the
             encoded likelihoods, bit for bit (so the rankings are equal)

``COMMANDS`` lists them as (name, help, add_flags, handler). ``main``
builds the parser of the command named first alone, and of all four for
no arguments, ``-h`` or a word that is no command; the help, usage lines
and errors are the same either way.

Exit codes: 0 success, 1 check mismatch (or, for ``run`` and ``aggregate``,
a round whose shares do not cancel in its transcript), 2 configuration
error (a degenerate IDF table among them), 4 range-validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bayes, corpus, data, netsim, secagg
from .experiment import (
    AGGREGATIONS,
    OOV_POLICIES,
    ConfigError,
    ExperimentConfig,
    rankings_csv,
    run_experiment,
    write_outputs,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_RANGE = 4


def _round_args(sub: argparse.ArgumentParser) -> None:
    """The flags of a round's ``netsim.RoundConfig``."""
    sub.add_argument(
        "--share-range", type=float, help="half-width D of the random share interval"
    )
    sub.add_argument("--seed", type=int, required=True, help="experiment seed")
    sub.add_argument("--delivery", choices=netsim.DELIVERIES)


def _experiment_args(sub: argparse.ArgumentParser) -> None:
    """The ``run``/``check`` flags; each stores the ``ExperimentConfig``
    field it sets, and one left out leaves that field's default."""
    sub.add_argument(
        "--corpus", dest="corpus_path", metavar="CORPUS",
        default=str(data.msmarco_corpus_path()),
        help="corpus file (default: bundled evaluation passages)",
    )
    sub.add_argument("--format", dest="corpus_format", choices=corpus.CORPUS_FORMATS)
    sub.add_argument(
        "--idf", dest="idf_path", metavar="IDF", default=str(data.idf_table_path()),
        help="IDF table TSV (default: bundled table)",
    )
    sub.add_argument(
        "--stopwords", dest="stopword_path", metavar="STOPWORDS",
        default=str(data.stopwords_path()), help="stopword list (default: bundled list)",
    )
    sub.add_argument(
        "--users", dest="n_users", metavar="USERS", type=int,
        help="number of virtual users",
    )
    sub.add_argument("--k", type=int, help="primary keyword set size")
    _round_args(sub)
    sub.add_argument("--rounds", type=int, help="belief-update rounds")
    sub.add_argument("--agg", dest="aggregation", choices=AGGREGATIONS)
    sub.add_argument("--oov", choices=OOV_POLICIES)


def _config_from(cls, args: argparse.Namespace):
    """The ``cls`` config that the flags storing its fields set; a field
    whose flag was not given, or that has no flag, keeps its default."""
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in fields and v is not None})


def _load_vectors(path: str, bounds: tuple[float, float] | None = None) -> np.ndarray:
    """JSONL vector file, one {"id": ..., "values": [...]} object per line,
    as the rows of one read-only array.

    Values must be a non-empty flat list of finite numbers, inside
    ``bounds`` when given; a record that breaks this is a configuration
    error naming the file, line and record id, and a file that is not
    UTF-8 is one naming the file.
    """
    vectors = []
    for lineno, line in enumerate(corpus.read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            raw = rec["values"]
            record_id = str(rec.get("id", lineno - 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: line {lineno}: bad vector record ({exc})")
        where = f"{path}: line {lineno}: record {record_id!r}"
        try:  # np.asarray would read "0.5" and true as numbers
            if isinstance(raw, list) and any(isinstance(x, (str, bool)) for x in raw):
                raise TypeError("a string or boolean entry")
            values = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: values are not numbers ({exc})")
        if values.ndim != 1 or values.size == 0:
            raise ConfigError(f"{where}: values must be a non-empty flat list")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{where}: non-finite value")
        if bounds and not bounds[0] <= values.min() <= values.max() <= bounds[1]:
            raise ConfigError(f"{where}: values outside [{bounds[0]:g}, {bounds[1]:g}]")
        vectors.append(values)
    if not vectors:
        raise ConfigError(f"{path}: no vectors found")
    if len({v.shape for v in vectors}) != 1:
        raise ConfigError(f"{path}: vectors disagree on dimension")
    return secagg.freeze(np.array(vectors))


def _raw_error_line(aggregate, values, transcript: netsim.Transcript) -> str:
    """A round's max |aggregate - exact sum of the rows of ``values``|, and its grid step."""
    f, error = transcript.grid_bits, np.max(np.abs(aggregate.values - secagg.exact_sum(values)))
    return f"max |aggregate - raw sum| = {error:g} (grid step 2^{-f} = {2.0 ** -f:g})"


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(_config_from(ExperimentConfig, args))
    paths = write_outputs(result, args.out)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    top = result.posterior.ranked_keywords()[:5]
    print("top keywords:", ", ".join(top))
    if not result.validation.ok:
        print("range validation FAILED:", result.validation.flagged, file=sys.stderr)
        return EXIT_RANGE
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    result = run_experiment(_config_from(ExperimentConfig, args))
    if result.meta["oracle_match"]:
        print(f"oracle check passed: {len(result.vocab)} keywords, seed {args.seed}")
        print(_raw_error_line(result.aggregate, result.likelihood_rows, result.transcript))
        return EXIT_OK
    failed = "a round's aggregate differs from the share-free sum of the encoded likelihoods"
    print(f"oracle check FAILED: {failed}", file=sys.stderr)
    return EXIT_MISMATCH


def _cmd_aggregate(args: argparse.Namespace) -> int:
    values = _load_vectors(args.vectors)
    a, b = args.bounds
    if not a <= b:
        raise ConfigError(f"invalid bounds: {args.bounds}")
    # Vectors outside the declared bounds are exactly what range validation
    # exists to catch, so run the round under the widest envelope and
    # validate the aggregate against the declared per-user range.
    lo, hi = min(a, float(values.min())), max(b, float(values.max()))
    try:
        cfg = _config_from(netsim.RoundConfig, args)
        aggregate, transcript = netsim.run_round(secagg.Rows(values, (lo, hi)), cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = secagg.validate_aggregate(aggregate, len(values), (a, b))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["coordinate,value"]
    lines += [f"{j},{format(x, '.17g')}" for j, x in enumerate(aggregate.values)]
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    netsim.write_transcript(transcript, out / "transcript.jsonl")
    print(f"aggregated {len(values)} vectors of dimension {len(aggregate)}")
    print(_raw_error_line(aggregate, values, transcript))
    if not report.ok:
        print("range validation FAILED:", report.flagged, file=sys.stderr)
        return EXIT_RANGE
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    # likelihoods lie in [0, 1], which also keeps the score grid finite
    values = _load_vectors(args.likelihoods, bounds=(0.0, 1.0))
    vocab = corpus.load_idf_table(args.idf)
    if values.shape[1] != len(vocab):
        raise ConfigError("likelihood vectors do not match the vocabulary size")
    total = secagg.encoded_sum(secagg.Rows(values), secagg.DEFAULT_SHARE_RANGE)
    prior = bayes.compute_prior(vocab)
    ranking = bayes.rank_rounds([total], prior, len(values), args.agg)[0]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rankings.csv").write_text(rankings_csv(vocab, ranking), encoding="utf-8")
    print("top keywords:", ", ".join(ranking.ranked_keywords()[:5]))
    return EXIT_OK


def _run_flags(sub: argparse.ArgumentParser) -> None:
    _experiment_args(sub)
    sub.add_argument("--out", default="out", help="output directory")


def _aggregate_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--vectors", required=True, help="JSONL vector file")
    _round_args(sub)
    bounds = secagg.FeatureVector.bounds  # the default per-user bounds
    sub.add_argument(
        "--bounds", type=float, nargs=2, default=bounds, metavar=("A", "B")
    )
    sub.add_argument("--out", default="out")


def _rank_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--likelihoods", required=True, help="JSONL vector file")
    sub.add_argument("--idf", default=str(data.idf_table_path()))
    sub.add_argument(
        "--agg", choices=AGGREGATIONS, default=ExperimentConfig.aggregation
    )
    sub.add_argument("--out", default="out")


#: Every subcommand, in help order: (name, help, add_flags, handler).
COMMANDS = (
    ("run", "run the full federated experiment", _run_flags, _cmd_run),
    (
        "aggregate", "secure aggregation over a vector file",
        _aggregate_flags, _cmd_aggregate,
    ),
    ("rank", "Bayes ranking over likelihood vectors", _rank_flags, _cmd_rank),
    ("check", "federated vs centralized oracle equality", _experiment_args, _cmd_check),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names
    one; the top-level usage line is the same either way."""
    parser = argparse.ArgumentParser(
        prog="fedtrend",
        description="Privacy-preserving Bayesian trend detection experiments",
    )
    chosen = [c for c in COMMANDS if c[0] == command] or COMMANDS
    # the metavar argparse would derive from all four names, kept when one is built
    metavar = None if chosen is COMMANDS else "{%s}" % ",".join(c[0] for c in COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, summary, add_flags, handler in chosen:
        p = sub.add_parser(name, help=summary)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The parser is a reference cycle: dropped before the command runs, it is
    # freed young instead of aging into the collector's oldest generation.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, corpus.CorpusFormatError, OSError, netsim.CancellationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH if isinstance(exc, netsim.CancellationError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
