"""One workload in a fresh process: set-up, then timed operations.

Started by ``run.py``, which checks every operation's outputs.  This process
writes one JSON object per line to its standard output.  After each ``op``
line it blocks until the runner answers with one line on standard input,
sent once the operation's outputs are checked and deleted.  The program's
own printing goes to the null device.

One closed-loop client: operations run back to back, each starting when the
previous one (and its check) has finished; no threads or extra processes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import fedtrend  # noqa: E402
from fedtrend import baselines, bayes, cli, corpus, experiment, netsim, secagg  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import MIN_ROUNDS, SHARE_RANGE, WORKLOADS  # noqa: E402

MODULES = {
    "fedtrend": fedtrend, "corpus": corpus, "bayes": bayes, "secagg": secagg,
    "netsim": netsim, "baselines": baselines, "experiment": experiment, "cli": cli,
}
MIB = 2.0**20


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def wait_for_check() -> None:
    if sys.stdin.readline().strip() != "next":
        raise SystemExit("worker: runner stopped")


class Capture:
    """Keeps what ``cli`` gets back from ``run_experiment`` and
    ``write_outputs``, so the runner can check it."""

    def __init__(self):
        self.result = None
        self.paths = None

        # Calls go through the ``experiment`` attributes, which a tracer wraps.
        def run_experiment(cfg):
            self.result = experiment.run_experiment(cfg)
            return self.result

        def write_outputs(result, out_dir):
            self.paths = experiment.write_outputs(result, out_dir)
            return self.paths

        cli.run_experiment, cli.write_outputs = run_experiment, write_outputs

    def take(self):
        result, paths = self.result, self.paths
        self.result = self.paths = None
        return result, paths


def file_mib(paths) -> tuple[float, float]:
    """Size of the transcript and of all output files, in MiB."""
    sizes = {key: os.path.getsize(p) for key, p in paths.items()}
    return sizes["transcript"] / MIB, sum(sizes.values()) / MIB


def layer_metrics(spans: dict, info: dict, n: int, d: int) -> dict[str, float]:
    """Per-layer figures of one traced operation."""

    def get(name, field="s"):
        return spans.get(name, {}).get(field, 0)

    pks = "corpus.primary_keyword_set"
    return {
        "corpus.load.s": get("corpus.load_corpus") + get("corpus.load_stopwords")
        + get("corpus.load_idf_table"),
        "corpus.preprocess.s": get("corpus.preprocess"),
        "corpus.preprocess.calls": get("corpus.preprocess", "calls"),
        f"{pks}.s": get(pks),
        f"{pks}.calls": get(pks, "calls"),
        f"{pks}.distinct_ratio": info["distinct_docs"] / get(pks, "calls")
        if get(pks, "calls") else 0.0,
        "bayes.compute_local_likelihood.s": get("bayes.compute_local_likelihood"),
        "bayes.compute_local_likelihood.calls": get("bayes.compute_local_likelihood", "calls"),
        "bayes.posterior_scores.s": get("bayes.posterior_scores"),
        "baselines.pooled_likelihood.s": get("baselines.pooled_likelihood"),
        "baselines.pooled_likelihood.calls": get("baselines.pooled_likelihood", "calls"),
        "baselines.centralized_oracle.s": get("baselines.centralized_oracle"),
        "baselines.rank_by_total_count.s": get("baselines.rank_by_total_count"),
        "secagg.make_shares.s": get("secagg.make_shares"),
        "secagg.make_shares.calls": get("secagg.make_shares", "calls"),
        "secagg.make_shares.mib": get("secagg.make_shares", "calls") * n * d * 8 / MIB,
        "secagg.combine_received.s": get("secagg.combine_received"),
        "secagg.aggregate.s": get("secagg.aggregate"),
        "secagg.validate_aggregate.s": get("secagg.validate_aggregate"),
        "secagg.user_s": (get("secagg.make_shares") + get("secagg.combine_received")) / n,
        "secagg.aggregator_s": get("secagg.aggregate") + get("secagg.validate_aggregate"),
        "netsim.run_round.s": get("netsim.run_round"),
        "netsim.run_round.self_s": get("netsim.run_round", "self_s"),
        "netsim.messages": info["messages"],
        "netsim.payload_mib": info["messages"] * d * 8 / MIB,
        "netsim.write_transcript.s": get("netsim.write_transcript"),
        "netsim.write_transcript.mib": info.get("transcript_mib", 0.0),
        "experiment.run_experiment.s": get("experiment.run_experiment"),
        "experiment.run_experiment.self_s": get("experiment.run_experiment", "self_s"),
        "experiment.write_outputs.s": get("experiment.write_outputs"),
        "experiment.write_outputs.self_s": get("experiment.write_outputs", "self_s"),
        "experiment.write_outputs.mib": info.get("outputs_mib", 0.0),
        "cli.main.s": get("cli.main"),
        "cli.main.self_s": get("cli.main", "self_s"),
        # Operation wall time not covered by any span's self time.
        "trace.unspanned_s": info["wall"] - sum(e["self_s"] for e in spans.values()),
    }


@contextlib.contextmanager
def quiet():
    """Send the program's own printing to the null device."""
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(
        devnull
    ), contextlib.redirect_stderr(devnull):
        yield


def run_round_peak_mib(secrets, seed: int) -> float:
    """tracemalloc peak of one ``run_round`` over ``secrets``, untraced."""
    tracemalloc.start()
    try:
        netsim.run_round(secrets, netsim.RoundConfig(seed=seed, share_range=SHARE_RANGE))
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for operation outputs")
    parser.add_argument("--trace-file", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    capture = Capture()
    send({"event": "ready", "t": time.monotonic()})
    if args.setup_only:
        return 0

    rng = np.random.default_rng(args.seed)
    tracer = Tracer() if args.trace else None
    layers: dict[int, dict] = {}  # traced operation -> its counts
    peak_secrets = peak_seed = None  # inputs of the first operation
    op = 0
    start = time.monotonic()
    rnd = 0
    # A traced run times its first round untraced and the rest traced.
    while rnd < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        traced = bool(tracer) and rnd > 0
        if traced and rnd == 1:
            tracer.install(MODULES)
        for seed in rng.permutation(wl.seeds).tolist():
            if traced:
                tracer.op = op
            argv = [wl.command, "--users", str(wl.users), "--seed", str(seed)]
            if wl.command == "run":
                argv += ["--out", str(Path(args.work) / f"op-{op}")]
            with quiet():
                began = time.monotonic()
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
            result, paths = capture.take()
            record = {"event": "op", "index": op, "round": rnd, "seed": seed,
                      "traced": traced, "began": began, "wall": wall, "exit": code,
                      "config": dataclasses.asdict(result.config),
                      "user_docs": [[doc.id for doc in docs] for docs in result.user_docs]}
            info = {"messages": len(result.transcript.messages)}
            if paths is not None:
                record["paths"] = {key: str(p) for key, p in paths.items()}
                info["transcript_mib"], info["outputs_mib"] = file_mib(paths)
            else:
                record["ranking"] = list(result.posterior.ranked_keywords())
                record["aggregate"] = result.aggregate.values.tolist()
            if peak_secrets is None:
                peak_secrets, peak_seed = [lk.values for lk in result.likelihoods], seed
            del result
            if traced:
                info["wall"] = wall
                info["distinct_docs"] = len(
                    tracer.distinct.get((op, "corpus.primary_keyword_set"), ())
                )
                layers[op] = info
            send(record)
            wait_for_check()
            op += 1
        rnd += 1

    done = {"event": "done",
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.uninstall()
        per_op = tracer.per_op()
        d = len(peak_secrets[0])
        metrics = [layer_metrics(per_op[i], info, wl.users, d) for i, info in layers.items()]
        summary = {name: statistics.median(m[name] for m in metrics) for name in metrics[0]}
        summary["netsim.run_round.peak_alloc_mib"] = run_round_peak_mib(peak_secrets, peak_seed)
        done["layers"] = summary
        done["unspanned"] = [[m["trace.unspanned_s"], info["wall"]]
                             for m, info in zip(metrics, layers.values())]
        tracer.write(Path(args.trace_file))
    send(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
