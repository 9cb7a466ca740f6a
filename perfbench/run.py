"""fedtrend benchmark: one workload per invocation, outputs checked exactly.

    python3 perfbench/run.py --workload paper-n10 --seed 0 --seconds 5 --trace 0

Run from the repository root; ``src/`` is put on the path, so no install is
needed (numpy and the standard library only).  The runner sets the workload
up several times, each in a fresh ``worker.py`` process, and runs the
operations in one of them.  Between operations it checks each one's
outputs against the exact reference (``reference.py``) and deletes them.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones, and the
spans go to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import SETUPS, SHARE_RANGE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

#: A run that has not ended by then is stopped without a result.
DEADLINE_S = 175
#: The self times of a traced operation's spans must add up to its wall time
#: within this much: the benchmark's own code between the calls it times.
UNSPANNED_S, UNSPANNED_SHARE = 1e-3, 0.01

FAILED = "failed"  # verdict of an operation that shows the kept fault


class Runner:
    """Checks each operation a worker reports, then lets it go on.

    The first run of an experiment seed is checked against the exact
    reference.  Every later run of that seed must write byte-identical files
    (``check``: report the identical result) and takes the first verdict.
    """

    def __init__(self, wl, run_dir: Path):
        sys.path.insert(0, str(SRC))
        from fedtrend import corpus, data, netsim

        self.wl, self.run_dir, self.netsim = wl, run_dir, netsim
        self.table = reference.IdfTable.read(data.idf_table_path())
        cfg = corpus.default_preprocess_config()
        self.tokens = {
            doc.id: corpus.preprocess(doc, cfg).tokens
            for doc in corpus.load_corpus(data.msmarco_corpus_path())
        }
        self.first: dict[int, tuple[str | None, dict]] = {}  # seed -> verdict, digests
        self.errors: list[str] = []
        self.failed = 0
        self.max_abs_error = 0.0

    def exact(self, user_docs, k):
        docs = [[(i, self.tokens[i]) for i in ids] for ids in user_docs]
        return reference.exact_reference(docs, self.table, k)

    def check(self, rec) -> None:
        """Check one operation.  A ranking that departs from the exact order
        only among exactly tied keywords is the kept fault and counts as
        failed; any other departure is an error."""
        seed = rec["seed"]
        try:
            digests = self._digests(rec)
            if seed not in self.first:
                self.first[seed] = self._verdict(rec), digests
            verdict, first = self.first[seed]
            changed = sorted(key for key in digests if digests[key] != first.get(key))
            if changed:
                verdict = f"a second run of the seed gave another {', '.join(changed)}"
        except (OSError, ValueError, KeyError) as exc:
            verdict = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(self.run_dir / f"op-{rec['index']}", ignore_errors=True)
        if verdict == FAILED:
            self.failed += 1
        elif verdict is not None:
            self.errors.append(f"{self.wl.name} seed {seed}: {verdict}")

    def _verdict(self, rec) -> str | None:
        try:
            self._check_first(rec)
        except reference.TieOrderMismatch:
            return FAILED
        except reference.Mismatch as exc:
            return str(exc)
        return None

    @staticmethod
    def _digests(rec) -> dict[str, str]:
        if "paths" not in rec:
            result = json.dumps([rec["exit"], rec["ranking"], rec["aggregate"]]).encode()
            return {"result": hashlib.sha256(result).hexdigest()}
        digests = {}
        for key, path in rec["paths"].items():
            with open(path, "rb") as handle:
                digests[key] = hashlib.file_digest(handle, "sha256").hexdigest()
        return digests

    def _note_error(self, err: float) -> None:
        self.max_abs_error = max(self.max_abs_error, err)

    def _check_first(self, rec) -> None:
        ref = self.exact(rec["user_docs"], rec["config"]["k"])
        mismatch = None
        if "paths" in rec:
            paths = rec["paths"]
            if rec["exit"] != 0:
                raise reference.Mismatch(f"`run` exited {rec['exit']}")
            aggregate = reference.check_transcript(
                self.netsim.load_transcript(paths["transcript"]),
                self.wl.users, len(self.table.keywords), SHARE_RANGE,
            )
            self._note_error(reference.check_aggregate(aggregate, ref))
            ranking = reference.read_rankings_csv(paths["rankings_csv"])
        else:
            self._note_error(reference.check_aggregate(rec["aggregate"], ref))
            ranking = rec["ranking"]
        try:
            reference.check_ranking(ranking, ref)
        except reference.TieOrderMismatch as exc:
            mismatch = exc
        # `check` exits 1 exactly when the ranking departs from the oracle.
        if "paths" not in rec and rec["exit"] != (1 if mismatch else 0):
            raise reference.Mismatch(f"`check` exited {rec['exit']}; ranking: {mismatch}")
        if mismatch:
            raise mismatch


def spawn(args, run_dir: Path, setup_only: bool, trace_file: Path | None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    return proc, started


def receive(proc) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker ended early with code {proc.wait()}")
    return json.loads(line)


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def set_up_only(args, run_dir: Path) -> float:
    """One set-up in a fresh worker that stops when ready; returns setup_s."""
    proc, started = spawn(args, run_dir, True, None)
    try:
        ready = receive(proc)["t"] - started
        if proc.wait() != 0:
            raise RuntimeError("set-up failed")
        return ready
    finally:
        stop(proc)


def measure(args, runner: Runner, run_dir: Path, trace_file: Path | None):
    """Set up, run and check every operation; returns the set-up times, the
    operation records and the worker's closing report.

    An untraced run also sets up ``SETUPS - 1`` more times, in fresh
    workers, spread evenly over the measured time: each one while the
    measuring worker waits between two operations, and any left over after
    it ends.  So the median ``setup_s`` does not rest on one moment's
    machine speed.
    """
    proc, started = spawn(args, run_dir, False, trace_file)
    ops = []
    more = 0 if args.trace else SETUPS - 1
    try:
        setups = [receive(proc)["t"] - started]
        first = None
        while (msg := receive(proc))["event"] != "done":
            ops.append({key: msg[key] for key in ("seed", "round", "traced", "began", "wall")})
            runner.check(msg)
            first = first or msg["began"]
            due = len(setups) * args.seconds / (more + 1)
            if len(setups) <= more and time.monotonic() - first >= due:
                setups.append(set_up_only(args, run_dir))
            proc.stdin.write("next\n")
            proc.stdin.flush()
        if proc.wait() != 0:
            raise RuntimeError("worker failed")
    finally:
        stop(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
    while len(setups) <= more:
        setups.append(set_up_only(args, run_dir))
    return setups, ops, msg


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = RESULTS / f"spans-{name}.json" if args.trace else None
    runner = Runner(wl, run_dir)
    setups, ops, report = measure(args, runner, run_dir, trace_file)
    untraced = [op["wall"] for op in ops if not op["traced"]]
    if args.trace:
        for unspanned, wall in report["unspanned"]:
            if abs(unspanned) > UNSPANNED_S + UNSPANNED_SHARE * wall:
                runner.errors.append(f"spans cover {wall - unspanned:.6f} s of a {wall:.6f} s "
                                     "operation")
        layers = dict(report["layers"])
        layers["secagg.max_abs_error"] = runner.max_abs_error
        layers["trace.overhead_s"] = statistics.median(
            op["wall"] for op in ops if op["traced"]
        ) - statistics.median(untraced)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s(ops), "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
        }
    for error in runner.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": not runner.errors, "attempted": len(ops), "failed": runner.failed,
              "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"run-{name}.json").write_text(
        json.dumps({"result": result, "setups": setups, "ops": ops}, indent=1) + "\n"
    )
    return result


def wall_s(ops) -> float:
    """Wall time of the run's fastest untraced operation.

    This host runs the same code up to about 1.7x slower in phases that last
    from a second to minutes (process CPU time rises with wall time, so the
    process is not waiting; the hardware it shares is busy).  A median over
    a run follows those phases; the fastest of a few hundred operations
    spread over the run follows the program.
    """
    return min(op["wall"] for op in ops if not op["traced"])


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("mib"):
        return "MiB"
    if name.endswith(".calls") or name == "netsim.messages":
        return "count"
    return "ratio" if name.endswith("_ratio") else "1"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders each round's operations")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="run whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "fedtrend").is_dir():
        print(f"error: {SRC / 'fedtrend'} not found; run from a fedtrend checkout",
              file=sys.stderr)
        return 2

    def overtime(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, overtime)
    signal.alarm(DEADLINE_S)
    try:
        result = run(args)
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
