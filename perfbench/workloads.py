"""The benchmark's workloads, shared by the runner and the worker process.

Each run attempts whole rounds, at least ``MIN_ROUNDS``, and more until
``--seconds`` have passed.  A round runs every experiment seed of the
workload once, in an order drawn from the run's ``--seed``.  The seed
windows are fixed: the kept ``_quantize`` fault fails on some experiment
seeds, so a window drawn from ``--seed`` would change the share of failed
operations from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Share range D of every workload (the CLI default).
SHARE_RANGE = 100.0
#: Set-ups per run; setup_s is their median.
SETUPS = 9
#: Rounds per run at least, so a traced run has an untraced round to
#: compare with its traced ones.
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # `fedtrend` subcommand, called through fedtrend.cli.main
    users: int
    seeds: tuple[int, ...]  # experiment seeds of one round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-n10", "run", 10, tuple(range(12))),
        # Seed 11 of 0-11 shows the kept fault at N = 45.
        Workload("crowd-n45", "check", 45, tuple(range(12))),
    )
}
