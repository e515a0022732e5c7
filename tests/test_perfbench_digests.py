"""Every benchmark output keeps its bytes.

Each workload's check phase runs every distinct input of seed 1 once and
hashes all its outputs: replay reports, encounter assessments and
estimated models, all written by ``cli.dumps_stable``.  This test runs
the three check phases in process and pins their digests and outcome
mixes, so a change to the writer, or to anything upstream of it, that
moves one byte of one output fails here.  As with the golden reports, a
digest changes only in a commit that states why.
"""

import signal
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# workload: (ops, outcomes of the assessments, sha256 of every output)
CHECKS = {
    "replay": (
        147,
        {"non_closing": 30092, "unstable": 0, "below_threshold": 5410, "acc": 1332, "steering": 2459, "failed": 0},
        "e295d322e441b4ed40312258a5cce09518e7228c3e2cb5a43dfaf2ec350527d9",
    ),
    "encounters": (
        1000,
        {"non_closing": 210, "unstable": 171, "below_threshold": 390, "acc": 75, "steering": 154, "failed": 0},
        "5a899ec94c90b453aae9f66a3b3916e01faffd69d227f45233ec7ac3261ec867",
    ),
    "estimate": (
        400,
        {"non_closing": 0, "unstable": 0, "below_threshold": 0, "acc": 0, "steering": 0, "failed": 0},
        "fe54780a9f773554ee226079c076818177db95e4a1a6a18b9aed95d4bf5ef674",
    ),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_phase_digest_at_seed_1(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    import workloads

    workload = workloads.WORKLOADS[name](1, tmp_path, ROOT / "src")
    counters = workloads.Counters()
    previous = signal.signal(signal.SIGALRM, workloads.raise_timeout)  # the ops' timeout
    try:
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always", RuntimeWarning)  # the eig fallback may warn
            workload.prepare()
            workload.check(counters)
    finally:
        signal.signal(signal.SIGALRM, previous)
    got = counters.as_dict()
    assert not counters.problems
    assert (got["ops"], got["outcomes"], got["digest"]) == CHECKS[name]
