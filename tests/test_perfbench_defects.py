"""The benchmark's known-defect reproductions still reach the package.

``perfbench/workloads.py`` records the exception class each reproduction
ends in, so a signature change to a function a reproduction calls (such as
``flow3_select_actions``, ``EncounterInput`` or
``flow2_crash_probabilities``) shows there only as a ``TypeError`` in a
counter.  This test runs the reproductions in process and fails on any
outcome but the defect itself or its fix.
"""

import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_known_defect_reproductions_end_in_their_defect_or_ok(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    import workloads

    previous = signal.signal(signal.SIGALRM, workloads.raise_timeout)  # the ops' timeout
    try:
        with pytest.warns(RuntimeWarning):  # the huge exponent's fallback warns
            outcomes = workloads.known_defects(ROOT / "src", tmp_path)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes["absorbing_lane_rows"] in ("NotRegular", "ok")
    assert outcomes["speed_out_of_range"] in ("SpeedOutOfRange", "ok")
    assert outcomes["huge_exponent_fallback"] == "ok"
