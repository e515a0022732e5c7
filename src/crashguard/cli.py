"""Command-line entry point: estimate, assess, and simulate subcommands.

Exit codes are a function of the result alone: 0 means no action / no
crash, 1 means an action was emitted (assess) or the crash flag is set
(simulate), 2 means bad input: ``main`` turns a CrashguardError or an
OSError into one ``error:`` line, and any other exception is a fault in
the program and propagates.  All JSON output is written with sorted
keys and floats rounded to 6 significant digits so identical runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import simulator
from .errors import CrashguardError
from .estimation import (
    DEFAULT_FRAME_INTERVAL,
    build_vehicle_model,
    ingest_trajectories,
    load_model,
    model_to_dict,
    require_frame_interval,
)
from .prediction import (
    _NON_CLOSING,
    CrashAssessment,
    EncounterInput,
    LaneAction,
    SafetyAction,
    Thresholds,
    assess,
    assessment_to_dict,
    top_action,
)

log = logging.getLogger("crashguard")

EXIT_OK = 0
EXIT_FLAGGED = 1
EXIT_INPUT_ERROR = 2


def _float(x: float) -> str:
    """``repr`` of x rounded to 6 significant digits, as ``json`` writes it.

    The ``%.6g`` text is tested on its most common form first.  With a
    ``.`` and no exponent it is already ``repr`` of the rounded value; with
    none of ``.``, ``e`` or ``n`` it is an integral value that needs a
    ``.0``.  A two-digit negative exponent, ``e-05`` to ``e-99``, marks a
    normal float, whose six digits ``repr`` also writes.  Anything else, a
    positive or three-digit exponent, a NaN or an infinity, is read back and
    written as ``json`` writes that float: an exponent's digits can differ
    from ``repr``'s, as ``4.94066e-324`` against ``5e-324``.
    """
    s = "%.6g" % x
    if "." in s:
        if "e" not in s:
            return s
    elif "e" not in s and "n" not in s:
        return s + ".0"
    if s[-4:-2] == "e-":
        return s
    rounded = float(s)
    if rounded != rounded:
        return "NaN"
    if rounded == math.inf:
        return "Infinity"
    if rounded == -math.inf:
        return "-Infinity"
    return float.__repr__(rounded)


@functools.lru_cache(maxsize=256)
def _dict_heads(keys: tuple, newline: str) -> tuple[tuple[tuple[str, str], ...], str, str]:
    """The fixed text of a dict with these keys, opened on a line that
    ``newline`` ends: ``(key, head)`` for each key in sorted order, where a
    head is ``{`` or ``,``, the inner newline and ``"key": ``; then the
    inner newline and the closing ``}`` with its newline.

    Memoised by the key tuple and indentation, since a report writes many
    dicts with the same keys at the same depth; a key that is not a str
    raises TypeError (``sorted`` or ``encode_basestring_ascii`` takes only
    str), and a call that raises is not cached.
    """
    inner = newline + "  "
    heads = []
    lead = "{" + inner
    for key in sorted(keys):
        heads.append((key, lead + encode_basestring_ascii(key) + ": "))
        lead = "," + inner
    return tuple(heads), inner, newline + "}"


# the keys of a timeline row whose values differ from tick to tick, which
# _row_texts fills; every other value is fixed text of the row's template
_SLOT_KEYS = frozenset(["clock", "gap", "t", "pc", "lane", "action", "target", "m1_entry", "m2_entry", "branch"])


def _template_text(value, newline: str, slot: bool) -> str:
    """The ``%`` template text of a value of a sample row: ``%s`` for a
    slot (a list of them for ``pc``), a dict or a non-empty list walked
    value by value, and any other value as ``_write`` writes it.  A ``%``
    in the fixed text is escaped."""
    if slot and value is not None and type(value) is not list:
        return "%s"
    if type(value) is dict and value:
        heads, inner, close = _dict_heads(tuple(value), newline)
        parts = [head.replace("%", "%%") + _template_text(value[key], inner, key in _SLOT_KEYS) for key, head in heads]
        return "".join(parts) + close
    if type(value) is list and value:
        inner = newline + "  "
        items = ["%s" if slot else _template_text(item, inner, False) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _write(value, newline).replace("%", "%%")


def _row_texts(clock: float, gap: float, assessment: CrashAssessment) -> tuple[str, ...]:
    """The texts of a timeline row's slots in its template's order, the
    order of the sorted keys: each action's action, lane and target; the
    clock; the top action's branch, lane, m1 and m2 entries; the gap; the
    ``pc`` entries; ``t``."""
    actions, pc, t = assessment.actions, assessment.pc, assessment.t
    texts = []
    for action in actions:
        texts += (encode_basestring_ascii(action.action.value), int.__repr__(action.lane),
                  encode_basestring_ascii(action.target))
    texts.append(_float(clock))
    if actions:
        top = top_action(assessment)
        texts += encode_basestring_ascii(top.branch), int.__repr__(top.lane), _float(top.m1_entry), _float(top.m2_entry)
    texts.append(_float(gap))
    if pc is not None:
        texts += map(_float, pc.tolist())
    if t is not None:
        texts.append(_float(t))
    return tuple(texts)


@functools.lru_cache(maxsize=64, typed=True)  # np.True_ is no bool to the writer
def _row_template(newline: str, closing: bool, speed_stable: bool | None, lanes: int | None,
                  actions: int) -> str | None:
    """The ``%`` template of a timeline row opened on a line that
    ``newline`` ends, for an assessment of this shape: closing or not (``t``
    set or None), its ``speed_stable``, the length of its ``pc`` (None for
    no ``pc``) and its action count.  ``_row_texts`` fills it.

    Its fixed text is the heads and ``_write`` text of the row of a sample
    assessment of the shape, so its bytes are the dict path's.  None, for
    the dict path, when no sample of the shape has a row (actions without a
    ``pc`` to rank them), or when the filled template does not write the
    sample's row as ``_write`` does (a row key that ``_row_texts`` does not
    fill).  The sample's floats all differ, so a fill that swaps two of
    them fails that check.
    """
    if actions and not lanes:
        return None
    sample = CrashAssessment(
        t=3.0 if closing else None,
        speed_stable=speed_stable,
        pc=None if lanes is None else np.arange(4.0, 4.0 + lanes),
        actions=tuple(LaneAction(k % lanes + 1, SafetyAction.ACC_ON, f"target{k}", -1.0 - k, -0.5 - k, f"branch{k}")
                      for k in range(actions)),
    )
    row = simulator.Timeline.row(1.0, 2.0, sample)
    template = _template_text(row, newline, False)
    try:
        written = template % _row_texts(1.0, 2.0, sample)
    except TypeError:  # a slot count other than _row_texts's
        return None
    return template if written == _write(row, newline) else None


# a second name of the template cache, which tests/test_simulator.py clears
_non_closing_template = _row_template


def _write_timeline(timeline: simulator.Timeline, newline: str) -> str:
    """The JSON text of a timeline, as the list of its rows: each tick from
    the template of its assessment's shape, filled by ``_row_texts``; a tick
    whose shape has no template by ``_write`` of its row."""
    if not timeline:
        return "[]"
    inner = newline + "  "
    non_closing = _row_template(inner, False, None, None, 0)
    rows = []
    for clock, gap, assessment in zip(timeline.clocks, timeline.gaps, timeline.assessments):
        if assessment is _NON_CLOSING:
            template = non_closing
        else:
            pc = assessment.pc
            template = _row_template(inner, assessment.t is not None, assessment.speed_stable,
                                     None if pc is None else len(pc), len(assessment.actions))
        if template is None:
            rows.append(_write(simulator.Timeline.row(clock, gap, assessment), inner))
        else:
            rows.append(template % _row_texts(clock, gap, assessment))
    return "[" + inner + ("," + inner).join(rows) + newline + "]"


_FLOAT_ONLY = frozenset([float])


def _write(obj, newline: str) -> str:
    """The JSON text of obj; newline ends with obj's indentation.

    Exact types come first.  A dict is its memoised heads, each followed by
    its value; a float, None, a bool, a str, an int or an empty list is
    appended to its head in place.  A list or tuple of exact floats is one
    join.  Anything else, such as ``np.float64`` or a subclass of dict,
    list or str, takes the ``isinstance`` tests (a bool before an int) and
    is written with the same bytes.  A ``simulator.Timeline`` is written
    tick by tick (:func:`_write_timeline`), as the list of its rows, each
    from the template of its assessment's shape without a row dict.
    """
    cls = type(obj)
    if cls is float:
        return _float(obj)
    if cls is not dict and cls is not list and cls is not tuple:
        if isinstance(obj, float):
            return _float(obj)
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        if isinstance(obj, simulator.Timeline):
            return _write_timeline(obj, newline)
        if isinstance(obj, dict):
            cls = dict
        elif not isinstance(obj, (list, tuple)):
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    if not obj:
        return "{}" if cls is dict else "[]"
    if cls is dict:
        heads, inner, close = _dict_heads(tuple(obj), newline)
        parts = []
        for key, head in heads:
            value = obj[key]
            kind = type(value)
            if kind is float:
                parts.append(head + _float(value))
            elif value is None:
                parts.append(head + "null")
            elif kind is str:
                parts.append(head + encode_basestring_ascii(value))
            elif kind is int:
                parts.append(head + int.__repr__(value))
            elif value is True:
                parts.append(head + "true")
            elif value is False:
                parts.append(head + "false")
            elif kind is list and not value:
                parts.append(head + "[]")
            else:
                parts.append(head + _write(value, inner))
        parts.append(close)
        return "".join(parts)
    inner = newline + "  "
    if _FLOAT_ONLY.issuperset(map(type, obj)):
        body = ("," + inner).join(map(_float, obj))
    else:
        body = ("," + inner).join([_write(item, inner) for item in obj])
    return "[" + inner + body + newline + "]"


def dumps_stable(obj) -> str:
    """obj as JSON with sorted keys, an indent of 2, floats rounded to 6
    significant digits and a final newline, written in one pass.

    The bytes equal ``json.dumps`` with ``sort_keys=True, indent=2`` of obj
    with every float rounded first, except that every dict key must be a
    str (TypeError otherwise).
    """
    return _write(obj, "\n") + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
        log.info("wrote %s", path)
    else:
        sys.stdout.write(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


# --- estimate ---

def cmd_estimate(args) -> int:
    """Every model is built before the output directory is created, so a
    bad input in any vehicle writes nothing."""
    require_frame_interval("frame_interval", args.frame_interval)
    grouped = ingest_trajectories(args.csv)
    if not grouped:
        return _fail("no records")
    models = {}
    for vehicle_id in sorted(grouped):
        try:
            models[vehicle_id] = build_vehicle_model(grouped[vehicle_id], frame_interval=args.frame_interval)
        except CrashguardError as exc:
            return _fail(f"vehicle {vehicle_id}: {exc}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for vehicle_id, model in models.items():
        path = out_dir / f"vehicle_{vehicle_id}.json"
        path.write_text(dumps_stable(model_to_dict(model)), encoding="utf-8")
        n = len(grouped[vehicle_id])
        print(
            f"vehicle {vehicle_id}: {n} records, {n - 1} transitions, "
            f"unobserved lane rows {list(model.lane_unobserved)}, "
            f"unobserved speed rows {list(model.speed_unobserved)} -> {path}"
        )
    return EXIT_OK


# --- assess ---

def cmd_assess(args) -> int:
    thresholds = Thresholds(speed_stability=args.speed_threshold, crash=args.crash_threshold)
    try:
        car1 = load_model(args.model1)
        car2 = load_model(args.model2)
    except (CrashguardError, OSError) as exc:
        return _fail(f"invalid model: {exc}")
    encounter = EncounterInput(car1, car2, args.gap, args.front, thresholds)
    assessment = assess(encounter, horizon=args.t_override)
    _emit(dumps_stable(assessment_to_dict(assessment)), args.out)
    return EXIT_FLAGGED if assessment.actions else EXIT_OK


# --- simulate ---

def cmd_simulate(args) -> int:
    config = simulator.load_scenario(args.scenario)
    if args.time_step is not None:
        config = dataclasses.replace(config, time_step=args.time_step)
    if args.force_same_lane:
        config = simulator.force_same_lane(config)
    report = simulator.run(config, disable_actions=args.disable_actions)
    _emit(dumps_stable(simulator.report_to_dict(report)), args.report_path)
    return EXIT_FLAGGED if report.crash else EXIT_OK


# --- parser wiring ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashguard",
        description="Estimate two-layer Markov models, assess pairwise crash risk, "
        "and simulate active-safety scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate per-vehicle models from a trajectory CSV")
    est.add_argument("--csv", required=True, help="trajectory CSV path")
    est.add_argument("--out-dir", required=True, help="directory for per-vehicle model JSON")
    est.add_argument("--frame-interval", type=float, default=DEFAULT_FRAME_INTERVAL,
                     help="seconds between frames (default %(default)s)")
    est.set_defaults(func=cmd_estimate)

    ass = sub.add_parser("assess", help="assess one two-vehicle encounter")
    ass.add_argument("--model1", required=True)
    ass.add_argument("--model2", required=True)
    ass.add_argument("--gap", type=float, required=True, help="longitudinal gap in meters")
    ass.add_argument("--front", choices=["car1", "car2"], required=True,
                     help="which car leads longitudinally")
    ass.add_argument("--t-override", type=float, default=None,
                     help="skip flow 1 and evaluate flows 2-3 at this horizon (s)")
    ass.add_argument("--crash-threshold", type=float, default=Thresholds.crash)
    ass.add_argument("--speed-threshold", type=float, default=Thresholds.speed_stability)
    ass.add_argument("--out", default=None, help="write the assessment JSON here instead of stdout")
    ass.set_defaults(func=cmd_assess)

    sim = sub.add_parser("simulate", help="replay a scenario file")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--report-path", default=None)
    sim.add_argument("--disable-actions", action="store_true",
                     help="assess every step but never apply an action")
    sim.add_argument("--force-same-lane", action="store_true",
                     help="move both cars to the trailing car's lane")
    sim.add_argument("--time-step", type=float, default=None)
    sim.set_defaults(func=cmd_simulate)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("CRASHGUARD_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CrashguardError, OSError) as exc:
        return _fail(str(exc))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
