"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line once its assertions hold (visible
with ``pytest -v -s`` or in the captured output); a failing criterion
fails its test.
"""

import importlib.resources
import json
import time
from dataclasses import replace

import numpy as np
import scipy.linalg

import oracles
from conftest import records_from
from crashguard import cli, estimation, markov, prediction, sensing, simulator
from crashguard.prediction import EncounterInput, SafetyAction, Thresholds

DATA = importlib.resources.files("crashguard") / "data"
SAMPLE_CSV = str(DATA / "sample_trajectories.csv")


def bundled_models():
    """All distinct vehicle models shipped in the bundled scenarios."""
    models = []
    for name in ("scenario1", "scenario2", "scenario3"):
        config = simulator.load_scenario(str(DATA / f"{name}.json"))
        models.extend(car.model for car in config.cars)
    return models


def bundled_chains():
    chains = []
    for model in bundled_models():
        chains.append(model.lane_chain)
        chains.append(model.speed_chain)
    return chains


def scenario_encounter(name):
    config = simulator.load_scenario(str(DATA / f"{name}.json"))
    cars = [
        replace(car.model, current_lane=car.lane, current_speed=car.speed, current_position=car.position)
        for car in config.cars
    ]
    front = "car1" if config.cars[0].position >= config.cars[1].position else "car2"
    gap = abs(config.cars[0].position - config.cars[1].position)
    return EncounterInput(cars[0], cars[1], gap, front, config.thresholds)


def test_criterion_1_markov_core_exactness():
    start = time.perf_counter()
    P = markov.validate_stochastic([[0.7, 0.3], [0.2, 0.8]])  # a=0.3, b=0.2
    w_exp, m12_exp, m21_exp = oracles.two_state_analytic(0.3, 0.2)

    w = markov.stationary_distribution(P)
    assert np.max(np.abs(w.entries - w_exp)) < 1e-12

    Z = markov.fundamental_matrix(P, markov.limiting_matrix(P))
    M = markov.mean_first_passage(Z, w)
    assert abs(M.entries[0, 1] - m12_exp) < 1e-9
    assert abs(M.entries[1, 0] - m21_exp) < 1e-9

    for (i, j), expected in (((0, 1), m12_exp), ((1, 0), m21_exp)):
        mc = oracles.mc_first_passage(P.entries, i, j, replicas=100_000, seed=100 + i)
        assert abs(M.entries[i, j] - mc) / mc < 0.02

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: two-state stationary/MFPT exact, MC within 2% ({elapsed:.2f}s)")


def test_criterion_2_limit_convergence():
    # the fast-mixing chains of the test oracles meet the 100-step bound;
    # the scenario chains hold lanes for seconds (second eigenvalue ~0.98)
    # so they are checked on the exact-stationarity half only
    fast = oracles.convergence_chains()
    for P in fast:
        w = markov.stationary_distribution(P)
        W = markov.limiting_matrix(P)
        assert np.max(np.abs(markov.matrix_power(P, 100).entries - W)) < 1e-6
        assert np.max(np.abs(w.entries @ P.entries - w.entries)) < 1e-10
    for P in bundled_chains():
        w = markov.stationary_distribution(P)
        assert np.max(np.abs(w.entries @ P.entries - w.entries)) < 1e-10
    print(
        f"ACCEPTANCE 2 PASS: P^100 -> W within 1e-6 on {len(fast)} convergence chains; "
        f"wP = w within 1e-10 on those and the {len(bundled_chains())} bundled chains"
    )


def test_criterion_3_fundamental_identity():
    for P in bundled_chains():
        w = markov.stationary_distribution(P)
        W = markov.limiting_matrix(P)
        Z = markov.fundamental_matrix(P, W)
        identity = Z @ (np.eye(P.n) - P.entries + W)
        assert np.max(np.abs(identity - np.eye(P.n))) < 1e-9
        M = markov.mean_first_passage(Z, w)
        assert np.all(np.diag(M.entries) == 0.0)
    print("ACCEPTANCE 3 PASS: Z(I-P+W)=I within 1e-9, passage diagonal exactly 0")


def test_criterion_4_estimation_matches_exhaustive_oracle():
    start = time.perf_counter()
    checked = 0
    for seq in oracles.all_sequences((1, 2), 8):
        model = estimation.build_vehicle_model(records_from([(lane, 5.0) for lane in seq]))
        got = model.lane_chain.entries
        want = oracles.pair_count_matrix(seq, 6)
        assert np.array_equal(got, want), seq
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS: exact agreement on {checked} sequences ({elapsed:.2f}s)")


def test_criterion_5_probable_crash_times_exact():
    assert sensing.probable_crash_time(40.0, 30.0, 40.0) == 4.0
    assert sensing.probable_crash_time(12.0, 40.0, 50.0) == 1.2
    assert sensing.probable_crash_time(30.0, 50.0, 60.0) == 3.0
    print("ACCEPTANCE 5 PASS: closed-form crash times 4.0 / 1.2 / 3.0 exact")


def test_criterion_6_flow2_products_and_scenario_shapes():
    # scenario 1 at its probable crash time t = 4: the marginals have a
    # fully independent integer-power oracle, compared at 1e-12
    enc1 = scenario_encounter("scenario1")
    t1 = prediction.assess(enc1).t
    assert t1 == 4.0
    pc1 = prediction.flow2_crash_probabilities(enc1.car1, enc1.car2, t1)
    pi1 = np.linalg.matrix_power(enc1.car1.lane_chain.entries, 4)[enc1.car1.current_lane - 1]
    pi2 = np.linalg.matrix_power(enc1.car2.lane_chain.entries, 4)[enc1.car2.current_lane - 1]
    assert np.max(np.abs(pc1 - pi1 * pi2)) < 1e-12
    assert pc1[4] >= 0.3

    # scenario 3 runs at a fractional horizon: the product structure is
    # checked at 1e-12 against directly propagated marginals, and the
    # marginals themselves against scipy's independent Schur-based
    # fractional power at float64 cross-algorithm agreement
    enc3 = scenario_encounter("scenario3")
    t3 = prediction.assess(enc3).t
    pc3 = prediction.flow2_crash_probabilities(enc3.car1, enc3.car2, t3)
    own1 = markov.propagate(
        markov.unit_vector(6, enc3.car1.current_lane - 1), enc3.car1.lane_chain, t3
    ).entries
    own2 = markov.propagate(
        markov.unit_vector(6, enc3.car2.current_lane - 1), enc3.car2.lane_chain, t3
    ).entries
    assert np.max(np.abs(pc3 - own1 * own2)) < 1e-12
    frac = scipy.linalg.fractional_matrix_power
    ref1 = np.real(frac(enc3.car1.lane_chain.entries, t3))[enc3.car1.current_lane - 1]
    ref2 = np.real(frac(enc3.car2.lane_chain.entries, t3))[enc3.car2.current_lane - 1]
    assert np.max(np.abs(own1 - ref1)) < 1e-9
    assert np.max(np.abs(own2 - ref2)) < 1e-9
    assert pc3.max() < 0.3

    print(
        "ACCEPTANCE 6 PASS: flow-2 = product of marginals to 1e-12; "
        f"scenario-1 pc(5)={pc1[4]:.4f} >= 0.3, scenario-3 max pc={pc3.max():.4f} < 0.3"
    )


def test_criterion_7_flow3_truth_table():
    from crashguard.markov import validate_stochastic
    from crashguard.synthetic import make_model

    def pinned(exit_prob, from_lane, to_lane):
        P = np.full((6, 6), 1.0 / 6.0)
        P[from_lane - 1] = 0.0
        P[from_lane - 1, from_lane - 1] = 1.0 - exit_prob
        P[from_lane - 1, to_lane - 1] = exit_prob
        return validate_stochastic(P)

    t = 4.0
    cells = 0
    for m1_steps in (2.0, 6.0):  # 0.5 t and 1.5 t at a 1 s frame interval
        for m2_steps in (2.0, 6.0):
            for front in ("car1", "car2"):
                for pc_value in (0.2, 0.4):
                    car1 = make_model(pinned(1.0 / m1_steps, 6, 5), lane=6)
                    car2 = make_model(pinned(1.0 / m2_steps, 2, 5), lane=2)
                    pc = np.zeros(6)
                    pc[4] = pc_value
                    got = prediction.flow3_select_actions(
                        EncounterInput(car1, car2, 40.0, front, Thresholds()), pc, t
                    )
                    want = oracles.flow3_branch_table(m1_steps, m2_steps, t, front, pc_value)
                    if want is None:
                        assert got == ()
                    else:
                        assert len(got) == 1
                        assert (got[0].action.value, got[0].target) == want
                    cells += 1
    assert cells == 16
    print("ACCEPTANCE 7 PASS: all 16 truth-table cells match the branch oracle")


def test_criterion_8_simulator_scenarios():
    import dataclasses

    config = simulator.load_scenario(str(DATA / "scenario1.json"))

    start = time.perf_counter()
    with_acc = simulator.run(config)
    first_elapsed = time.perf_counter() - start
    assert first_elapsed < 2.0
    assert not with_acc.crash
    assert with_acc.min_gap >= 9.0
    assert any(e.action is SafetyAction.ACC_ON for e in with_acc.triggered_actions)

    forced = simulator.force_same_lane(config)
    start = time.perf_counter()
    crash_report = simulator.run(forced, disable_actions=True)
    second_elapsed = time.perf_counter() - start
    assert second_elapsed < 2.0
    assert crash_report.crash

    zero_accel = dataclasses.replace(
        forced, cars=tuple(dataclasses.replace(c, acceleration=0.0) for c in forced.cars)
    )
    start = time.perf_counter()
    closed_form = simulator.run(zero_accel, disable_actions=True)
    third_elapsed = time.perf_counter() - start
    assert third_elapsed < 2.0
    assert closed_form.crash
    assert abs(closed_form.crash_time - 4.0) <= 0.1

    print(
        "ACCEPTANCE 8 PASS: ACC keeps min gap "
        f"{with_acc.min_gap:.2f} m >= 9; forced crash at {crash_report.crash_time:.2f} s; "
        f"zero-accel crash at {closed_form.crash_time:.2f} s = 4.0 +/- 0.1"
    )


def test_criterion_9_byte_identical_runs(tmp_path, capsys):
    # estimate
    model_bytes = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"models_{tag}"
        assert cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir)]) == 0
        model_bytes.append(
            tuple(p.read_bytes() for p in sorted(out_dir.glob("*.json")))
        )
    assert model_bytes[0] == model_bytes[1]

    # simulate, every bundled scenario
    for name in ("scenario1", "scenario2", "scenario3"):
        payloads = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}.json"
            cli.main(["simulate", "--scenario", str(DATA / f"{name}.json"),
                      "--report-path", str(path)])
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1], name

    # assess on the estimated models, stdout compared
    capsys.readouterr()
    m1 = str(tmp_path / "models_a" / "vehicle_1.json")
    m2 = str(tmp_path / "models_a" / "vehicle_2.json")
    outputs = []
    for _ in range(2):
        cli.main(["assess", "--model1", m1, "--model2", m2, "--gap", "25", "--front", "car1"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])  # valid JSON

    print("ACCEPTANCE 9 PASS: estimate/assess/simulate outputs byte-identical across runs")
