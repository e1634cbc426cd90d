"""The benchmark's output checks, on a tiny engine workload."""

import json

import pytest

import engine_bench
from report import END_TO_END, PER_LAYER, result_line
from workloads import EngineWorkload, result_digest


def tiny_config(seed):
    from repro.scenarios.presets import scenario_by_name

    return (
        scenario_by_name("paper")
        .with_population(40)
        .with_rounds(200)
        .with_fidelity("abstract_soa")
        .with_seed(seed)
        .build()
    )


TINY = EngineWorkload("tiny", tiny_config, (0, 1))


def pins_for(workload, perturb=False):
    from repro.sim.engine import run_simulation

    pins = {}
    for seed in workload.seeds:
        payload = run_simulation(workload.build(seed)).to_dict()
        if perturb:
            payload["metrics"]["total_repairs"] += 1
        pins[str(seed)] = result_digest(payload)
    return pins


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(engine_bench.ENGINE_WORKLOADS, "tiny", TINY)

    def use_pins(pins):
        monkeypatch.setattr(engine_bench, "load_pins", lambda: {"tiny": pins})

    return use_pins


def test_one_changed_counter_changes_the_digest():
    from repro.sim.engine import run_simulation

    payload = run_simulation(tiny_config(0)).to_dict()
    digest = result_digest(payload)
    payload["metrics"]["total_repairs"] += 1
    assert result_digest(payload) != digest


def test_pinned_results_pass(tiny, tmp_path):
    tiny(pins_for(TINY))
    outcome = engine_bench.run("tiny", 0, 0.1, False, tmp_path, tmp_path)
    assert outcome.failed == 0 and not outcome.problems
    assert outcome.attempted > 1
    line = json.loads(result_line(outcome, traced=False))
    assert line["correct"] is True
    assert set(line["metrics"]) == set(END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_a_perturbed_result_fails_the_digest_check(tiny, tmp_path):
    tiny(pins_for(TINY, perturb=True))
    outcome = engine_bench.run("tiny", 0, 0.1, False, tmp_path, tmp_path)
    assert outcome.failed >= 1
    assert any("result digest" in problem for problem in outcome.problems)
    line = json.loads(result_line(outcome, traced=False))
    assert line["correct"] is False and line["failed"] == outcome.failed


def test_traced_run_reports_every_layer(tiny, tmp_path):
    tiny(pins_for(TINY))
    outcome = engine_bench.run("tiny", 0, 0.1, True, tmp_path, tmp_path)
    outcome.layers["env.calibration_s"] = 0.1
    line = json.loads(result_line(outcome, traced=True))
    assert line["correct"] is True
    assert set(line["metrics"]) == set(PER_LAYER)
    metrics = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    assert metrics["engine_soa.check_self_s"] <= metrics["engine_soa.check_s"]
    assert metrics["metrics.pool_examined"] >= metrics["metrics.pool_accepted"] > 0
    assert (tmp_path / "spans-tiny.npz").exists()

