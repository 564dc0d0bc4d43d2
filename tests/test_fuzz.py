"""Adversarial fuzzer tests: determinism, minimization, reproducer replay.

The contract under test: a fuzz run is a pure function of (config, seed) —
byte-identical result JSON for any worker count — and every reproducer it
emits replays to exactly the score it recorded.
"""

import json
from pathlib import Path

import pytest

from repro.errors import FaultError, SchedulingError
from repro.scenarios import SweepConfig, cell_key, run_sweep
from repro.scenarios.fuzz import (
    FuzzConfig,
    evaluate_named_scenario,
    fuzz,
    fuzz_to_json,
    replay,
)

#: Small-but-real search config shared across tests (one lru-cached
#: profiling pass per process).
QUICK = dict(budget=6, duration=4.0, n_profile_samples=30)

#: A reproducer written before the fuzzer lost its router knob: energy_edp
#: under the edp objective, searched with ``--router jsq`` (a one-pool
#: evaluation sends every request to its one pool whatever the router).
PARENT_REPRODUCER = (Path(__file__).parent / "fixtures"
                     / "fuzz_reproducer_router_jsq.json")

#: One bad value per run knob; each is a SchedulingError from both configs.
BAD_RUN_KNOBS = (
    ("duration", 0.0),
    ("base_rate", -1.0),
    ("pool_size", 0),
    ("slo_multiplier", 0.0),
    ("n_profile_samples", 0),
    ("block_size", 0),
    ("switch_cost", -1.0),
)


@pytest.fixture(scope="module")
def quick_doc():
    """One shared serial fuzz run (dysta, seed 0) with minimization."""
    return fuzz(FuzzConfig(scheduler="dysta", seed=0, **QUICK))


class TestConfigValidation:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            FuzzConfig(scheduler="crystal_ball")

    def test_budget_must_be_positive(self):
        with pytest.raises(FaultError, match="budget"):
            FuzzConfig(scheduler="sjf", budget=0)

    def test_unknown_objective_rejected(self):
        with pytest.raises(FaultError, match="objective"):
            FuzzConfig(scheduler="sjf", objective="latency")

    def test_unknown_family_rejected(self):
        with pytest.raises(SchedulingError, match="family"):
            FuzzConfig(scheduler="sjf", family="rnn")

    @pytest.mark.parametrize("knob,value", BAD_RUN_KNOBS)
    def test_bad_run_knob_is_one_error_class(self, knob, value):
        with pytest.raises(SchedulingError):
            SweepConfig(scenarios=("steady",), schedulers=("sjf",), seeds=(0,),
                        **{knob: value})
        with pytest.raises(SchedulingError):
            FuzzConfig(scheduler="sjf", **{knob: value})

    def test_eval_dict_drops_search_only_knobs(self):
        cfg = FuzzConfig(scheduler="sjf", budget=9).eval_dict()
        assert "budget" not in cfg and "minimize" not in cfg
        assert cfg["workload_seed"] == FuzzConfig(
            scheduler="dysta", budget=2
        ).eval_dict()["workload_seed"]  # seed-derived, scheduler-free


class TestDeterminism:
    def test_worker_count_invariance(self):
        config = FuzzConfig(scheduler="sjf", seed=2, minimize=False, **QUICK)
        serial = fuzz_to_json(fuzz(config, workers=1))
        fanned = fuzz_to_json(fuzz(config, workers=2))
        assert serial == fanned

    def test_same_seed_same_bytes(self, quick_doc):
        again = fuzz(FuzzConfig(scheduler="dysta", seed=0, **QUICK))
        assert fuzz_to_json(again) == fuzz_to_json(quick_doc)

    def test_different_seed_different_search(self, quick_doc):
        other = fuzz(FuzzConfig(scheduler="dysta", seed=1, **QUICK))
        assert (fuzz_to_json(other) != fuzz_to_json(quick_doc))

    def test_document_is_json_canonical(self, quick_doc):
        text = fuzz_to_json(quick_doc)
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


class TestSearch:
    def test_budget_is_respected(self, quick_doc):
        assert quick_doc["search"]["evaluations"] == QUICK["budget"]

    def test_worst_beats_the_named_baselines(self, quick_doc):
        # Adversarial shapes + faults must at least match the curated
        # scenarios; with this seed they strictly dominate.
        worst = quick_doc["worst"]["score"]
        for entry in quick_doc["baselines"].values():
            assert worst > entry["score"]

    def test_baselines_match_standalone_evaluation(self, quick_doc):
        config = FuzzConfig(scheduler="dysta", seed=0, **QUICK)
        fresh = evaluate_named_scenario("steady", config)
        assert fresh == quick_doc["baselines"]["steady"]

    @pytest.mark.parametrize("scheduler,objective", (
        ("dysta", "violation_rate"), ("energy_edp", "edp"),
    ))
    def test_baselines_equal_cluster_sweep_cells(self, scheduler, objective):
        config = FuzzConfig(scheduler=scheduler, seed=3, objective=objective,
                            **QUICK)
        sweep = run_sweep(SweepConfig(
            scenarios=("steady", "flash_crowd"), schedulers=(scheduler,),
            seeds=(3,), duration=QUICK["duration"],
            n_profile_samples=QUICK["n_profile_samples"], engine="cluster",
            energy=objective == "edp",
        ))
        for name in ("steady", "flash_crowd"):
            baseline = evaluate_named_scenario(name, config)
            cell = sweep.cells[cell_key(name, scheduler, 3)]
            shared = set(baseline) & set(cell)
            assert {"n_requests", "makespan", "violation_rate", "antt", "p99",
                    "num_shed"} <= shared
            assert ("edp" in shared) == (objective == "edp")
            for key in shared:
                assert baseline[key] == cell[key], (name, key)
            assert baseline["score"] == cell[objective]


class TestReproducers:
    def test_minimized_replays_to_recorded_score(self, quick_doc):
        minimized = quick_doc["minimized"]
        outcome = replay(minimized)
        assert outcome["score"] == minimized["score"]
        assert outcome == minimized["metrics"]

    def test_worst_replays_to_recorded_score(self, quick_doc):
        worst = quick_doc["worst"]
        assert replay(worst)["score"] == worst["score"]

    def test_minimized_never_scores_below_worst(self, quick_doc):
        # The greedy shrink only keeps changes that do not lower the score.
        assert (quick_doc["minimized"]["score"]
                >= quick_doc["worst"]["score"])

    def test_reproducer_survives_json_roundtrip(self, quick_doc):
        text = json.dumps(quick_doc["minimized"], sort_keys=True)
        outcome = replay(json.loads(text))
        assert outcome["score"] == quick_doc["minimized"]["score"]

    def test_document_from_before_the_router_knob_replays(self):
        reproducer = json.loads(PARENT_REPRODUCER.read_text())
        assert reproducer["config"]["router"] == "jsq"
        outcome = replay(reproducer)
        assert outcome["score"] == reproducer["score"]
        assert outcome == reproducer["metrics"]

    def test_replay_rejects_malformed_documents(self):
        with pytest.raises(FaultError, match="config"):
            replay({"genome": {"params": {}, "faults": []}})
        with pytest.raises(FaultError, match="genome"):
            replay({"config": {}})


class TestCliReplayErrors:
    """`repro fuzz --replay` must fail with `error: ...`, never a traceback."""

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["fuzz", "--replay", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "broken.json"
        path.write_text("not json")
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_document_without_reproducer_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "empty.json"
        path.write_text('{"hello": 1}')
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert "no reproducer found" in capsys.readouterr().err

    @pytest.mark.parametrize("breakage", (
        "config_without_family", "params_without_rate_scale",
        "pool_size_not_a_number", "genome_is_a_list", "no_score",
        "unknown_objective", "fault_time_not_a_number", "infinite_spike",
        "infinite_duration",
    ))
    def test_malformed_reproducer_is_a_clean_error(self, tmp_path, capsys,
                                                   breakage):
        from repro.cli import main
        doc = json.loads(PARENT_REPRODUCER.read_text())
        if breakage == "config_without_family":
            del doc["config"]["family"]
        elif breakage == "params_without_rate_scale":
            del doc["genome"]["params"]["rate_scale"]
        elif breakage == "pool_size_not_a_number":
            doc["config"]["pool_size"] = "two"
        elif breakage == "genome_is_a_list":
            doc["genome"] = [doc["genome"]]
        elif breakage == "no_score":
            del doc["score"]
        elif breakage == "unknown_objective":
            doc["config"]["objective"] = "latency"
        elif breakage == "fault_time_not_a_number":
            doc["genome"]["faults"][0]["time"] = "soon"
        elif breakage == "infinite_spike":
            doc["genome"]["params"]["spike_scale"] = float("inf")
        else:
            doc["config"]["duration"] = float("inf")
        path = tmp_path / "reproducer.json"
        path.write_text(json.dumps(doc))
        assert main(["fuzz", "--replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestStrictJson:
    """A scenario with no traffic scores null, never a bare -Infinity."""

    @pytest.mark.parametrize("duration, worst_has_traffic", (
        ("0.05", True),    # the flash_crowd baseline has no traffic
        ("0.01", False),   # neither has the worst candidate
    ))
    def test_no_traffic_scores_null_and_replays(self, tmp_path, capsys,
                                                 duration, worst_has_traffic):
        from repro.cli import main

        def strict(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = tmp_path / "fuzz.json"
        assert main(["fuzz", "--scheduler", "sjf", "--budget", "2",
                     "--seed", "0", "--duration", duration, "--samples", "10",
                     "--no-minimize", "--out", str(path)]) == 0
        doc = json.loads(path.read_text(), parse_constant=strict)
        assert doc["baselines"]["flash_crowd"] == {"n_requests": 0, "score": None}
        worst = doc["worst"]
        assert (worst["score"] is not None) == worst_has_traffic
        assert (worst["metrics"]["n_requests"] > 0) == worst_has_traffic
        capsys.readouterr()
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("-> MATCH")
