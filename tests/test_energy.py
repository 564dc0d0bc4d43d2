"""Energy subsystem tests: models, LUT, accounting invariants, schedulers.

The two load-bearing invariants the subsystem promises:

* **joule conservation** — the per-request energy integral and the per-pool
  busy-joule integral are two views of the same quantity: summed over a
  cluster run they must agree;
* **schedule parity** — energy accounting is passive: enabling it changes
  no schedule for any existing policy, bit for bit.
"""

import numpy as np
import pytest

from repro.core.lut import ModelInfoLUT
from repro.cluster import Pool, simulate_cluster
from repro.energy import (
    EnergyAccountant,
    EnergyLUT,
    EyerissEnergy,
    LayerEnergyTable,
    SangerEnergy,
    parse_pattern_key,
    synthetic_table,
)
from repro.errors import ProfilingError, SchedulingError, SparsityError
from repro.models.registry import build_model
from repro.profiling.profiler import DEFAULT_CNN_PATTERNS, benchmark_suite
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate
from repro.sim.metrics import summarize
from repro.sim.multi import simulate_multi
from repro.sim.workload import WorkloadSpec, generate_workload, request_from_trace
from repro.sparsity.patterns import DENSE, SparsityPattern, WeightSparsityConfig

from conftest import make_request


@pytest.fixture(scope="module")
def attnn_world():
    traces = benchmark_suite("attnn", n_samples=40, seed=0)
    lut = ModelInfoLUT(traces)
    return traces, lut, EnergyLUT.from_model_lut(lut)


def toy_energy_lut(toy_lut, *, short_power=4.0, long_power=1.0,
                   short_reload=0.0, long_reload=0.0):
    """Constant-energy tables for the toy zoo with controlled draw."""
    tables = {}
    for key, layers, power in (("short/dense", 2, short_power),
                               ("long/dense", 3, long_power)):
        lat = toy_lut.entry_or_none(key).avg_layer_latencies
        reload_j = short_reload if key.startswith("short") else long_reload
        tables[key] = LayerEnergyTable(
            c0=power * np.asarray(lat),
            c1=np.zeros(layers),
            k=np.ones(layers),
            static_power_w=0.0,
            idle_power_w=0.05,
            switch_joules=reload_j,
        )
    return EnergyLUT(toy_lut, tables)


class TestPatternKeyParsing:
    def test_round_trips_every_default_pattern(self):
        for config in DEFAULT_CNN_PATTERNS + (DENSE,):
            parsed = parse_pattern_key(config.key)
            assert parsed.key == config.key
            assert parsed.effective_rate == pytest.approx(config.effective_rate)

    def test_rejects_garbage(self):
        for bad in ("", "sparse", "nm8", "random", "nmx:y"):
            with pytest.raises(SparsityError):
                parse_pattern_key(bad)


class TestLayerEnergyTable:
    def test_dynamic_energy_falls_with_sparsity(self):
        model = build_model("resnet50")
        table = EyerissEnergy().layer_table(
            model, WeightSparsityConfig(SparsityPattern.RANDOM, rate=0.8)
        )
        dense = table.dynamic(np.zeros(model.num_layers))
        sparse = table.dynamic(np.full(model.num_layers, 0.9))
        assert (sparse <= dense).all()
        assert sparse.sum() < dense.sum()
        assert (sparse > 0).all()  # skip cost + DRAM keep energy positive

    def test_dynamic_at_matches_vector_path(self):
        model = build_model("bert")
        table = SangerEnergy().layer_table(model, DENSE)
        s = np.linspace(0.1, 0.9, model.num_layers)
        vector = table.dynamic(s)
        for j in range(model.num_layers):
            assert table.dynamic_at(j, float(s[j])) == vector[j]

    def test_validation(self):
        with pytest.raises(ProfilingError):
            LayerEnergyTable(c0=np.array([1.0]), c1=np.array([1.0, 2.0]),
                             k=np.array([1.0]), static_power_w=0.1,
                             idle_power_w=0.0)
        with pytest.raises(ProfilingError):
            LayerEnergyTable(c0=np.array([-1.0]), c1=np.array([1.0]),
                             k=np.array([1.0]), static_power_w=0.1,
                             idle_power_w=0.0)

    def test_model_energies_mirrors_latency_api(self):
        model = build_model("gpt2")
        em = SangerEnergy()
        sparsities = np.random.default_rng(0).uniform(0.1, 0.9,
                                                      (5, model.num_layers))
        latencies = np.full((5, model.num_layers), 1e-3)
        joules = em.model_energies(model, DENSE, sparsities, latencies)
        assert joules.shape == (5, model.num_layers)
        table = em.layer_table(model, DENSE)
        expected = table.dynamic(sparsities[2]) + em.static_power_w * 1e-3
        assert joules[2] == pytest.approx(expected)

    def test_wrong_layer_kind_rejected(self):
        cnn, attnn = build_model("resnet50"), build_model("bert")
        with pytest.raises(ProfilingError):
            SangerEnergy().layer_table(cnn, DENSE)
        with pytest.raises(ProfilingError):
            EyerissEnergy().layer_table(attnn, DENSE)

    def test_switch_energy_matches_residency_model(self):
        # Sanger holds weights resident: a key switch re-streams them.
        # Eyeriss streams weights per layer execution (that DRAM traffic is
        # already in c0), so a switch must not charge it a second time.
        sanger = SangerEnergy().layer_table(build_model("bert"), DENSE)
        assert sanger.switch_joules > 0
        eyeriss = EyerissEnergy().layer_table(
            build_model("resnet50"),
            WeightSparsityConfig(SparsityPattern.RANDOM, rate=0.8),
        )
        assert eyeriss.switch_joules == 0.0


class TestEnergyLUT:
    def test_mirrors_latency_lut_structure(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        assert energy_lut.keys == lut.keys
        assert energy_lut.num_synthetic == 0
        for key in energy_lut.keys:
            entry = energy_lut.entry(key)
            # suffix[0] is the whole-model energy, suffix[L] is zero, and
            # the suffix is nonincreasing — exactly the latency LUT shape.
            assert entry.remaining_suffix[0] == pytest.approx(
                entry.avg_total_energy)
            assert entry.remaining_suffix[-1] == 0.0
            assert (np.diff(entry.remaining_suffix) <= 1e-15).all()
            assert entry.avg_power_w > 0
            assert entry.table.switch_joules > 0

    def test_static_remaining_energy_bounds(self, attnn_world):
        _, _, energy_lut = attnn_world
        key = energy_lut.keys[0]
        layers = len(energy_lut.entry(key).avg_layer_energies)
        assert energy_lut.static_remaining_energy(key, layers) == 0.0
        with pytest.raises(SchedulingError):
            energy_lut.static_remaining_energy(key, layers + 1)
        with pytest.raises(SchedulingError):
            energy_lut.entry("nope/dense")

    def test_toy_keys_get_synthetic_proxy(self, toy_lut):
        energy_lut = EnergyLUT.from_model_lut(toy_lut, nominal_power_w=2.0)
        assert energy_lut.num_synthetic == 2
        for key in energy_lut.keys:
            entry = energy_lut.entry(key)
            assert entry.synthetic
            # Proxy: E = P_nom x avg latency, so the average power is P_nom.
            assert entry.avg_power_w == pytest.approx(2.0)
            assert entry.table.switch_joules == 0.0

    def test_synthetic_table_validation(self):
        with pytest.raises(ProfilingError):
            synthetic_table(np.array([1e-3]), nominal_power_w=0.0)


class TestWeightLoadCounting:
    def test_same_key_back_to_back_loads_once(self, toy_lut):
        a = make_request(rid=0, model="short", arrival=0.0)
        b = make_request(rid=1, model="short", arrival=10.0)
        simulate([a, b], make_scheduler("fcfs", toy_lut))
        assert a.num_weight_loads == 1  # cold load
        assert b.num_weight_loads == 0  # weights already resident

    def test_key_change_reloads(self, toy_lut):
        a = make_request(rid=0, model="short", arrival=0.0)
        b = make_request(rid=1, model="long", arrival=10.0,
                         latencies=(0.01, 0.01, 0.01),
                         sparsities=(0.3, 0.3, 0.3))
        simulate([a, b], make_scheduler("fcfs", toy_lut))
        assert a.num_weight_loads == 1
        assert b.num_weight_loads == 1


class TestAccounting:
    def test_one_layer_block_energy_is_bit_exact(self):
        """The scalar one-layer pricing equals the numpy formula bit for bit,
        on every layer of every key of both families — clamped Eyeriss
        densities included."""
        traces = dict(benchmark_suite("attnn", n_samples=8, seed=0))
        traces.update(benchmark_suite("cnn", n_samples=8, seed=0))
        accountant = EnergyAccountant.from_model_lut(ModelInfoLUT(traces))
        checked = clamped = 0
        for key, trace in traces.items():
            table = accountant.energy_lut.entry(key).table
            assert not table.synthetic
            for row in range(trace.num_samples):
                request = request_from_trace(trace, row, rid=row, arrival=0.0,
                                             slo_multiplier=10.0)
                for j, (s, dt) in enumerate(zip(request.layer_sparsities,
                                                request.layer_latencies)):
                    expected = (float(table.dynamic([s], start=j).sum())
                                + table.static_power_w * dt)
                    assert accountant.block_energy(request, j, 1, dt) == expected
                    checked += 1
                    clamped += (1.0 - s) * table.k[j] > 1.0
        assert len(traces) == 15 and checked > 5000
        assert clamped > 0

    def _cluster_run(self, traces, lut, accountant, *, speed=1.0,
                     block_size=1, switch_cost=0.0, scheduler="dysta"):
        spec = WorkloadSpec(arrival_rate=40.0, n_requests=120,
                            slo_multiplier=10.0, seed=3)
        requests = generate_workload(traces, spec)
        pools = [
            Pool("a", make_scheduler(scheduler, lut), 2, speed=speed,
                 block_size=block_size, switch_cost=switch_cost),
            Pool("b", make_scheduler(scheduler, lut), 1,
                 block_size=block_size, switch_cost=switch_cost),
        ]
        result = simulate_cluster(requests, pools, "jsq", energy=accountant)
        return requests, pools, result

    def test_joule_conservation_requests_vs_pools(self, attnn_world):
        """Sum of per-request joules == sum of per-pool busy joules."""
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        for kwargs in ({}, {"speed": 2.0}, {"block_size": 3},
                       {"switch_cost": 1e-4}):
            requests, pools, result = self._cluster_run(
                traces, lut, accountant, **kwargs)
            per_request = sum(accountant.request_energy(r) for r in requests)
            per_pool = sum(p.joules_busy for p in pools)
            assert per_request == pytest.approx(per_pool, rel=1e-9), kwargs
            assert result.metrics["joules_used"] == pytest.approx(per_pool)

    def test_joules_provisioned_is_used_plus_idle(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        _, pools, result = self._cluster_run(traces, lut, accountant)
        m = result.metrics
        assert m["joules_provisioned"] == pytest.approx(
            m["joules_used"] + m["joules_idle"])
        idle_power = accountant.idle_power_w
        expected_idle = sum(
            idle_power * (p.acc_seconds_provisioned - p.busy_time)
            for p in pools
        )
        assert m["joules_idle"] == pytest.approx(expected_idle)
        for name, stats in result.pool_stats.items():
            assert stats.joules_total == pytest.approx(
                stats.joules_busy + stats.joules_idle)

    def test_request_energy_includes_weight_loads(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        key = sorted(traces)[0]
        trace = traces[key]
        req = make_request(
            rid=0, model=trace.model_name, pattern=trace.pattern_key,
            latencies=trace.latencies[0].tolist(),
            sparsities=trace.sparsities[0].tolist(), slo=1e9,
        )
        req.executed_time = req.isolated_latency
        base = accountant.request_energy(req)
        req.num_weight_loads = 2
        assert accountant.request_energy(req) == pytest.approx(
            base + 2 * accountant.switch_energy(key))

    def test_summarize_energy_keys(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        spec = WorkloadSpec(arrival_rate=30.0, n_requests=60,
                            slo_multiplier=10.0, seed=0)
        requests = generate_workload(traces, spec)
        result = simulate(requests, make_scheduler("sjf", lut),
                          energy=accountant)
        m = result.metrics
        joules = [accountant.request_energy(r) for r in result.requests]
        assert m["total_joules"] == pytest.approx(sum(joules))
        assert m["energy_per_request"] == pytest.approx(np.mean(joules))
        assert m["edp"] == pytest.approx(np.mean(
            [j * r.turnaround for j, r in zip(joules, result.requests)]))
        assert result.edp == m["edp"]
        assert result.total_joules == m["total_joules"]
        assert result.energy_per_request == m["energy_per_request"]

    def test_streaming_matches_batch_energy(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        spec = WorkloadSpec(arrival_rate=40.0, n_requests=100,
                            slo_multiplier=10.0, seed=7)
        batch = simulate_cluster(
            generate_workload(traces, spec),
            [Pool("p", make_scheduler("sjf", lut), 2)], "round-robin",
            energy=accountant)
        stream = simulate_cluster(
            generate_workload(traces, spec),
            [Pool("p", make_scheduler("sjf", lut), 2)], "round-robin",
            energy=accountant, retain_requests=False)
        for key in ("energy_per_request", "total_joules", "edp",
                    "joules_used", "joules_idle", "joules_provisioned"):
            assert batch.metrics[key] == pytest.approx(stream.metrics[key])

    def test_no_accountant_means_no_energy_keys(self, attnn_world):
        traces, lut, _ = attnn_world
        spec = WorkloadSpec(arrival_rate=30.0, n_requests=40,
                            slo_multiplier=10.0, seed=0)
        result = simulate(generate_workload(traces, spec),
                          make_scheduler("sjf", lut))
        assert "edp" not in result.metrics
        with pytest.raises(KeyError):
            result.edp


class TestScheduleParity:
    """Energy accounting is passive: no existing policy's schedule moves."""

    @pytest.mark.parametrize("name", ("dysta", "sjf", "fcfs", "prema"))
    def test_single_engine_schedule_identical(self, attnn_world, name):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        spec = WorkloadSpec(arrival_rate=35.0, n_requests=120,
                            slo_multiplier=10.0, seed=1)
        plain = simulate(generate_workload(traces, spec),
                         make_scheduler(name, lut))
        with_energy = simulate(generate_workload(traces, spec),
                               make_scheduler(name, lut),
                               energy=accountant)
        assert [r.rid for r in plain.requests] == \
               [r.rid for r in with_energy.requests]
        assert [r.finish_time for r in plain.requests] == \
               [r.finish_time for r in with_energy.requests]
        assert plain.makespan == with_energy.makespan
        assert plain.num_preemptions == with_energy.num_preemptions

    @pytest.mark.parametrize("name", ("dysta", "sjf"))
    def test_cluster_schedule_identical(self, attnn_world, name):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        spec = WorkloadSpec(arrival_rate=40.0, n_requests=100,
                            slo_multiplier=10.0, seed=2)

        def run(energy):
            return simulate_cluster(
                generate_workload(traces, spec),
                [Pool("p", make_scheduler(name, lut), 2)], "jsq",
                energy=energy)

        plain, with_energy = run(None), run(accountant)
        assert [r.rid for r in plain.requests] == \
               [r.rid for r in with_energy.requests]
        assert plain.makespan == with_energy.makespan

    def test_multi_engine_energy_metrics(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        spec = WorkloadSpec(arrival_rate=40.0, n_requests=60,
                            slo_multiplier=10.0, seed=4)
        plain = simulate_multi(generate_workload(traces, spec),
                               make_scheduler("sjf", lut),
                               num_accelerators=2)
        with_energy = simulate_multi(generate_workload(traces, spec),
                                     make_scheduler("sjf", lut),
                                     num_accelerators=2, energy=accountant)
        assert plain.makespan == with_energy.makespan
        assert with_energy.total_joules > 0


class TestEnergySchedulers:
    def test_prefers_resident_key_on_near_tie(self, toy_lut):
        # Equal powers, nonzero reload energy: the hot key wins a near-tie.
        energy_lut = toy_energy_lut(toy_lut, short_power=1.0, long_power=1.0,
                                    short_reload=0.05, long_reload=0.05)
        sched = make_scheduler("energy_edp", toy_lut, energy_lut=energy_lut)
        sched.reset()
        short = make_request(rid=0, model="short", arrival=0.0)
        long = make_request(rid=1, model="long", arrival=0.0,
                            latencies=(0.01, 0.01, 0.01),
                            sparsities=(0.3, 0.3, 0.3))
        first = sched.select([short, long], now=0.0)
        assert first is short  # cold start: plain shortest-first
        # With short's weights now resident, a fresh long job must also pay
        # its reload on top of ~30 ms remaining: short stays preferred even
        # against a long job that is most of the way done.
        long.next_layer = 2
        assert sched.select([short, long], now=0.0) is short

    def test_reduces_weight_loads_vs_sjf(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        spec = WorkloadSpec(arrival_rate=35.0, n_requests=150,
                            slo_multiplier=10.0, seed=5)

        def loads(name):
            requests = generate_workload(traces, spec)
            simulate(requests, make_scheduler(name, lut))
            return sum(r.num_weight_loads for r in requests)

        assert loads("energy_edp") < loads("sjf")

    def test_powercap_defers_hot_work(self, toy_lut):
        energy_lut = toy_energy_lut(toy_lut, short_power=4.0, long_power=1.0)
        sched = make_scheduler("energy_powercap", toy_lut,
                               energy_lut=energy_lut,
                               power_cap_w=2.0, window_s=1.0)
        sched.reset()
        short = make_request(rid=0, model="short", arrival=0.0)
        long = make_request(rid=1, model="long", arrival=0.0,
                            latencies=(0.01, 0.01, 0.01),
                            sparsities=(0.3, 0.3, 0.3))
        # Cool window: EDP rule picks the short (and hotter) job.
        assert sched.rolling_power(0.0) == 0.0
        assert sched.select([short, long], now=0.0) is short
        # Heat the window past the cap: selection flips to the coolest key.
        short.next_layer = 1
        sched.on_layer_complete(short, 0.001)
        sched._events.append((0.001, 5.0))  # synthetic hot burst
        sched._window_joules += 5.0
        assert sched.rolling_power(0.001) > 2.0
        assert sched.select([short, long], now=0.001) is long
        # Once the window slides past the burst, the EDP rule returns.
        assert sched.rolling_power(2.0) == 0.0
        assert sched.select([short, long], now=2.0) is short

    def test_powercap_meters_every_layer_of_a_block(self, toy_lut):
        # The engines call the monitor hook once per block: all newly
        # finished layers must enter the window, not just the last one.
        energy_lut = toy_energy_lut(toy_lut, long_power=1.0)
        sched = make_scheduler("energy_powercap", toy_lut,
                               energy_lut=energy_lut,
                               power_cap_w=100.0, window_s=10.0)
        sched.reset()
        long = make_request(rid=0, model="long", arrival=0.0,
                            latencies=(0.01, 0.01, 0.01),
                            sparsities=(0.3, 0.3, 0.3))
        long.next_layer = 3  # one block of three layers just finished
        sched.on_layer_complete(long, 0.03)
        table = energy_lut.entry("long/dense").table
        expected = sum(
            table.dynamic_at(j, long.layer_sparsities[j]) for j in range(3))
        assert sched._window_joules == pytest.approx(expected)
        sched.on_layer_complete(long, 0.03)  # no new layers: nothing added
        assert sched._window_joules == pytest.approx(expected)

    def test_powercap_run_completes_and_bounds_draw(self, attnn_world):
        traces, lut, energy_lut = attnn_world
        accountant = EnergyAccountant(energy_lut)
        spec = WorkloadSpec(arrival_rate=30.0, n_requests=80,
                            slo_multiplier=10.0, seed=6)
        capped = simulate(
            generate_workload(traces, spec),
            make_scheduler("energy_powercap", lut, energy_lut=energy_lut,
                           power_cap_w=1.0, window_s=0.2),
            energy=accountant)
        assert len(capped.requests) == 80
        assert capped.total_joules > 0


class TestSweepEnergyColumns:
    def test_cells_carry_energy_and_are_worker_invariant(self, tmp_path):
        from repro.scenarios import ENERGY_KEYS, SweepConfig, run_sweep

        config = SweepConfig(
            scenarios=("steady",), schedulers=("sjf", "energy_edp"),
            seeds=(0,), family="attnn", duration=3.0,
            n_profile_samples=20, energy=True,
        )
        serial = run_sweep(config, out_path=tmp_path / "serial.json")
        parallel = run_sweep(config, out_path=tmp_path / "parallel.json",
                             workers=2)
        assert (tmp_path / "serial.json").read_bytes() == \
               (tmp_path / "parallel.json").read_bytes()
        for cell in serial.cells.values():
            for key in ENERGY_KEYS:
                assert cell[key] > 0

    def test_pre_energy_store_still_resumes(self, tmp_path):
        """Stores written before the energy column existed resume as
        energy-free sweeps instead of being rejected as mismatches."""
        import json

        from repro.scenarios import SweepConfig, run_sweep

        config = SweepConfig(
            scenarios=("steady",), schedulers=("sjf",), seeds=(0,),
            family="attnn", duration=3.0, n_profile_samples=20,
        )
        path = tmp_path / "legacy.json"
        run_sweep(config, out_path=path)
        store = json.loads(path.read_text())
        del store["workload"]["energy"]  # what a PR-4-era store looks like
        path.write_text(json.dumps(store, indent=2, sort_keys=True) + "\n")
        resumed = run_sweep(config, out_path=path)
        assert resumed.n_run == 0 and resumed.n_skipped == 1
