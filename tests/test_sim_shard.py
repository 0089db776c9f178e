"""Tests for the durable sharded experiment grids (repro.sim.shard).

Three layers are pinned here:

* the loss-free JSON round trip of :class:`Scenario` and
  :class:`ExperimentCase` — *exact* for every registry scenario (the
  shard manifest depends on it),
* the queue protocol: atomic-rename claims, lease expiry and
  re-queueing, idempotent duplicate execution, resume after ``init``,
* the acceptance criterion: ``init`` + two concurrent ``work``
  processes + ``collate`` reproduce the serial
  :class:`ExperimentRunner` collation bit-identically across all
  registry scenarios, including after a killed worker's lease is
  recovered.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import ExperimentCase, ExperimentRunner, grid_cases
from repro.sim.scenario import (
    Scenario,
    build_named_scenario,
    default_registry,
    default_scenario,
)
from repro.sim.shard import (
    claim_case,
    collate_shard,
    init_shard,
    load_shard_manifest,
    shard_status,
    work_shard,
)

#: Result fields the engine's determinism contract covers (``runtime_s``
#: is measured ``decide`` wall-clock and varies between runs by design).
DETERMINISTIC_FIELDS = (
    "time_s",
    "gross_power_w",
    "delivered_power_w",
    "ideal_power_w",
    "array_voltage_v",
    "n_groups_series",
)


def assert_collations_bit_identical(a, b):
    assert [c.name for c, _ in a] == [c.name for c, _ in b]
    for (_, ra), (_, rb) in zip(a, b):
        for field in DETERMINISTIC_FIELDS:
            assert np.array_equal(getattr(ra, field), getattr(rb, field)), field
        assert ra.scheme == rb.scheme
        assert ra.switch_times_s == rb.switch_times_s
        assert ra.overhead_events == rb.overhead_events
    assert a.to_json(deterministic_only=True) == b.to_json(
        deterministic_only=True
    )


@pytest.fixture(scope="module")
def scenario():
    return default_scenario(
        duration_s=20.0, seed=5, n_modules=16, nominal_compute_s=1.0e-3
    )


@pytest.fixture(scope="module")
def small_grid(scenario):
    return grid_cases([scenario], ["DNOR", "INOR", "Baseline"])


@pytest.fixture(scope="module")
def small_serial(small_grid):
    return ExperimentRunner(small_grid, executor="serial").run()


class TestScenarioJsonRoundTrip:
    @pytest.mark.parametrize("name", default_registry().names())
    def test_registry_scenarios_exact(self, name):
        scenario = build_named_scenario(name, duration_s=20.0, n_modules=16)
        rebuilt = Scenario.from_json(scenario.to_json())
        # Physics fingerprint hashes every trace column byte and every
        # thermal/electrical model parameter — equality is the
        # strongest single check that nothing was lost.
        assert rebuilt.physics_fingerprint() == scenario.physics_fingerprint()
        for column in (
            "time_s",
            "coolant_inlet_c",
            "coolant_flow_kg_s",
            "air_flow_kg_s",
            "ambient_c",
            "speed_mps",
            "coolant_inlet_sensed_c",
            "coolant_flow_sensed_kg_s",
        ):
            assert np.array_equal(
                getattr(rebuilt.trace, column), getattr(scenario.trace, column)
            ), column
        assert rebuilt.trace.name == scenario.trace.name
        assert rebuilt.module == scenario.module
        assert rebuilt.overhead == scenario.overhead
        assert rebuilt.n_modules == scenario.n_modules
        assert rebuilt.tp_seconds == scenario.tp_seconds
        assert rebuilt.control_period_s == scenario.control_period_s
        assert rebuilt.sensor_seed == scenario.sensor_seed
        assert rebuilt.scanner_noise_std_k == scenario.scanner_noise_std_k
        assert rebuilt.nominal_compute_s == scenario.nominal_compute_s

    def test_radiator_models_survive(self):
        scenario = build_named_scenario("industrial-boiler", duration_s=20.0)
        rebuilt = Scenario.from_json(scenario.to_json())
        assert (
            rebuilt.boundary.geometry.path_length_m
            == scenario.boundary.geometry.path_length_m
        )
        assert (
            rebuilt.boundary.exchanger.ua_model
            == scenario.boundary.exchanger.ua_model
        )
        assert rebuilt.boundary.coolant == scenario.boundary.coolant
        assert rebuilt.boundary.air == scenario.boundary.air
        assert (
            rebuilt.boundary.sink_preheat_fraction
            == scenario.boundary.sink_preheat_fraction
        )

    def test_simulation_bit_identical_after_round_trip(self, scenario):
        rebuilt = Scenario.from_json(scenario.to_json())
        a = scenario.make_simulator().run(
            scenario.make_inor_policy(), scenario.make_charger()
        )
        b = rebuilt.make_simulator().run(
            rebuilt.make_inor_policy(), rebuilt.make_charger()
        )
        for field in DETERMINISTIC_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.overhead_events == b.overhead_events

    def test_unknown_version_refused(self, scenario):
        """The retired v1/v2 layouts and future versions alike fail at
        load, naming the one version this library reads."""
        data = scenario.to_json_dict()
        for version in (1, 2, 999):
            data["format_version"] = version
            with pytest.raises(ConfigurationError, match="reads version 3"):
                Scenario.from_json_dict(data)

    def test_dropped_inor_kernel_key_is_ignored(self, scenario):
        """v3 scenarios and shard manifests written while the INOR
        kernel was still an option carry an ``"inor_kernel"`` key; it
        loads, decides bit-identically, and is no longer written."""
        data = scenario.to_json_dict()
        assert "inor_kernel" not in data
        old = Scenario.from_json_dict({**data, "inor_kernel": "scalar"})
        new = Scenario.from_json_dict(data)
        assert "inor_kernel" not in old.to_json_dict()
        a = old.make_simulator().run(
            old.make_inor_policy(), old.make_charger()
        )
        b = new.make_simulator().run(
            new.make_inor_policy(), new.make_charger()
        )
        for field in DETERMINISTIC_FIELDS:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.switch_times_s == b.switch_times_s
        assert a.overhead_events == b.overhead_events

    def test_strict_json(self, scenario):
        json.loads(scenario.to_json())  # strict parse, no NaN tokens

    def test_experiment_case_round_trip(self, scenario):
        case = ExperimentCase(
            name="grid/x", scenario=scenario, policy="INOR", with_battery=False
        )
        rebuilt = ExperimentCase.from_json_dict(
            json.loads(json.dumps(case.to_json_dict()))
        )
        assert rebuilt.name == case.name
        assert rebuilt.policy == case.policy
        assert rebuilt.with_battery is False
        assert (
            rebuilt.scenario.physics_fingerprint()
            == scenario.physics_fingerprint()
        )


class TestShardQueue:
    def test_init_creates_manifest_queue_and_warm_cache(
        self, small_grid, tmp_path
    ):
        shard = tmp_path / "shard"
        manifest = init_shard(shard, small_grid)
        assert len(manifest) == len(small_grid)
        assert [c.name for c in manifest.cases] == [c.name for c in small_grid]
        status = shard_status(shard)
        assert status.total == len(small_grid)
        assert status.pending == len(small_grid)
        assert not status.complete
        # One unique scenario in the grid: exactly one warm artifact.
        assert len(list((shard / "cache").glob("*.npz"))) == 1
        assert (shard / "manifest.json").is_file()

    def test_manifest_round_trips_from_disk(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        manifest = load_shard_manifest(shard)
        for original, loaded in zip(small_grid, manifest.cases):
            assert (
                loaded.scenario.physics_fingerprint()
                == original.scenario.physics_fingerprint()
            )

    def test_claims_are_exclusive_and_ordered(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        ids = [claim_case(shard, worker_id=f"w{i}") for i in range(4)]
        # Three cases: the fourth claim finds nothing claimable.
        assert ids == ["case-00000", "case-00001", "case-00002", None]

    def test_live_lease_not_stolen(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        claim_case(shard, worker_id="w1", lease_ttl_s=900.0)
        claim_case(shard, worker_id="w1", lease_ttl_s=900.0)
        claim_case(shard, worker_id="w1", lease_ttl_s=900.0)
        assert claim_case(shard, worker_id="w2") is None
        status = shard_status(shard)
        assert status.leased == 3 and status.pending == 0

    def test_expired_lease_requeued(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        first = claim_case(shard, worker_id="dead", lease_ttl_s=0.01)
        time.sleep(0.03)
        assert shard_status(shard).expired == 1
        # Fresh pending tickets are preferred over expired-lease
        # recovery; once they are gone the dead worker's case comes
        # back.
        assert claim_case(shard, worker_id="w2") == "case-00001"
        assert claim_case(shard, worker_id="w2") == "case-00002"
        assert claim_case(shard, worker_id="w2") == first

    def test_requeue_moves_only_the_lease_it_judged(
        self, small_grid, tmp_path, monkeypatch
    ):
        """Worker A re-queues a dead worker's lease and claims the item
        afresh while worker B is still judging that lease: B must leave
        A's live lease where it is."""
        from repro.sim import shard as shard_module

        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        for _ in range(3):
            claim_case(shard, worker_id="dead", lease_ttl_s=0.01)
        time.sleep(0.03)
        judge = shard_module._lease_expired
        raced = []

        def interleaved(lease, now, default_ttl_s):
            expired = judge(lease, now, default_ttl_s)
            if expired and not raced:
                # A runs a whole claim inside B's first judgement (its
                # own judgements, and B's later ones, are plain).
                raced.append(None)
                raced[0] = claim_case(shard, worker_id="a")
            return expired

        monkeypatch.setattr(shard_module, "_lease_expired", interleaved)
        paths = shard_module._ShardPaths(shard)
        assert shard_module._requeue_expired(paths) == 0
        assert raced == ["case-00000"]
        leases = sorted(p.name for p in paths.leases.iterdir())
        assert leases == ["case-00000.json"]
        lease = json.loads((paths.leases / "case-00000.json").read_text())
        assert lease["worker"] == "a"
        # B gets the other two recovered cases, never A's live one.
        assert claim_case(shard, worker_id="b") == "case-00001"
        assert claim_case(shard, worker_id="b") == "case-00002"
        assert claim_case(shard, worker_id="b") is None

    def test_requeued_ticket_carries_no_stale_stamp(self, small_grid, tmp_path):
        """A re-queued item's ticket must not carry the dead claimant's
        ``claimed_at`` / ``lease_ttl_s``: the next claimant's lease,
        renamed in but not yet stamped, would look expired and be
        re-queued under it (one case run twice)."""
        from repro.sim import shard as shard_module

        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        dead = claim_case(shard, worker_id="dead", lease_ttl_s=0.01)
        time.sleep(0.03)
        paths = shard_module._ShardPaths(shard)
        assert shard_module._requeue_expired(paths) == 1
        ticket = paths.ticket(dead)
        assert json.loads(ticket.read_text()) == {"case_id": dead}
        # The next claimant's rename lands; its stamp has not yet.
        os.utime(ticket)
        os.rename(ticket, paths.lease(dead))
        assert shard_module._requeue_expired(paths) == 0
        assert not ticket.exists()
        assert paths.lease(dead).exists()

    def test_failed_item_handed_back_without_stamp(
        self, small_grid, tmp_path, monkeypatch
    ):
        from repro.sim import shard as shard_module

        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)

        def boom(case, cache_dir=None):
            raise RuntimeError("injected case failure")

        monkeypatch.setattr(shard_module, "run_case", boom)
        with pytest.raises(RuntimeError, match="injected"):
            work_shard(shard, worker_id="w1")
        paths = shard_module._ShardPaths(shard)
        assert not any(paths.leases.iterdir())
        ticket = json.loads(paths.ticket("case-00000").read_text())
        assert ticket == {"case_id": "case-00000"}

    def test_init_refuses_different_grid(self, small_grid, scenario, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        other = grid_cases([scenario], ["Baseline"])
        with pytest.raises(SimulationError, match="different"):
            init_shard(shard, other, warm=False)

    def test_resume_adopts_recorded_store(self, small_grid, tmp_path):
        """A second init with the default cache_dir must resume a shard
        whose manifest records an explicit store (same grid != same
        cache location)."""
        shard = tmp_path / "shard"
        store = tmp_path / "store"
        init_shard(shard, small_grid, cache_dir=store, warm=False)
        manifest = init_shard(shard, small_grid, warm=False)
        assert manifest.cache_dir == store

    def test_resume_with_conflicting_store_refused(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        with pytest.raises(SimulationError, match="physics store"):
            init_shard(
                shard, small_grid, cache_dir=tmp_path / "other", warm=False
            )

    def test_init_rejects_duplicate_names(self, scenario, tmp_path):
        case = ExperimentCase(name="x", scenario=scenario, policy="Baseline")
        with pytest.raises(SimulationError, match="unique"):
            init_shard(tmp_path / "shard", [case, case], warm=False)

    def test_collate_incomplete_raises(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        with pytest.raises(SimulationError, match="not complete"):
            collate_shard(shard)

    def test_not_a_shard_dir_raises(self, tmp_path):
        with pytest.raises(SimulationError, match="manifest"):
            work_shard(tmp_path)

    def test_failing_case_hands_lease_back(self, scenario, tmp_path):
        """An in-process failure must not park the case behind its
        lease TTL: the worker is alive to re-queue it before raising."""
        shard = tmp_path / "shard"
        bad = ExperimentCase(name="bad", scenario=scenario, policy="MAGIC")
        good = ExperimentCase(name="ok", scenario=scenario, policy="Baseline")
        init_shard(shard, [bad, good], warm=False)
        with pytest.raises(SimulationError, match="case 'bad' failed|MAGIC"):
            work_shard(shard, worker_id="w1")
        status = shard_status(shard)
        assert status.leased == 0 and status.expired == 0
        assert status.pending == 2  # immediately claimable again

    def test_max_cases_stops_early(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid)
        done = work_shard(shard, max_cases=1)
        assert len(done) == 1
        status = shard_status(shard)
        assert status.done == 1 and status.pending == 2


class TestSingleWorkerEquivalence:
    def test_collation_matches_serial(
        self, small_grid, small_serial, tmp_path
    ):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid)
        done = work_shard(shard, worker_id="only")
        assert len(done) == len(small_grid)
        assert_collations_bit_identical(collate_shard(shard), small_serial)

    def test_duplicate_execution_is_idempotent(
        self, small_grid, small_serial, tmp_path
    ):
        """A lease that expires mid-run means two workers execute the
        same case; determinism makes the second write a no-op."""
        shard = tmp_path / "shard"
        init_shard(shard, small_grid)
        work_shard(shard, worker_id="w1")
        # Re-queue a finished case by hand, as if its first worker's
        # lease had expired just before it published.
        manifest = load_shard_manifest(shard)
        case_id = manifest.case_ids[0]
        (shard / "queue" / "pending" / f"{case_id}.json").write_text(
            json.dumps({"case_id": case_id})
        )
        done = work_shard(shard, worker_id="w2")
        assert done == [case_id]
        assert_collations_bit_identical(collate_shard(shard), small_serial)

    def test_runner_shard_executor(self, small_grid, small_serial):
        collation = ExperimentRunner(
            small_grid, executor="shard", max_workers=2
        ).run()
        assert_collations_bit_identical(collation, small_serial)

    def test_runner_shard_executor_durable_dir(
        self, small_grid, small_serial, tmp_path
    ):
        shard = tmp_path / "shard"
        collation = ExperimentRunner(
            small_grid, executor="shard", max_workers=1, shard_dir=shard
        ).run()
        assert_collations_bit_identical(collation, small_serial)
        # Durable: the artifacts survive the runner.
        assert shard_status(shard).complete
        assert_collations_bit_identical(collate_shard(shard), small_serial)

    def test_shard_dir_requires_shard_executor(self, small_grid, tmp_path):
        with pytest.raises(SimulationError, match="shard_dir"):
            ExperimentRunner(
                small_grid, executor="serial", shard_dir=tmp_path / "s"
            )


def _hang_after_claim(shard_dir: str, sentinel: str) -> None:
    """Worker stand-in that claims a case, signals, then wedges."""
    claim_case(shard_dir, worker_id="doomed", lease_ttl_s=0.5)
    with open(sentinel, "w") as handle:
        handle.write("claimed")
    time.sleep(600.0)


class TestCrashRecovery:
    def test_killed_worker_lease_expires_and_case_is_recovered(
        self, small_grid, small_serial, tmp_path
    ):
        """The acceptance crash story: a worker is SIGKILLed after
        claiming a case; its lease expires, another worker re-claims,
        and the final collation is bit-identical to the uninterrupted
        serial run."""
        shard = tmp_path / "shard"
        init_shard(shard, small_grid)
        sentinel = tmp_path / "claimed.flag"
        worker = multiprocessing.Process(
            target=_hang_after_claim, args=(str(shard), str(sentinel))
        )
        worker.start()
        try:
            deadline = time.time() + 30.0
            while not sentinel.exists():
                assert time.time() < deadline, "worker never claimed"
                time.sleep(0.01)
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.join(timeout=10.0)
        # The dead worker's claim is still on the books...
        status = shard_status(shard)
        assert status.done == 0
        assert status.leased + status.expired == 1
        time.sleep(0.6)  # ...until its 0.5 s TTL passes.
        assert shard_status(shard).expired == 1
        done = work_shard(shard, worker_id="rescuer")
        assert len(done) == len(small_grid)
        assert shard_status(shard).complete
        assert_collations_bit_identical(collate_shard(shard), small_serial)

    def test_resume_via_second_init(self, small_grid, small_serial, tmp_path):
        """Stopping after one case and re-running init + work finishes
        the grid without redoing the completed case."""
        shard = tmp_path / "shard"
        init_shard(shard, small_grid)
        work_shard(shard, max_cases=1)
        manifest = init_shard(shard, small_grid)  # resume is idempotent
        assert len(manifest) == len(small_grid)
        assert shard_status(shard).done == 1
        done = work_shard(shard)
        assert len(done) == len(small_grid) - 1
        assert_collations_bit_identical(collate_shard(shard), small_serial)


class TestAcceptanceAllScenarios:
    """ISSUE 4 acceptance pin: two concurrent workers + collate ==
    serial, across every registry scenario, including an interrupted
    (expired-lease) case."""

    @pytest.fixture(scope="class")
    def grid(self):
        scenarios = [
            build_named_scenario(name, duration_s=20.0, n_modules=16)
            for name in default_registry().names()
        ]
        return grid_cases(scenarios, ["DNOR", "Baseline"])

    @pytest.fixture(scope="class")
    def serial(self, grid):
        return ExperimentRunner(grid, executor="serial").run()

    def test_two_concurrent_workers_match_serial(
        self, grid, serial, tmp_path
    ):
        shard = tmp_path / "shard"
        init_shard(shard, grid)
        # Interrupt before the fleet starts: one case was claimed by a
        # worker that died; its lease must expire and be recovered by
        # the concurrent workers below.
        claim_case(shard, worker_id="dead", lease_ttl_s=0.01)
        time.sleep(0.03)
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(work_shard, str(shard), f"host-{i}")
                for i in range(2)
            ]
            counts = [len(future.result()) for future in futures]
        assert sum(counts) == len(grid)  # every case ran exactly once
        status = shard_status(shard)
        assert status.complete
        assert_collations_bit_identical(collate_shard(shard), serial)


class TestConfiguredLeaseTTL:
    """Regression suite for the lease TTL/status bugfix sweep.

    The bug: an unstamped (or unparseable) lease fell back to the
    module-level ``DEFAULT_LEASE_TTL_S`` instead of the shard's
    configured TTL — a shard initialised with a short TTL waited the
    full 15 minutes to recover a crashed-in-the-stamp-window worker,
    and one with a *longer* TTL saw healthy claims stolen early.  The
    mtime fallback also compared filesystem mtimes (NFS clock domain)
    without any skew tolerance.
    """

    def _unstamped_lease(self, shard, case_id, age_s):
        """Fabricate a claimed-but-never-stamped lease of a given age."""
        from repro.sim.shard import _ShardPaths

        paths = _ShardPaths(shard)
        ticket = paths.ticket(case_id)
        lease = paths.lease(case_id)
        os.rename(ticket, lease)
        lease.write_text("")  # unparseable: the pre-stamp window
        stamp = time.time() - age_s
        os.utime(lease, (stamp, stamp))
        return lease

    def test_just_claimed_old_ticket_is_not_requeued(
        self, small_grid, tmp_path, monkeypatch
    ):
        """A ticket older than TTL + skew margin, claimed a moment ago
        but not yet stamped, is a live lease: another worker's requeue
        running between the rename and the stamp must move nothing."""
        from repro.sim import shard as shard_module

        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=5.0)
        paths = shard_module._ShardPaths(shard)
        for ticket in paths.pending.glob("*.json"):
            stamp = time.time() - 3600.0
            os.utime(ticket, (stamp, stamp))
        stamp_lease = shard_module._write_json_atomic
        requeued = []

        def requeue_before_stamp(path, payload):
            if path.parent == paths.leases and not requeued:
                requeued.append(shard_module._requeue_expired(paths))
            stamp_lease(path, payload)

        monkeypatch.setattr(
            shard_module, "_write_json_atomic", requeue_before_stamp
        )
        assert claim_case(shard, worker_id="w1") == "case-00000"
        assert requeued == [0]
        assert not paths.ticket("case-00000").exists()
        lease = json.loads(paths.lease("case-00000").read_text())
        assert lease["worker"] == "w1"
        assert sorted(p.name for p in paths.leases.iterdir()) == [
            "case-00000.json"
        ]

    def test_manifest_records_configured_ttl(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=5.0)
        manifest = load_shard_manifest(shard)
        assert manifest.lease_ttl_s == 5.0
        # And an un-configured shard resolves to the default.
        other = tmp_path / "other"
        init_shard(other, small_grid, warm=False)
        from repro.sim.shard import DEFAULT_LEASE_TTL_S

        assert load_shard_manifest(other).lease_ttl_s == DEFAULT_LEASE_TTL_S

    def test_unstamped_lease_honors_configured_short_ttl(
        self, small_grid, tmp_path
    ):
        """TTL 5 s + 30 s skew margin: a 40 s old unstamped lease is
        expired, a 20 s old one is not.  Under the old code neither
        would expire before the hard-coded 900 s."""
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=5.0)
        self._unstamped_lease(shard, "case-00000", age_s=40.0)
        self._unstamped_lease(shard, "case-00001", age_s=20.0)
        status = shard_status(shard)
        assert status.expired == 1
        assert status.leased == 1
        assert {info.case_id for info in status.expired_leases} == {
            "case-00000"
        }
        assert status.expired_leases[0].worker == "<unstamped>"

    def test_unstamped_lease_honors_configured_long_ttl(
        self, small_grid, tmp_path
    ):
        """A shard configured *above* the default must not have its
        unstamped leases stolen at the 900 s default."""
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=2000.0)
        self._unstamped_lease(shard, "case-00000", age_s=1000.0)
        status = shard_status(shard)
        assert status.expired == 0
        assert status.leased == 1

    def test_stamped_lease_has_no_skew_margin(self, small_grid, tmp_path):
        """The stamped claim time is authoritative — same clock domain,
        no margin; a 0.01 s TTL must expire in well under 30 s."""
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=300.0)
        claim_case(shard, worker_id="dead", lease_ttl_s=0.01)
        time.sleep(0.03)
        assert shard_status(shard).expired == 1

    def test_claim_stamps_manifest_ttl_by_default(
        self, small_grid, tmp_path
    ):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=123.0)
        case_id = claim_case(shard, worker_id="w1")
        from repro.sim.shard import _ShardPaths

        lease = json.loads(_ShardPaths(shard).lease(case_id).read_text())
        assert lease["lease_ttl_s"] == 123.0
        assert lease["worker"] == "w1"

    def test_resume_ttl_semantics(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=60.0)
        # Same explicit TTL and omitted TTL both resume.
        init_shard(shard, small_grid, warm=False, lease_ttl_s=60.0)
        resumed = init_shard(shard, small_grid, warm=False)
        assert resumed.lease_ttl_s == 60.0
        # An explicitly different TTL is refused, like cache_dir.
        with pytest.raises(SimulationError, match="lease TTL"):
            init_shard(shard, small_grid, warm=False, lease_ttl_s=10.0)

    def test_init_rejects_nonpositive_ttl(self, small_grid, tmp_path):
        with pytest.raises(SimulationError, match="lease_ttl_s"):
            init_shard(
                tmp_path / "shard", small_grid, warm=False, lease_ttl_s=0.0
            )


class TestStatusDetail:
    def test_expired_and_stale_leases_are_named(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False, lease_ttl_s=300.0)
        from repro.sim.shard import _ShardPaths

        paths = _ShardPaths(shard)
        # An expired stamped lease names its worker...
        dead = claim_case(shard, worker_id="dead-host", lease_ttl_s=0.01)
        time.sleep(0.03)
        # ...and a live lease past half its TTL is stale.
        slow = claim_case(shard, worker_id="slow-host", lease_ttl_s=10.0)
        stamp = json.loads(paths.lease(slow).read_text())
        stamp["claimed_at"] = time.time() - 6.0
        paths.lease(slow).write_text(json.dumps(stamp))

        status = shard_status(shard)
        assert status.expired == 1 and status.leased == 1
        expired_info = status.expired_leases[0]
        assert expired_info.case_id == dead
        assert expired_info.worker == "dead-host"
        assert expired_info.ttl_s == 0.01
        stale_info = status.stale_leases[0]
        assert stale_info.case_id == slow
        assert stale_info.worker == "slow-host"
        assert 5.0 < stale_info.age_s < 8.0

        lines = status.detail_lines()
        assert any("dead-host" in line and "expired" in line for line in lines)
        assert any("slow-host" in line and "stale" in line for line in lines)

    def test_fresh_lease_is_not_stale(self, small_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        claim_case(shard, worker_id="fresh")
        status = shard_status(shard)
        assert status.leased == 1
        assert status.stale_leases == ()
        assert status.detail_lines() == []


class TestFusedGroups:
    """Shard format v2: fused-group work items (ISSUE 10 tentpole).

    Cases sharing a physics fingerprint, policy and kernel shape are
    recorded as ``group-*`` tickets at init and drained through one
    grid-stacked pass per claim; singletons and unfusable cases stay
    ordinary case tickets.  The collation contract is unchanged —
    bit-identical to serial no matter which route ran a case.
    """

    @pytest.fixture(scope="class")
    def fused_grid(self):
        scenario = default_scenario(
            duration_s=20.0, seed=5, n_modules=16, nominal_compute_s=1.0e-3
        )
        return grid_cases(
            [scenario], ["DNOR", "Baseline"], scanner_noise_std_k=[0.02, 0.1]
        )

    @pytest.fixture(scope="class")
    def fused_serial(self, fused_grid):
        return ExperimentRunner(fused_grid, executor="serial").run()

    def test_init_records_groups_and_group_tickets(
        self, fused_grid, tmp_path
    ):
        shard = tmp_path / "shard"
        manifest = init_shard(shard, fused_grid, warm=False)
        # Two fused groups (DNOR x noise, Baseline x noise), two cases
        # each; every case belongs to a group, so the queue holds only
        # group tickets.
        assert len(manifest.groups) == 2
        assert sorted(gid for gid, _ in manifest.groups) == [
            "group-00000",
            "group-00001",
        ]
        assert {len(ids) for _, ids in manifest.groups} == {2}
        assert manifest.grouped_case_ids() == set(manifest.case_ids)
        pending = sorted(p.name for p in (shard / "queue" / "pending").iterdir())
        assert pending == ["group-00000.json", "group-00001.json"]

    def test_unfusable_cases_stay_case_tickets(self, tmp_path):
        # EHTR has no stacked epoch kernel; a lone Baseline is a
        # singleton — neither becomes a group ticket.
        scenario = default_scenario(
            duration_s=20.0, seed=5, n_modules=16, nominal_compute_s=1.0e-3
        )
        cases = grid_cases([scenario], ["EHTR", "Baseline"])
        shard = tmp_path / "shard"
        manifest = init_shard(shard, cases, warm=False)
        assert manifest.groups == ()
        pending = sorted(p.name for p in (shard / "queue" / "pending").iterdir())
        assert pending == ["case-00000.json", "case-00001.json"]

    def test_single_worker_matches_serial(
        self, fused_grid, fused_serial, tmp_path
    ):
        shard = tmp_path / "shard"
        init_shard(shard, fused_grid)
        done = work_shard(shard, worker_id="only")
        assert sorted(done) == sorted(load_shard_manifest(shard).case_ids)
        assert_collations_bit_identical(collate_shard(shard), fused_serial)

    def test_two_concurrent_workers_match_serial(
        self, fused_grid, fused_serial, tmp_path
    ):
        shard = tmp_path / "shard"
        init_shard(shard, fused_grid)
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(work_shard, str(shard), f"host-{i}")
                for i in range(2)
            ]
            counts = [len(future.result()) for future in futures]
        assert sum(counts) == len(fused_grid)
        assert shard_status(shard).complete
        assert_collations_bit_identical(collate_shard(shard), fused_serial)

    def test_mid_group_crash_reruns_idempotently(
        self, fused_grid, fused_serial, tmp_path, monkeypatch
    ):
        """A worker that dies after the group npz and one member summary
        leaves the group not done; the group is re-claimed whole and
        determinism makes the republish a no-op."""
        from repro.sim import shard as shard_module

        shard = tmp_path / "shard"
        init_shard(shard, fused_grid)
        group_id, member_ids = load_shard_manifest(shard).groups[0]
        write = shard_module._write_json_atomic
        summaries = []

        def die_after_first_summary(path, payload):
            if path.parent.name == "results":
                if summaries:
                    raise RuntimeError("worker died")
                summaries.append(path.name)
            write(path, payload)

        monkeypatch.setattr(
            shard_module, "_write_json_atomic", die_after_first_summary
        )
        with pytest.raises(RuntimeError, match="worker died"):
            work_shard(shard, worker_id="doomed")
        monkeypatch.undo()
        assert (shard / "results" / f"{group_id}.npz").is_file()
        assert summaries == [f"{member_ids[0]}.json"]
        status = shard_status(shard)
        assert status.done == 1 and not status.complete
        assert status.fused_groups[0].state == "pending"
        done = work_shard(shard, worker_id="rescuer")
        # The partially-done group reports every member, including the
        # already-published one (the rerun overwrote it bit-identically).
        assert member_ids[0] in done
        assert sorted(p.name for p in (shard / "results").glob("*.npz")) == [
            "group-00000.npz",
            "group-00001.npz",
        ]
        assert_collations_bit_identical(collate_shard(shard), fused_serial)

    def test_expired_group_lease_requeued(self, fused_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, fused_grid, warm=False)
        dead = claim_case(shard, worker_id="dead", lease_ttl_s=0.01)
        assert dead == "group-00000"
        time.sleep(0.03)
        status = shard_status(shard)
        assert status.expired == 2  # both member cases count expired
        assert status.pending == 2
        # Fresh pending group first, then the expired one is recovered.
        assert claim_case(shard, worker_id="w2") == "group-00001"
        assert claim_case(shard, worker_id="w2") == dead

    def test_status_reports_groups_distinctly(self, fused_grid, tmp_path):
        shard = tmp_path / "shard"
        init_shard(shard, fused_grid, warm=False)
        status = shard_status(shard)
        assert [info.state for info in status.fused_groups] == [
            "pending",
            "pending",
        ]
        assert {info.n_cases for info in status.fused_groups} == {2}
        claimed = claim_case(shard, worker_id="busy-host")
        status = shard_status(shard)
        by_id = {info.group_id: info for info in status.fused_groups}
        assert by_id[claimed].state == "leased"
        assert by_id[claimed].worker == "busy-host"
        assert status.leased == 2 and status.pending == 2
        lines = status.group_lines()
        assert any(
            claimed in line and "leased" in line and "busy-host" in line
            for line in lines
        )

    def test_watch_prints_group_lines(self, fused_grid, tmp_path):
        import io

        from repro.sim.shard import watch_shard

        shard = tmp_path / "shard"
        init_shard(shard, fused_grid, warm=False)
        stream = io.StringIO()
        watch_shard(shard, interval_s=0.01, max_ticks=1, stream=stream)
        out = stream.getvalue()
        assert "group-00000" in out and "group-00001" in out

    def test_unsupported_version_names_supported_range(
        self, fused_grid, tmp_path
    ):
        """A v1 manifest (the retired ungrouped layout), a v2 one (the
        retired per-case artifacts) and a future version are all
        refused: at load with the supported version named, and at
        resume as a different grid."""
        shard = tmp_path / "shard"
        init_shard(shard, fused_grid, warm=False)
        manifest_path = shard / "manifest.json"
        written = json.loads(manifest_path.read_text())
        for version in (1, 2, 999):
            data = dict(written, version=version)
            manifest_path.write_text(json.dumps(data))
            with pytest.raises(SimulationError, match="reads version 3"):
                load_shard_manifest(shard)
            with pytest.raises(SimulationError, match="different grid"):
                init_shard(shard, fused_grid, warm=False)


class TestShardArtifacts:
    """Shard format v3: one npz artifact per work item, one manifest
    parse per process."""

    @pytest.fixture(scope="class")
    def four_group_grid(self):
        scenarios = [
            default_scenario(
                duration_s=20.0, seed=seed, n_modules=16,
                nominal_compute_s=1.0e-3,
            )
            for seed in (5, 6)
        ]
        grid = grid_cases(
            scenarios, ["DNOR", "Baseline"], scanner_noise_std_k=[0.02, 0.1]
        )
        # Plus one lone (unfusable) case: a one-member case-* item.
        return grid + grid_cases(scenarios[:1], ["EHTR"])

    def test_group_artifact_round_trips_each_member(
        self, small_serial, tmp_path
    ):
        """Members with many, few and no events or switches (INOR,
        DNOR, Baseline) come back bit for bit, in the order written."""
        from repro.sim.export import results_from_npz, results_to_npz

        written = [r for _, r in small_serial]
        written = written + written[::-1]
        counts = {len(r.overhead_events) for r in written}
        assert 0 in counts and len(counts) == 3
        assert any(not r.switch_times_s for r in written)
        loaded = results_from_npz(
            results_to_npz(written, tmp_path / "group.npz")
        )
        assert len(loaded) == len(written)
        for got, want in zip(loaded, written):
            for field in DETERMINISTIC_FIELDS + ("runtime_s",):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype, field
                assert a.tobytes() == b.tobytes(), field
            assert got.scheme == want.scheme
            assert got.switch_times_s == want.switch_times_s
            assert got.overhead_events == want.overhead_events

    def test_one_artifact_per_item_and_one_manifest_parse(
        self, four_group_grid, tmp_path, monkeypatch
    ):
        from types import SimpleNamespace

        from repro.sim import shard as shard_module

        parses = []

        def counting_loads(text, *args, **kwargs):
            parses.append(len(text))
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(
            shard_module,
            "json",
            SimpleNamespace(loads=counting_loads, dumps=json.dumps),
        )
        shard = tmp_path / "shard"
        manifest = init_shard(shard, four_group_grid)
        assert len(manifest.groups) == 4 and len(manifest.items) == 5
        work_shard(shard, worker_id="only")
        collation = collate_shard(shard)
        assert len(parses) <= 1
        artifacts = sorted(p.stem for p in (shard / "results").glob("*.npz"))
        assert artifacts == sorted(item_id for item_id, _ in manifest.items)
        summaries = sorted(p.stem for p in (shard / "results").glob("*.json"))
        assert summaries == sorted(manifest.case_ids)
        assert [c.name for c, _ in collation] == [
            c.name for c in four_group_grid
        ]

    def test_truncated_group_artifact_names_the_file(
        self, four_group_grid, tmp_path
    ):
        shard = tmp_path / "shard"
        init_shard(shard, four_group_grid)
        work_shard(shard, worker_id="only")
        artifact = shard / "results" / "group-00002.npz"
        artifact.write_bytes(artifact.read_bytes()[:200])
        with pytest.raises(SimulationError, match="group-00002.npz"):
            collate_shard(shard)

    def test_reinitialised_directory_never_served_stale_manifest(
        self, small_grid, scenario, tmp_path
    ):
        """Another process removes the shard and initialises a
        different grid at the same path: the cached manifest of the old
        grid must not be served for it."""
        import shutil

        other_grid = grid_cases([scenario], ["Baseline"])
        elsewhere = tmp_path / "elsewhere"
        init_shard(elsewhere, other_grid, warm=False)
        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        assert len(load_shard_manifest(shard)) == len(small_grid)
        shutil.rmtree(shard)
        # Written without going through this process's cache.
        shutil.copytree(elsewhere, shard)
        manifest = load_shard_manifest(shard)
        assert [c.name for c in manifest.cases] == [
            c.name for c in other_grid
        ]
        assert shard_status(shard).total == len(other_grid)


class TestWatchShard:
    def test_watch_returns_when_complete(self, small_grid, tmp_path):
        import io

        from repro.sim.shard import publish_result, watch_shard
        from repro.sim.engine import run_case

        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        manifest = load_shard_manifest(shard)
        for case_id, case in manifest.by_id().items():
            publish_result(
                shard, case_id,
                [run_case(case, cache_dir=str(manifest.cache_dir))],
            )
        stream = io.StringIO()
        status = watch_shard(shard, interval_s=0.01, stream=stream)
        assert status.complete
        assert stream.getvalue().count("done") == 1

    def test_watch_max_ticks_on_incomplete_shard(
        self, small_grid, tmp_path
    ):
        import io

        from repro.sim.shard import watch_shard

        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        stream = io.StringIO()
        status = watch_shard(
            shard, interval_s=0.01, max_ticks=3, stream=stream
        )
        assert not status.complete
        assert stream.getvalue().count("pending") == 3

    def test_watch_rejects_nonpositive_interval(self, small_grid, tmp_path):
        from repro.sim.shard import watch_shard

        shard = tmp_path / "shard"
        init_shard(shard, small_grid, warm=False)
        with pytest.raises(SimulationError, match="interval"):
            watch_shard(shard, interval_s=0.0)
