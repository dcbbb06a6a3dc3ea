"""Overload chaos: storms, floods, and congestion collapse, real time.

Unlike the fake-clock suites, these tests run real threads against
real wall time — overload is a *concurrency* phenomenon (requests
holding slots while others queue) that a single-threaded fake clock
cannot manufacture.  The schedules stay deterministic where it
matters: storm windows, rates, and fault couplings are fixed; the
assertions are about structural invariants (adaptive beats static,
expired work never reaches the embed stage, ladder transitions stay
ordered, fairness holds) rather than exact counts.

Run with ``make overload-chaos`` / ``pytest -m overload``.
"""

import pytest

from repro.obs import Telemetry
from repro.robustness.faults import (OverloadStorm, SlowEmbedUnderLoad,
                                     TenantFlood)
from repro.serving import (BROWNOUT_LADDER, AdmissionConfig,
                           BrownoutConfig, LoadGenerator, ResilientSearchService,
                           RetryPolicy, ServiceConfig, TenantLoad,
                           TenantPolicy)

from ._serving_util import known_ingredients, make_engine, make_world

pytestmark = pytest.mark.overload


@pytest.fixture(scope="module")
def world():
    return make_world()


def fresh_engine(world):
    dataset, featurizer = world
    return make_engine(dataset, featurizer)


def adaptive_config(**overrides):
    """Tight-deadline adaptive admission tuned for sub-second storms."""
    defaults = dict(
        initial_limit=8, min_limit=2, max_limit=16,
        target_p95_s=0.08, evaluate_every=8, latency_window=64,
        max_queue_depth=64,
        brownout=BrownoutConfig(engage_pressure=1.5,
                                release_pressure=0.8,
                                dwell_s=0.05, release_dwell_s=0.1))
    defaults.update(overrides)
    return AdmissionConfig(**defaults)


def make_service(engine, *, admission=AdmissionConfig.static(8),
                 deadline=0.12, slow_per_inflight=0.02):
    """Real-clock service whose embed stage slows with concurrency.

    The :class:`SlowEmbedUnderLoad` coupling is the collapse feedback
    loop: the more requests hold slots, the slower each one gets, so a
    too-high concurrency limit drives *every* request past its
    deadline while a lower one clears them all.
    """
    service_box = []
    fault = SlowEmbedUnderLoad(
        lambda: service_box[0].admission.inflight if service_box else 0,
        delay_per_inflight_s=slow_per_inflight)
    service = ResilientSearchService(
        engine,
        ServiceConfig(deadline=deadline, admission=admission,
                      retry=RetryPolicy(max_attempts=2,
                                        base_delay=0.001, jitter=0.0)),
        telemetry=Telemetry(), faults=fault)
    service_box.append(service)
    return service


def run_storm(service, engine, *, base_rate=30.0, factor=10.0,
              duration_s=1.6, storm_start=0.2, storm_end=1.0,
              extra_loads=(), shapers=None):
    query = known_ingredients(engine)

    def request_fn(tenant, criticality):
        return service.search_by_ingredients(
            query, k=5, tenant=tenant, criticality=criticality)

    loads = [TenantLoad("user", base_rate), *extra_loads]
    if shapers is None:
        shapers = [OverloadStorm(factor, start_s=storm_start,
                                 end_s=storm_end)]
    return LoadGenerator(request_fn, loads, duration_s=duration_s,
                         shapers=shapers).run()


class TestAdaptiveBeatsStatic:
    def test_goodput_under_10x_storm(self, world):
        """The acceptance gate: same storm, same embed slowdown —
        the static cap collapses (every admitted request drags the
        rest past the deadline) while AIMD finds the concurrency knee
        and keeps clearing work."""
        engine = fresh_engine(world)
        static = run_storm(
            make_service(engine, admission=AdmissionConfig.static(8)),
            engine,
            base_rate=30.0)
        adaptive = run_storm(
            make_service(engine, admission=adaptive_config()), engine,
            base_rate=30.0)
        assert adaptive.good > static.good, (
            f"adaptive goodput {adaptive.good} must strictly beat "
            f"static {static.good}\nstatic:\n{static.render()}\n"
            f"adaptive:\n{adaptive.render()}")

    def test_adaptive_limit_actually_moved(self, world):
        engine = fresh_engine(world)
        service = make_service(engine, admission=adaptive_config())
        run_storm(service, engine, base_rate=30.0)
        snapshot = service.admission.snapshot()
        assert snapshot["mode"] == "adaptive"
        assert snapshot["limit"] < 8, (
            "AIMD never reduced the limit under congestion: "
            f"{snapshot}")


class TestNoWastedWork:
    def test_zero_expired_requests_reach_embed(self, world):
        """Every request whose deadline died in the queue must be
        dropped at dequeue — an expired budget entering the embed
        stage is wasted model work, the exact failure the fair
        queue's drop-at-dequeue gate exists to prevent."""
        engine = fresh_engine(world)
        service = make_service(engine, admission=adaptive_config())
        violations = []
        original = service._embed_stage

        def guarded(generation, request_id, embed, budget, trace):
            if budget.expired:
                violations.append(request_id)
            return original(generation, request_id, embed, budget,
                            trace)

        service._embed_stage = guarded
        report = run_storm(service, engine, base_rate=30.0)
        assert report.offered > 50  # the storm actually happened
        assert violations == [], (
            f"{len(violations)} expired requests reached the embed "
            f"stage: {violations[:10]}")
        # And the queue actually expired some: the gate was exercised.
        expired = sum(t.shed_reasons.get("expired", 0)
                      for t in report.tenants.values())
        assert expired > 0


class TestBrownoutLadder:
    def test_transitions_engage_and_release_in_ladder_order(self, world):
        engine = fresh_engine(world)
        service = make_service(engine, admission=adaptive_config())
        # Long tail after the storm so cool observes walk the ladder
        # back down while the trickle load keeps feeding samples.
        run_storm(service, engine, base_rate=30.0, duration_s=2.4,
                  storm_start=0.2, storm_end=1.0)
        records = service.telemetry.events.of_type("brownout")
        assert records, "storm never engaged the brownout ladder"
        directions = {r["direction"] for r in records}
        assert directions == {"engage", "release"}, (
            f"expected both engage and release transitions, got "
            f"{[(r['direction'], r['step']) for r in records]}")
        # Replay the transitions: every engage must activate the next
        # ladder step, every release the last active one — any other
        # sequence means the ladder skipped or jumbled levels.
        ladder = BROWNOUT_LADDER
        level = 0
        for record in records:
            if record["direction"] == "engage":
                assert record["step"] == ladder[level]
                level += 1
            else:
                assert record["step"] == ladder[level - 1]
                level -= 1
            assert record["level"] == level

    def test_level_metric_tracks_transitions(self, world):
        engine = fresh_engine(world)
        service = make_service(engine, admission=adaptive_config())
        run_storm(service, engine, base_rate=30.0)
        records = service.telemetry.events.of_type("brownout")
        assert records
        gauge = service.telemetry.registry.get("brownout_level")
        assert gauge.value == records[-1]["level"]


class TestTenantFairness:
    def test_flooding_tenant_cannot_starve_a_polite_one(self, world):
        """Equal-weight tenants; 'flood' offers 12× the load of
        'polite'.  DRR must keep serving polite at its full (small)
        demand — the flood is charged its own sheds."""
        engine = fresh_engine(world)
        service = make_service(
            engine,
            admission=adaptive_config(tenants=(
                TenantPolicy("user", rate=60.0, burst=20.0),)),
            slow_per_inflight=0.01)
        report = run_storm(
            service, engine, base_rate=25.0, duration_s=1.6,
            extra_loads=(TenantLoad("polite", 10.0),),
            shapers=[TenantFlood("user", 12.0, start_s=0.2)])
        flood = report.tenants["user"]
        polite = report.tenants["polite"]
        assert flood.offered > 6 * polite.offered
        # Polite demand (10 rps) is far under its fair half of the
        # service's capacity, so nearly all of it must clear.
        assert polite.good >= 0.6 * polite.offered, (
            f"polite tenant starved:\n{report.render()}")
        # The flood pays for its own abuse: the token bucket clips it
        # at the front door, charged to *its* shed account.
        assert flood.shed > flood.offered * 0.3, (
            f"flood was not shed:\n{report.render()}")
        assert flood.shed_reasons.get("rate_limit", 0) > 0

    def test_shed_accounting_lands_on_the_flooding_tenant(self, world):
        engine = fresh_engine(world)
        service = make_service(
            engine,
            admission=adaptive_config(tenants=(
                TenantPolicy("user", rate=60.0, burst=20.0),)),
            slow_per_inflight=0.01)
        report = run_storm(
            service, engine, base_rate=25.0, duration_s=1.2,
            extra_loads=(TenantLoad("polite", 10.0),),
            shapers=[TenantFlood("user", 12.0, start_s=0.2)])
        counter = service.telemetry.registry.get("requests_shed_total")
        by_tenant = {}
        for (reason, tenant), child in counter.children():
            by_tenant[tenant] = by_tenant.get(tenant, 0) + child.value
        assert by_tenant.get("user", 0) > by_tenant.get("polite", 0)
        # Outcome records carry the same accounting.
        shed_outcomes = [o for o in service.outcomes
                        if o.status == "shed"]
        assert all(o.shed_reason is not None for o in shed_outcomes)
