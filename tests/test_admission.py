"""Unit tests for the adaptive admission plane (fast, no chaos).

Everything here runs on the fake clock: token-bucket refills, DRR
rotations, AIMD steps, brownout dwells, and in-queue expiry are all
driven by explicit clock advances, so the suite is deterministic and
sleeps for zero real seconds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry
from repro.serving import (BROWNOUT_LADDER, CRITICALITIES,
                           AdaptiveLimiter, AdmissionConfig,
                           AdmissionController, BrownoutConfig,
                           BrownoutController, Deadline,
                           FairQueue, ResilientSearchService,
                           RetryPolicy, ServiceConfig, TenantPolicy,
                           TokenBucket)

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def engine(world):
    dataset, featurizer = world
    return make_engine(dataset, featurizer)


# ----------------------------------------------------------------------
# Deadline edges (satellite: fast-path expiry + remaining_fraction)
# ----------------------------------------------------------------------
class TestDeadlineEdges:
    def test_exactly_zero_remaining_is_expired(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.sleep(1.0)
        assert deadline.remaining() == pytest.approx(0.0)
        assert deadline.expired

    def test_one_tick_before_boundary_is_alive(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.sleep(1.0 - 1e-9)
        assert not deadline.expired
        clock.sleep(2e-9)
        assert deadline.expired

    def test_remaining_fraction_drains_and_clamps(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining_fraction() == pytest.approx(1.0)
        clock.sleep(0.5)
        assert deadline.remaining_fraction() == pytest.approx(0.75)
        clock.sleep(10.0)
        assert deadline.remaining_fraction() == 0.0


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert all(bucket.try_take() for _ in range(3))
        assert not bucket.try_take()
        clock.sleep(0.5)  # 1 token back at 2/s
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.sleep(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


# ----------------------------------------------------------------------
# Weighted deficit round robin
# ----------------------------------------------------------------------
def drain(queue):
    order = []
    while True:
        served = queue.pop()
        if served is None:
            return order
        order.append(served)


class TestFairQueue:
    def test_weighted_shares_over_backlog(self):
        queue = FairQueue(weights={"a": 3.0, "b": 1.0}, max_depth=100)
        for i in range(40):
            queue.push("a", f"a{i}")
            queue.push("b", f"b{i}")
        first = [tenant for tenant, _ in drain(queue)[:20]]
        # Over any early window, a drains ~3x as often as b.
        assert first.count("a") >= 2.5 * first.count("b")

    def test_strict_tier_priority(self):
        queue = FairQueue(max_depth=10)
        queue.push("bg", "b0", tier=1)
        queue.push("user", "u0", tier=0)
        queue.push("user", "u1", tier=0)
        served = drain(queue)
        assert [item for _, item in served] == ["u0", "u1", "b0"]

    def test_depth_bound_per_tenant(self):
        queue = FairQueue(max_depth=2)
        assert queue.push("a", 1)
        assert queue.push("a", 2)
        assert not queue.push("a", 3)
        assert queue.push("b", 1)  # other lanes unaffected

    def test_drop_if_sheds_dead_heads_without_charging_deficit(self):
        dropped = []
        queue = FairQueue(max_depth=10,
                          drop_if=lambda item: ("expired"
                                                if item < 0 else None),
                          on_drop=lambda tenant, item, reason:
                          dropped.append((tenant, item, reason)))
        queue.push("a", -1)
        queue.push("a", -2)
        queue.push("a", 7)
        tenant, item = queue.pop()
        assert (tenant, item) == ("a", 7)
        assert dropped == [("a", -1, "expired"), ("a", -2, "expired")]
        assert len(queue) == 0

    def test_idle_lane_forfeits_deficit(self):
        queue = FairQueue(weights={"a": 1.0}, max_depth=10)
        queue.push("a", 1)
        drain(queue)
        assert queue.deficit("a") == 0.0

    @settings(max_examples=50, deadline=None)
    @given(weight_a=st.floats(min_value=0.5, max_value=8.0),
           weight_b=st.floats(min_value=0.5, max_value=8.0),
           window=st.integers(min_value=20, max_value=120))
    def test_drr_converges_to_weights_within_bounded_deficit(
            self, weight_a, weight_b, window):
        """DRR invariant: over any dequeue window from a saturated
        backlog, each tenant's served share matches its weight share
        within one quantum's worth of deficit per rotation."""
        queue = FairQueue(weights={"a": weight_a, "b": weight_b},
                          max_depth=10_000)
        for i in range(window * 2):
            queue.push("a", i)
            queue.push("b", i)
        served = [tenant for tenant, _ in
                  [queue.pop() for _ in range(window)]]
        share_a = weight_a / (weight_a + weight_b)
        expected = share_a * window
        # Bounded-deficit: lag never exceeds one quantum*weight top-up
        # plus one unit cost per rotation boundary in the window.
        rotations = window / max(weight_a + weight_b, 1.0) + 2
        slack = max(weight_a, 1.0) + rotations
        assert abs(served.count("a") - expected) <= slack

    @settings(max_examples=50, deadline=None)
    @given(flood=st.integers(min_value=50, max_value=400),
           polite=st.integers(min_value=5, max_value=20))
    def test_flooding_tenant_cannot_starve_a_polite_one(
            self, flood, polite):
        queue = FairQueue(max_depth=1000)  # equal weights
        for i in range(flood):
            queue.push("flood", i)
        for i in range(polite):
            queue.push("polite", i)
        window = [tenant for tenant, _ in
                  [queue.pop() for _ in range(2 * polite)]]
        # Equal weights: the polite tenant gets every other slot until
        # its lane drains, regardless of the flood backlog.
        assert window.count("polite") >= polite - 1


# ----------------------------------------------------------------------
# AIMD limiter
# ----------------------------------------------------------------------
def limiter_config(**overrides):
    defaults = dict(initial_limit=8, min_limit=2, max_limit=16,
                    target_p95_s=0.1, evaluate_every=4,
                    decrease_factor=0.5, increase_step=1.0)
    defaults.update(overrides)
    return AdmissionConfig(**defaults)


class TestAdaptiveLimiter:
    def test_decreases_multiplicatively_above_target(self):
        limiter = AdaptiveLimiter(limiter_config())
        for _ in range(4):
            limiter.on_done(0.5)
        assert limiter.limit == 4
        for _ in range(4):
            limiter.on_done(0.5)
        assert limiter.limit == 2  # floor

    def test_increases_additively_at_or_below_target(self):
        limiter = AdaptiveLimiter(limiter_config())
        for _ in range(8):
            limiter.on_done(0.01)
        assert limiter.limit == 10

    def test_ceiling_clamp(self):
        limiter = AdaptiveLimiter(limiter_config(initial_limit=16))
        for _ in range(40):
            limiter.on_done(0.01)
        assert limiter.limit == 16

    def test_no_step_between_evaluations(self):
        limiter = AdaptiveLimiter(limiter_config())
        for _ in range(3):
            assert not limiter.on_done(0.5)
        assert limiter.limit == 8


# ----------------------------------------------------------------------
# Brownout ladder
# ----------------------------------------------------------------------
def stepped(controller, clock, pressure, steps, dt=0.3):
    for _ in range(steps):
        clock.sleep(dt)
        controller.observe(pressure)


class TestBrownoutController:
    def config(self, **overrides):
        defaults = dict(engage_pressure=1.5, release_pressure=0.8,
                        dwell_s=0.25, release_dwell_s=0.25)
        defaults.update(overrides)
        return BrownoutConfig(**defaults)

    def test_engages_in_ladder_order_one_step_per_dwell(self):
        clock = FakeClock()
        controller = BrownoutController(self.config(), clock=clock)
        controller.observe(5.0)  # arms the dwell, no step yet
        assert controller.level == 0
        stepped(controller, clock, 5.0, len(BROWNOUT_LADDER))
        assert controller.level == len(BROWNOUT_LADDER)
        assert [step for _, step in controller.transitions] == \
            list(BROWNOUT_LADDER)
        assert all(direction == "engage"
                   for direction, _ in controller.transitions)

    def test_releases_in_reverse_order(self):
        clock = FakeClock()
        controller = BrownoutController(self.config(), clock=clock)
        stepped(controller, clock, 5.0, len(BROWNOUT_LADDER) + 1)
        controller.observe(0.1)
        stepped(controller, clock, 0.1, len(BROWNOUT_LADDER))
        assert controller.level == 0
        releases = [step for direction, step in controller.transitions
                    if direction == "release"]
        assert releases == list(reversed(BROWNOUT_LADDER))

    def test_hysteresis_band_holds_level(self):
        clock = FakeClock()
        controller = BrownoutController(self.config(), clock=clock)
        stepped(controller, clock, 5.0, 2)
        level = controller.level
        assert level >= 1
        stepped(controller, clock, 1.0, 10)  # between thresholds
        assert controller.level == level

    def test_pressure_blip_does_not_step(self):
        clock = FakeClock()
        controller = BrownoutController(self.config(), clock=clock)
        controller.observe(5.0)
        clock.sleep(0.1)        # shorter than dwell_s
        controller.observe(0.1)  # cooled before dwell elapsed
        clock.sleep(0.3)
        controller.observe(5.0)  # hot again: dwell re-arms from zero
        assert controller.level == 0

    def test_active_reflects_prefix_of_ladder(self):
        clock = FakeClock()
        controller = BrownoutController(self.config(), clock=clock)
        controller.observe(5.0)  # arm the dwell
        stepped(controller, clock, 5.0, 2)
        assert controller.level == 2
        assert controller.active("shrink_k")
        assert controller.active("degraded")
        assert not controller.active("shed_background")
        assert not controller.active("no_such_step")

    def test_transitions_emit_events_and_metrics(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        controller = BrownoutController(
            self.config(), clock=clock,
            registry=telemetry.registry, events=telemetry.events)
        controller.observe(5.0)  # arm the dwell
        stepped(controller, clock, 5.0, 2)
        gauge = telemetry.registry.gauge(
            "brownout_level",
            "active degradation-ladder level (0 = full quality)")
        assert gauge.value == 2
        records = telemetry.events.of_type("brownout")
        assert len(records) == 2
        assert [r["step"] for r in records] == ["shrink_k", "degraded"]


# ----------------------------------------------------------------------
# The composed controller
# ----------------------------------------------------------------------
def make_controller(clock=None, **overrides):
    clock = clock or FakeClock()
    defaults = dict(initial_limit=2, min_limit=1, max_queue_depth=4,
                    poll_interval_s=0.001)
    defaults.update(overrides)
    config = AdmissionConfig(**defaults)
    return AdmissionController(config, clock=clock,
                               sleep=clock.sleep), clock


class TestAdmissionController:
    def test_grants_immediately_under_limit(self):
        controller, clock = make_controller()
        decision = controller.acquire(
            "default", "user", Deadline(1.0, clock=clock))
        assert decision.admitted
        assert controller.inflight == 1
        controller.release(0.01)
        assert controller.inflight == 0

    def test_waiting_request_granted_on_release(self):
        controller, clock = make_controller(initial_limit=1)
        first = controller.acquire("default", "user",
                                   Deadline(5.0, clock=clock))
        assert first.admitted

        released = []

        def sleep_then_release(seconds):
            clock.sleep(seconds)
            if not released:
                released.append(True)
                controller.release(0.01)

        controller._sleep = sleep_then_release
        second = controller.acquire("default", "user",
                                    Deadline(5.0, clock=clock))
        assert second.admitted
        assert second.queue_wait_s > 0.0
        assert controller.inflight == 1

    def test_queue_full_sheds_with_reason(self):
        controller, clock = make_controller(
            initial_limit=1, max_queue_depth=1)
        assert controller.acquire("default", "user",
                                  Deadline(5.0, clock=clock)).admitted
        # One waiter fits; park it as an abandoned-in-queue ticket by
        # expiring it later — here we just fill the lane synchronously.
        controller._lock.acquire()
        ok = controller._queue.push(
            "default", object.__new__(object), tier=0)
        controller._lock.release()
        assert ok
        decision = controller.acquire("default", "user",
                                      Deadline(5.0, clock=clock))
        assert not decision.admitted
        assert decision.reason == "queue_full"

    def test_rate_limited_tenant_shed_at_front_door(self):
        controller, clock = make_controller(
            initial_limit=8,
            tenants=(TenantPolicy("flood", rate=1.0, burst=2.0),))
        deadline = lambda: Deadline(5.0, clock=clock)
        outcomes = [controller.acquire("flood", "user", deadline())
                    for _ in range(4)]
        granted = [d for d in outcomes if d.admitted]
        shed = [d for d in outcomes if not d.admitted]
        assert len(granted) == 2  # burst
        assert all(d.reason == "rate_limit" for d in shed)
        assert controller.inflight == 2

    def test_expires_in_queue_without_taking_a_slot(self):
        controller, clock = make_controller(initial_limit=1)
        assert controller.acquire("default", "user",
                                  Deadline(9.0, clock=clock)).admitted
        decision = controller.acquire("default", "user",
                                      Deadline(0.01, clock=clock))
        assert not decision.admitted
        assert decision.reason == "expired"
        assert controller.inflight == 1
        controller.release(0.01)
        # The abandoned ticket must not be granted a slot later.
        assert controller.inflight == 0

    def test_granted_but_expired_hands_slot_back(self):
        controller, clock = make_controller(initial_limit=1)
        assert controller.acquire("default", "user",
                                  Deadline(9.0, clock=clock)).admitted
        released = []

        def sleep_release_then_expire(seconds):
            if not released:
                released.append(True)
                controller.release(0.01)  # grants the waiter a slot...
                clock.sleep(0.2)          # ...but its budget dies first
            else:
                clock.sleep(seconds)

        controller._sleep = sleep_release_then_expire
        decision = controller.acquire("default", "user",
                                      Deadline(0.1, clock=clock))
        assert not decision.admitted
        assert decision.reason == "expired"
        # The handed-back slot is free for the next request.
        assert controller.acquire("default", "user",
                                  Deadline(9.0, clock=clock)).admitted

    def test_shed_background_tier_under_deep_brownout(self):
        controller, clock = make_controller(
            initial_limit=1, max_queue_depth=16,
            brownout=BrownoutConfig(dwell_s=0.0, release_dwell_s=0.5))
        assert controller.acquire("default", "user",
                                  Deadline(9.0, clock=clock)).admitted
        # Drive pressure via queue_full-free observes: pile queued
        # tickets through expired acquires, stepping the full ladder.
        for _ in range(len(BROWNOUT_LADDER) + 1):
            clock.sleep(0.1)
            controller.acquire("default", "user",
                               Deadline(0.01, clock=clock))
        assert controller.brownout.active("shed_background")
        decision = controller.acquire("probe", "background",
                                      Deadline(9.0, clock=clock))
        assert not decision.admitted
        assert decision.reason == "brownout"
        # User traffic still queues/grants normally.
        controller.release(0.01)
        assert controller.acquire("default", "user",
                                  Deadline(9.0, clock=clock)).admitted

    def test_snapshot_shape(self):
        controller, clock = make_controller()
        controller.acquire("default", "user", Deadline(1.0, clock=clock))
        snapshot = controller.snapshot()
        assert snapshot["mode"] == "adaptive"
        assert snapshot["inflight"] == 1
        assert snapshot["limit"] == 2
        assert snapshot["brownout"] == "full"


# ----------------------------------------------------------------------
# The static preset against its reference model: a plain counter
# ----------------------------------------------------------------------
_STATIC_STEPS = st.lists(st.one_of(
    st.tuples(st.just("acquire"), st.sampled_from(["a", "b", "c"]),
              st.sampled_from([None, *CRITICALITIES])),
    # Release latencies straddle the AIMD target, so an unpinned
    # limit would move in both directions.
    st.tuples(st.just("release"), st.floats(0.0, 5.0))),
    max_size=80)


class TestStaticPreset:
    @settings(max_examples=60, deadline=None)
    @given(limit=st.integers(1, 4), steps=_STATIC_STEPS)
    def test_matches_a_plain_counter(self, limit, steps):
        clock = FakeClock(start=7.0)
        controller = AdmissionController(
            AdmissionConfig.static(limit), clock=clock,
            sleep=clock.sleep)
        inflight = 0
        for step in steps:
            if step[0] == "acquire":
                _, tenant, criticality = step
                decision = controller.acquire(
                    tenant, criticality, Deadline(1.0, clock=clock))
                assert decision.admitted == (inflight < limit)
                if decision.admitted:
                    inflight += 1
                else:
                    assert decision.reason == "inflight_limit"
                    assert decision.detail == (
                        f"load shed: {limit} requests already in "
                        f"flight")
            elif inflight:
                controller.release(step[1])
                inflight -= 1
            assert controller.inflight == inflight
            assert controller.limit == limit
            assert controller.brownout.level == 0
        assert clock.now == 7.0  # no poll sleep, ever
        for _ in range(inflight):
            controller.release(0.0)
        assert controller.inflight == 0
        assert controller.queue_depth() == 0
        assert controller.snapshot()["mode"] == "static"

    def test_rejects_a_zero_limit(self):
        with pytest.raises(ValueError):
            AdmissionConfig.static(0)


# ----------------------------------------------------------------------
# Service integration (adaptive + static presets)
# ----------------------------------------------------------------------
def make_service(engine, clock=None, **overrides):
    clock = clock or FakeClock()
    config = ServiceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
        **overrides)
    return ResilientSearchService(engine, config, clock=clock,
                                  sleep=clock.sleep,
                                  rng=random.Random(0)), clock


class TestServiceAdmission:
    def test_adaptive_mode_serves_and_reports(self, engine):
        service, _ = make_service(
            engine, admission=AdmissionConfig(initial_limit=4))
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3, tenant="mobile")
        assert response.ok
        assert response.outcome.tenant == "mobile"
        assert response.outcome.shed_reason is None
        stats = service.stats()
        assert stats["admission"]["mode"] == "adaptive"
        assert stats["inflight"] == 0

    def test_rate_limit_shed_reaches_outcome_and_counter(self, engine):
        service, _ = make_service(
            engine, admission=AdmissionConfig(
                tenants=(TenantPolicy("flood", rate=0.5, burst=1.0),)))
        query = known_ingredients(engine)
        first = service.search_by_ingredients(query, k=3,
                                              tenant="flood")
        assert first.ok
        second = service.search_by_ingredients(query, k=3,
                                               tenant="flood")
        assert second.outcome.status == "shed"
        assert second.outcome.shed_reason == "rate_limit"
        assert second.outcome.tenant == "flood"
        counter = service.telemetry.registry.counter(
            "requests_shed_total",
            "requests shed at admission by reason and tenant",
            labels=("reason", "tenant"))
        assert counter.labels(reason="rate_limit",
                              tenant="flood").value == 1

    def test_static_path_keeps_legacy_semantics(self, engine):
        service, clock = make_service(
            engine, admission=AdmissionConfig.static(1))
        assert service.admission.acquire(
            "holder", None, Deadline(60.0, clock=clock)).admitted
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3)
        outcome = response.outcome
        assert outcome.status == "shed"
        assert outcome.shed_reason == "inflight_limit"
        assert "load shed" in outcome.error
        assert service.stats()["admission"]["mode"] == "static"

    def test_background_criticality_routes_to_lower_tier(self, engine):
        service, _ = make_service(
            engine, admission=AdmissionConfig(initial_limit=4))
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3, tenant="probe",
            criticality="background")
        assert response.ok

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_unknown_criticality_is_invalid_in_both_modes(self, engine,
                                                          adaptive):
        overrides = ({"admission": AdmissionConfig(initial_limit=4)}
                     if adaptive else {})
        service, _ = make_service(engine, **overrides)
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3, criticality="bogus")
        assert response.outcome.status == "invalid"
        assert "bogus" in response.outcome.error
        assert service.admission.inflight == 0
        assert service.stats()["statuses"] == {"invalid": 1}
