"""Tier-1 gateway logic tests: no sockets, no real time.

The pure pieces of the HTTP gateway — request normalization, the
query fingerprint, ``X-Deadline-Ms`` parsing, and the swap-aware
result cache — are deterministic functions and run in the default
suite.  Everything that needs a live socket lives in
``test_gateway_chaos.py`` behind the ``gateway`` marker.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import ServiceConfig
from repro.serving.gateway import (BadRequest, CacheConfig, Gateway,
                                   ResultCache, SHED_STATUS_CODES,
                                   STATUS_CODES,
                                   normalize_search_request,
                                   _canonical, _digest,
                                   parse_deadline_header,
                                   query_fingerprint)
from repro.serving.service import ResilientSearchService, STATUSES

from ._serving_util import FakeClock, known_ingredients, make_engine, \
    make_world


# ----------------------------------------------------------------------
# normalize_search_request
# ----------------------------------------------------------------------
def test_normalize_fills_defaults():
    normalized = normalize_search_request(
        {"ingredients": ["chicken", "garlic"]})
    assert normalized == {"kind": "ingredients",
                          "ingredients": ["chicken", "garlic"],
                          "recipe_id": None, "without": None,
                          "k": 5, "class_name": None}


def test_normalize_recipe_and_without_kinds():
    assert normalize_search_request({"recipe_id": 3})["kind"] == "recipe"
    normalized = normalize_search_request(
        {"recipe_id": 3, "without": "peanuts", "k": 7})
    assert normalized["kind"] == "without"
    assert normalized["without"] == "peanuts"
    assert normalized["k"] == 7


def test_normalize_accepts_integral_float_k():
    assert normalize_search_request(
        {"ingredients": ["a"], "k": 5.0})["k"] == 5


@pytest.mark.parametrize("payload", [
    [],                                      # not an object
    {},                                      # neither query kind
    {"ingredients": []},                     # empty list
    {"ingredients": ["a", 3]},               # non-string entry
    {"ingredients": "chicken"},              # not a list
    {"recipe_id": "3"},                      # stringly-typed id
    {"recipe_id": True},                     # bool is not an int here
    {"recipe_id": 1, "without": 2},          # non-string without
    {"ingredients": ["a"], "k": 0},          # k out of range
    {"ingredients": ["a"], "k": 101},
    {"ingredients": ["a"], "k": 2.5},        # fractional k
    {"ingredients": ["a"], "k": True},
    {"ingredients": ["a"], "class_name": 7},
])
def test_normalize_rejects_malformed(payload):
    with pytest.raises(BadRequest) as err:
        normalize_search_request(payload)
    assert err.value.status == 400


# ----------------------------------------------------------------------
# query fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_ignores_key_order_and_whitespace():
    a = query_fingerprint({"kind": "ingredients", "k": 5,
                           "ingredients": ["roast  chicken"]})
    b = query_fingerprint({"ingredients": [" roast chicken "], "k": 5.0,
                           "kind": "ingredients"})
    assert a == b


def test_fingerprint_distinguishes_different_queries():
    base = {"kind": "ingredients", "ingredients": ["chicken"], "k": 5}
    assert query_fingerprint(base) != query_fingerprint(
        {**base, "k": 6})
    assert query_fingerprint(base) != query_fingerprint(
        {**base, "ingredients": ["beef"]})


_scalar = st.one_of(st.booleans(), st.integers(-5, 5),
                    st.text(" \tab", max_size=6), st.none())
_request = st.fixed_dictionaries({
    "ingredients": st.lists(st.text(" chicken garlic", min_size=1,
                                    max_size=12), min_size=1,
                            max_size=4),
    "k": st.integers(1, 100),
    "class_name": st.one_of(st.none(), st.text(max_size=5)),
    "extra": _scalar,
})


@settings(max_examples=60, deadline=None)
@given(request=_request, data=st.data())
def test_fingerprint_stable_under_permutation(request, data):
    """Reordered keys + renormalized whitespace never change the
    fingerprint; the digest is over semantics, not wire bytes."""
    keys = data.draw(st.permutations(list(request)))
    shuffled = {key: request[key] for key in keys}
    # Perturb whitespace in every string the same way a client with a
    # different serializer might: runs of blanks collapse.
    def pad(value):
        if isinstance(value, str):
            return "  " + value.replace(" ", "   ") + " "
        if isinstance(value, list):
            return [pad(v) for v in value]
        return value
    padded = {key: pad(value) for key, value in shuffled.items()}
    assert query_fingerprint(request) == query_fingerprint(padded)


_search_body = st.one_of(
    st.fixed_dictionaries({
        "ingredients": st.lists(st.text(" \tchicken", min_size=1,
                                        max_size=10), min_size=1,
                                max_size=4)}),
    st.fixed_dictionaries({"recipe_id": st.integers(-3, 3)},
                          optional={"without": st.text(" \tnuts",
                                                       max_size=8)}),
).flatmap(lambda body: st.fixed_dictionaries(
    {key: st.just(value) for key, value in body.items()},
    optional={"k": st.one_of(st.integers(1, 100),
                             st.integers(1, 100).map(float)),
              "class_name": st.one_of(st.none(),
                                      st.text(" \tpie", max_size=6))}))


@settings(max_examples=80, deadline=None)
@given(body=_search_body)
def test_normalized_request_is_already_canonical(body):
    """The gateway fingerprints ``normalize_search_request``'s output
    without canonicalizing it again; that is only the same digest
    :func:`query_fingerprint` gives if the output is a fixed point."""
    normalized = normalize_search_request(body)
    assert _canonical(normalized) == normalized
    assert _digest(normalized) == query_fingerprint(normalized)


# ----------------------------------------------------------------------
# X-Deadline-Ms parsing
# ----------------------------------------------------------------------
def test_deadline_header_absent_is_default():
    assert parse_deadline_header(None, 10000.0) == (None, "default")
    assert parse_deadline_header("   ", 10000.0) == (None, "default")


def test_deadline_header_parses_and_clamps():
    assert parse_deadline_header("250", 10000.0) == (0.25, "header")
    # A client cannot buy more budget than the server maximum.
    assert parse_deadline_header("60000", 10000.0) == (10.0, "header")


@pytest.mark.parametrize("raw", ["soon", "12x", "", "-5", "0", "nan"])
def test_deadline_header_rejects_garbage(raw):
    if not raw.strip():
        assert parse_deadline_header(raw, 1000.0) == (None, "default")
        return
    with pytest.raises(BadRequest) as err:
        parse_deadline_header(raw, 1000.0)
    assert err.value.status == 400
    assert err.value.reason == "bad_deadline"


def test_status_maps_cover_every_outcome():
    assert set(STATUS_CODES) == set(STATUSES) - {"shed"}
    from repro.serving import SHED_REASONS
    assert set(SHED_STATUS_CODES) == set(SHED_REASONS)


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def cache(clock):
    return ResultCache(CacheConfig(capacity=3, ttl_s=10.0,
                                   stale_ttl_s=30.0), clock=clock)


def test_cache_hit_requires_store(cache):
    assert cache.get("t", "fp", 0) is None
    cache.put("t", "fp", 0, {"results": [1]})
    body, state = cache.get("t", "fp", 0)
    assert state == "fresh"
    assert body == {"results": [1]}


def test_cache_is_tenant_scoped(cache):
    cache.put("alice", "fp", 0, {"results": [1]})
    assert cache.get("bob", "fp", 0) is None


def test_cache_ttl_expiry(cache, clock):
    cache.put("t", "fp", 0, {"results": [1]})
    clock.now += 9.9
    assert cache.get("t", "fp", 0)[1] == "fresh"
    clock.now += 0.2  # past ttl_s
    assert cache.get("t", "fp", 0) is None


def test_cache_generation_bump_invalidates(cache):
    cache.put("t", "fp", 0, {"results": [1]})
    # Hot-swap: the serving generation moves on; the entry is not
    # expired by time but may never be served as fresh again.
    assert cache.get("t", "fp", 1) is None
    stale = cache.get("t", "fp", 1, allow_stale=True)
    assert stale is not None and stale[1] == "stale"


def test_cache_stale_only_when_allowed(cache, clock):
    cache.put("t", "fp", 0, {"results": [1]})
    clock.now += 15.0  # expired, within stale window
    assert cache.get("t", "fp", 0) is None
    body, state = cache.get("t", "fp", 0, allow_stale=True)
    assert state == "stale"
    clock.now += 30.0  # past ttl_s + stale_ttl_s
    assert cache.get("t", "fp", 0, allow_stale=True) is None
    assert len(cache) == 0  # too-old entry was dropped


def test_cache_lru_eviction(cache):
    for i in range(3):
        cache.put("t", f"fp{i}", 0, {"i": i})
    cache.get("t", "fp0", 0)  # refresh fp0's recency
    cache.put("t", "fp3", 0, {"i": 3})
    assert cache.get("t", "fp1", 0) is None  # the coldest went
    assert cache.get("t", "fp0", 0) is not None
    assert len(cache) == 3


def test_cache_invalidate_drops_everything(cache):
    cache.put("t", "a", 0, {})
    cache.put("t", "b", 0, {})
    assert cache.invalidate() == 2
    assert len(cache) == 0


def test_cache_returns_copies(cache):
    cache.put("t", "fp", 0, {"results": [1]})
    body, _ = cache.get("t", "fp", 0)
    body["cache"] = "hit"  # gateway annotates its copy
    assert "cache" not in cache.get("t", "fp", 0)[0]


# ----------------------------------------------------------------------
# deadline_source on RequestOutcome
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    dataset, featurizer = make_world(num_pairs=40)
    engine = make_engine(dataset, featurizer)
    return ResilientSearchService(engine, ServiceConfig(deadline=2.0))


def test_deadline_source_default_vs_caller(service):
    ingredients = known_ingredients(service.engine)
    default = service.search_by_ingredients(ingredients)
    assert default.outcome.deadline_source == "default"
    chosen = service.search_by_ingredients(ingredients, deadline=1.5)
    assert chosen.outcome.deadline_source == "caller"
    tagged = service.search_by_ingredients(
        ingredients, deadline=1.5, deadline_source="header")
    assert tagged.outcome.deadline_source == "header"


# ----------------------------------------------------------------------
# drain: a drain that hits a bad worker must still release its waiters
# ----------------------------------------------------------------------
def test_drain_with_an_unstarted_worker_still_completes():
    dataset, featurizer = make_world(num_pairs=40)
    gateway = Gateway(ResilientSearchService(
        make_engine(dataset, featurizer)))
    # Joining a thread that never started raises; a drain that died on
    # it left every later drain() blocked on the drained event.
    gateway._workers.add(threading.Thread(target=lambda: None))
    assert gateway.drain() is True
    assert gateway.wait_drained(0)
    second = []
    waiter = threading.Thread(
        target=lambda: second.append(gateway.drain()), daemon=True)
    waiter.start()
    waiter.join(timeout=2.0)
    assert second == [False]
