"""The pluggable provider layer: chain resolution, validation, app counters.

Covers the tentpole's contract surface: built-ins replayed as providers
(bit-identical registries), the workload → entry-point resolution
chain, actionable rejection of malformed or conflicting providers, the
``AppCounter``/``AppCounterSet`` helper layer, and the provider
identity that feeds campaign cache keys.
"""

from __future__ import annotations

import pytest

from repro.counters import (
    ENTRY_POINT_GROUP,
    AppCounter,
    AppCounterSet,
    CounterProvider,
    CounterTypeEntry,
    ProviderError,
    build_registry,
    builtin_providers,
    provider_identity,
)
from repro.counters.base import CounterEnvironment, CounterInfo
from repro.counters.names import CounterNameError
from repro.counters.providers import (
    entry_point_providers,
    validate_provider_name,
    validate_type_name,
)
from repro.counters.registry import CounterRegistry
from repro.counters.types import CounterType


def _simple_provider(name="testprov", type_name="/testobj/ticks"):
    """A minimal hand-rolled provider (no AppCounterSet sugar)."""

    class Provider:
        def __init__(self):
            self.name = name

        def counter_types(self, env):
            def factory(cname, info, env):
                from repro.counters.base import RawCounter

                return RawCounter(cname, info, env, lambda: 1.0)

            return [
                CounterTypeEntry(
                    info=CounterInfo(
                        type_name=type_name,
                        counter_type=CounterType.RAW,
                        help_text="test counter",
                    ),
                    factory=factory,
                    instances=lambda env: [("total", None)],
                )
            ]

    return Provider()


# -- built-ins as providers ---------------------------------------------------


def test_builtin_providers_are_counter_providers():
    for provider in builtin_providers():
        assert isinstance(provider, CounterProvider)
        assert provider.name.startswith("builtin.")


def test_provider_registry_matches_legacy_registry(counter_env):
    """The built-in chain yields the exact counter-type set and family
    order of the pre-provider registry (golden fixtures depend on it)."""
    registry = build_registry(counter_env)
    assert [e.info.type_name for e in registry.counter_types()] == [
        "/papi/OFFCORE_REQUESTS:ALL_DATA_RD",
        "/papi/OFFCORE_REQUESTS:DEMAND_CODE_RD",
        "/papi/OFFCORE_REQUESTS:DEMAND_RFO",
        "/papi/PAPI_TOT_CYC",
        "/papi/PAPI_TOT_INS",
        "/runtime/count/tasks-live",
        "/runtime/uptime",
        "/scheduler/utilization/instantaneous",
        "/taskbench/efficiency",
        "/threads/count/created",
        "/threads/count/cumulative",
        "/threads/count/cumulative-phases",
        "/threads/count/instantaneous/active",
        "/threads/count/instantaneous/pending",
        "/threads/count/instantaneous/suspended",
        "/threads/count/stolen",
        "/threads/count/stolen-cross-socket",
        "/threads/idle-rate",
        "/threads/time/average",
        "/threads/time/average-overhead",
        "/threads/time/cumulative",
        "/threads/time/cumulative-overhead",
        "/threads/wait-time/pending",
    ]
    assert registry.providers() == [
        "builtin.threads",
        "builtin.runtime",
        "builtin.taskbench",
        "builtin.papi",
    ]


def test_builtin_gating_matches_legacy(engine, machine):
    """No runtime → no thread/runtime/taskbench families; no papi → no /papi."""
    env = CounterEnvironment(engine=engine, machine=machine)
    registry = build_registry(env)
    names = [e.info.type_name for e in registry.counter_types()]
    assert names == []


def test_registry_records_builtin_provenance(registry):
    assert registry.provider_of("/threads/idle-rate") == "builtin.threads"
    assert registry.provider_of("/runtime/uptime") == "builtin.runtime"
    assert registry.provider_of("/papi/PAPI_TOT_INS") == "builtin.papi"
    assert set(registry.providers()) >= {
        "builtin.threads",
        "builtin.runtime",
        "builtin.taskbench",
        "builtin.papi",
    }


# -- resolution chain ---------------------------------------------------------


def test_workload_providers_installed_for_fmm(counter_env):
    registry = build_registry(counter_env, workload="fmm")
    assert registry.provider_of("/fmm/p2p-subgrids") == "fmm"
    assert registry.provider_of("/fmm/multipole-evals") == "fmm"


def test_non_fmm_workload_gets_no_fmm_counters(counter_env):
    registry = build_registry(counter_env, workload="fib")
    with pytest.raises(CounterNameError, match="unknown counter type"):
        registry.discover_counters("/fmm{locality#0/total}/multipole-evals")


def test_explicit_providers_installed(counter_env):
    registry = build_registry(counter_env, providers=(_simple_provider(),))
    assert registry.provider_of("/testobj/ticks") == "testprov"
    assert registry.discover_counters("/testobj{locality#0/total}/ticks")


def test_entry_point_providers_resolved(counter_env, monkeypatch):
    """Entry points in the repro.counter_providers group are installed."""
    from importlib import metadata

    demo = AppCounterSet("epdemo", provider="epdemo")
    demo.counter("ticks", help_text="demo ticks")

    class FakeEntryPoint:
        name = "epdemo"
        value = "fake_module:PROVIDER"

        def load(self):
            return demo

    def fake_entry_points(*, group):
        assert group == ENTRY_POINT_GROUP
        return [FakeEntryPoint()]

    monkeypatch.setattr(metadata, "entry_points", fake_entry_points)
    assert len(entry_point_providers()) == 1
    registry = build_registry(counter_env)
    assert registry.provider_of("/epdemo/ticks") == "epdemo"
    assert provider_identity()[-1] == "epdemo=fake_module:PROVIDER"


def test_broken_entry_point_is_attributed(monkeypatch):
    from importlib import metadata

    class BrokenEntryPoint:
        name = "broken"
        value = "nope:NOPE"

        def load(self):
            raise ImportError("no module named nope")

    monkeypatch.setattr(metadata, "entry_points", lambda *, group: [BrokenEntryPoint()])
    with pytest.raises(ProviderError, match="entry point 'broken'.*failed to load"):
        entry_point_providers()


def test_entry_point_factory_coercion(counter_env, monkeypatch):
    """An entry point may name a zero-arg factory instead of an instance."""
    from importlib import metadata

    def factory():
        made = AppCounterSet("facdemo", provider="facdemo")
        made.counter("ticks")
        return made

    class FactoryEntryPoint:
        name = "facdemo"
        value = "fake:factory"

        def load(self):
            return factory

    monkeypatch.setattr(metadata, "entry_points", lambda *, group: [FactoryEntryPoint()])
    registry = build_registry(counter_env)
    assert registry.provider_of("/facdemo/ticks") == "facdemo"


def test_entry_point_garbage_rejected(monkeypatch):
    from importlib import metadata

    class GarbageEntryPoint:
        name = "junk"
        value = "fake:JUNK"

        def load(self):
            return 42

    monkeypatch.setattr(metadata, "entry_points", lambda *, group: [GarbageEntryPoint()])
    with pytest.raises(ProviderError, match="does not provide a CounterProvider"):
        entry_point_providers()


def test_entry_points_can_be_disabled(counter_env, monkeypatch):
    from importlib import metadata

    def exploding(*, group):
        raise AssertionError("entry points must not be scanned")

    monkeypatch.setattr(metadata, "entry_points", exploding)
    registry = build_registry(counter_env, entry_points=False)
    assert registry.provider_of("/threads/idle-rate") == "builtin.threads"


# -- rejection: duplicates and malformed names --------------------------------


def test_duplicate_type_across_providers_names_holder(counter_env):
    first = _simple_provider(name="first")
    second = _simple_provider(name="second")
    with pytest.raises(ProviderError) as err:
        build_registry(counter_env, providers=(first, second))
    message = str(err.value)
    assert "second" in message and "first" in message
    assert "/testobj/ticks" in message
    assert "must be unique" in message


def test_provider_shadowing_builtin_rejected(counter_env):
    impostor = _simple_provider(name="impostor", type_name="/threads/idle-rate")
    with pytest.raises(ProviderError, match="'builtin.threads'"):
        build_registry(counter_env, providers=(impostor,))


def test_malformed_provider_name_rejected(counter_env):
    registry = CounterRegistry(counter_env)
    for bad in ("", "UpperCase", "9starts-with-digit", None, "has space"):
        with pytest.raises(ProviderError, match="invalid provider name"):
            registry.install(_simple_provider(name=bad))


def test_type_name_with_instance_part_rejected():
    with pytest.raises(ProviderError, match="instance part"):
        validate_type_name("p", "/obj{locality#0/total}/ticks")


def test_type_name_with_parameters_rejected():
    with pytest.raises(ProviderError, match="parameters"):
        validate_type_name("p", "/obj/ticks@fast")


def test_type_name_with_wildcard_rejected():
    with pytest.raises(ProviderError, match="wildcard"):
        validate_type_name("p", "/obj/ticks*")


def test_unparseable_type_name_rejected():
    with pytest.raises(ProviderError, match="malformed counter type"):
        validate_type_name("p", "no-leading-slash")


def test_validate_provider_name_accepts_dotted_kebab():
    for good in ("fmm", "builtin.threads", "org.example-plugin", "a1_b2"):
        assert validate_provider_name(good) == good


# -- AppCounter ---------------------------------------------------------------


def test_app_counter_add_increment_read():
    counter = AppCounter()
    assert counter.read() == 0
    assert counter.increment() == 1
    assert counter.add(5) == 6
    assert counter.read() == 6  # read is non-destructive


def test_app_counter_exchange_is_fetch_and_zero():
    counter = AppCounter()
    counter.add(7)
    assert counter.exchange() == 7
    assert counter.read() == 0
    assert counter.exchange(3) == 0
    assert counter.read() == 3


# -- AppCounterSet ------------------------------------------------------------


def test_app_counter_set_full_round_trip(counter_env):
    counters = AppCounterSet("miniapp", provider="miniapp")
    handle = counters.counter("launches", help_text="kernel launches", unit="launches")
    registry = build_registry(counter_env, providers=(counters,))
    handle.add(4)
    pc = registry.create_counter("/miniapp{locality#0/total}/launches")
    assert pc.get_counter_value().value == 4.0
    handle.increment()
    assert pc.get_counter_value().value == 5.0


def test_app_counter_set_reset_on_read_rebaselines(counter_env):
    counters = AppCounterSet("resetapp")
    handle = counters.counter("ops")
    registry = build_registry(counter_env, providers=(counters,))
    pc = registry.create_counter("/resetapp{locality#0/total}/ops")
    handle.add(10)
    assert pc.get_counter_value(reset=True).value == 10.0
    # Framework re-baselined; the app's running total is untouched.
    assert handle.read() == 10
    handle.add(2)
    assert pc.get_counter_value().value == 2.0


def test_app_counter_set_parameter_variants_share_one_type(counter_env):
    counters = AppCounterSet("variants")
    fast = counters.counter("work", parameters="fast")
    slow = counters.counter("work", parameters="slow")
    registry = build_registry(counter_env, providers=(counters,))
    assert len(registry.counter_types("/variants/*")) == 1
    fast.add(3)
    slow.add(8)
    assert registry.create_counter(
        "/variants{locality#0/total}/work@fast"
    ).get_counter_value().value == 3.0
    assert registry.create_counter(
        "/variants{locality#0/total}/work@slow"
    ).get_counter_value().value == 8.0


def test_app_counter_set_indexed_instances_and_wildcards(counter_env):
    counters = AppCounterSet("sharded")
    for i in range(3):
        counters.counter("events", instance=("shard", i))
    registry = build_registry(counter_env, providers=(counters,))
    discovered = registry.discover_counters("/sharded{locality#0/shard#*}/events")
    assert discovered == [f"/sharded{{locality#0/shard#{i}}}/events" for i in range(3)]


def test_app_counter_set_duplicate_declaration_rejected():
    counters = AppCounterSet("dupes")
    counters.counter("thing")
    with pytest.raises(ProviderError, match="twice"):
        counters.counter("thing")


def test_app_counter_set_wildcard_declaration_rejected():
    counters = AppCounterSet("wild")
    with pytest.raises(ProviderError, match="wildcard"):
        counters.counter("thing", instance=("shard", "*"))


def test_app_counter_set_bad_object_name_rejected():
    with pytest.raises(ProviderError):
        AppCounterSet("Bad Object")


def test_app_counter_set_unknown_combination_actionable(counter_env):
    counters = AppCounterSet("partial")
    counters.counter("work", parameters="fast")
    registry = build_registry(counter_env, providers=(counters,))
    with pytest.raises(CounterNameError, match="declared: total@fast"):
        registry.create_counter("/partial{locality#0/total}/work@slow")


# -- provider identity (cache keys) ------------------------------------------


def test_provider_identity_contains_builtins():
    identity = provider_identity()
    assert identity[:4] == (
        "builtin.threads",
        "builtin.runtime",
        "builtin.taskbench",
        "builtin.papi",
    )


def test_provider_identity_includes_workload_providers():
    base = provider_identity()
    with_fmm = provider_identity(workload="fmm")
    assert set(with_fmm) - set(base) == {"fmm"}


def test_provider_identity_does_not_import_plugins(monkeypatch):
    """Cache-key computation must never execute plugin code."""
    from importlib import metadata

    class LandmineEntryPoint:
        name = "landmine"
        value = "boom:BOOM"

        def load(self):  # pragma: no cover - the point is this never runs
            raise AssertionError("provider_identity must not load entry points")

    monkeypatch.setattr(metadata, "entry_points", lambda *, group: [LandmineEntryPoint()])
    assert provider_identity()[-1] == "landmine=boom:BOOM"


def test_cache_key_changes_with_provider_chain(monkeypatch, tiny_config):
    from importlib import metadata

    from repro.campaign.spec import CampaignSpec, Cell, cell_cache_key

    spec = CampaignSpec(benchmarks=("fib",), core_counts=(2,), samples=1)
    cell = Cell(benchmark="fib", runtime="hpx", cores=2, sample=0, seed=1)
    before = cell_cache_key(spec, cell)

    class FakeEntryPoint:
        name = "plug"
        value = "plug:PROVIDER"

    monkeypatch.setattr(metadata, "entry_points", lambda *, group: [FakeEntryPoint()])
    after = cell_cache_key(spec, cell)
    assert before != after
