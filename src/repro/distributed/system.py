"""The distributed system: localities sharing one simulated clock.

Each locality owns a machine, an HPX runtime, a parcelport, an AGAS
cache and a full performance-counter registry.  ``async_remote`` ships
an action to another locality and returns a future the caller can
``yield ctx.wait(...)`` on, exactly like a local one — the paper's
"full semantic equivalence of local and remote execution".

Remote counter access (`query_counter`) evaluates any counter on any
locality in-band (a query task on the target, results returned by
parcel) — the capability Section IV highlights.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.counters.base import CounterEnvironment
from repro.counters.providers import build_registry
from repro.counters.registry import CounterRegistry
from repro.distributed.agas import AgasCache, AgasService
from repro.distributed.parcel import NetworkParams, Parcel, Parcelport
from repro.papi.hw import PapiSubstrate
from repro.platform.presets import resolve_platform
from repro.platform.spec import PlatformSpec
from repro.runtime.config import HpxParams
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

QUERY_COST_NS = 800  # in-band evaluation cost on the target locality


class Locality:
    """One node of the simulated cluster."""

    def __init__(
        self,
        locality_id: int,
        engine: Engine,
        *,
        cores: int,
        platform: PlatformSpec,
        hpx_params: HpxParams,
        network: NetworkParams,
        agas: AgasService,
    ) -> None:
        self.id = locality_id
        self.machine = Machine(platform)
        self.runtime = HpxRuntime(engine, self.machine, num_workers=cores, params=hpx_params)
        self.runtime.locality_id = locality_id
        self.parcelport = Parcelport(locality_id, engine, network)
        self.agas_cache = AgasCache(agas)
        env = CounterEnvironment(
            engine=engine,
            runtime=self.runtime,
            machine=self.machine,
            papi=PapiSubstrate(self.machine),
        )
        self.registry: CounterRegistry = build_registry(env)


class DistributedSystem:
    """A fixed set of localities wired through parcelports."""

    def __init__(
        self,
        engine: Engine,
        *,
        localities: int,
        cores_per_locality: int,
        platform: PlatformSpec | str | None = None,
        hpx_params: HpxParams | None = None,
        network: NetworkParams | None = None,
    ) -> None:
        if localities < 1:
            raise ValueError("need at least one locality")
        self.engine = engine
        self.network = network or NetworkParams()
        self.agas = AgasService()
        spec = resolve_platform(platform)
        params = hpx_params or HpxParams()
        self.localities = [
            Locality(
                i,
                engine,
                cores=cores_per_locality,
                platform=spec,
                hpx_params=params,
                network=self.network,
                agas=self.agas,
            )
            for i in range(localities)
        ]
        ports = {loc.id: loc.parcelport for loc in self.localities}
        for loc in self.localities:
            loc.parcelport.connect(ports, lambda parcel, loc=loc: self._deliver(loc, parcel))
        from repro.counters.parcel_counters import DistributedCounterProvider

        for loc in self.localities:
            loc.registry.install(DistributedCounterProvider(loc, self))

    # -- remote invocation ---------------------------------------------------

    def async_remote(
        self,
        source: int,
        dest: int,
        action: Callable[..., Any],
        *args: Any,
        payload_bytes: int = 0,
        result_bytes: int = 256,
    ):
        """Run ``action(ctx, *args)`` on *dest*; returns a future that
        becomes ready at *source* once the result parcel arrives."""
        from repro.model.future import SimFuture

        if source == dest:
            return self.localities[dest].runtime.submit(action, *args)
        result = SimFuture()

        def remote_entry(parcel: Parcel) -> None:
            # Runs at delivery on the destination: schedule the shipped
            # action as an ordinary task there.
            inner = self.localities[dest].runtime.submit(action, *args)

            def send_back(fut) -> None:
                def deliver_result(value=None, exc=None):
                    if exc is not None:
                        result.set_exception(exc)
                    else:
                        result.set_value(value)

                try:
                    value = fut.value()
                except Exception as error:  # ship the exception home
                    self.localities[dest].parcelport.send(
                        source,
                        _result_parcel_action,
                        (deliver_result, None, error),
                        payload_bytes=result_bytes,
                    )
                    return
                self.localities[dest].parcelport.send(
                    source,
                    _result_parcel_action,
                    (deliver_result, value, None),
                    payload_bytes=result_bytes,
                )

            inner.on_ready(send_back)

        self.localities[source].parcelport.send(dest, remote_entry, (), payload_bytes=payload_bytes)
        # The outbound parcel's action is invoked at delivery with the
        # parcel itself; mark it so _deliver can distinguish.
        return result

    def _deliver(self, locality: Locality, parcel: Parcel) -> None:
        if parcel.action is _result_parcel_action:
            deliver_result, value, exc = parcel.args
            deliver_result(value=value, exc=exc)
            return
        # Remote-entry closures receive the parcel; plain task actions
        # are submitted to the runtime directly.
        if getattr(parcel.action, "__name__", "") == "remote_entry":
            parcel.action(parcel)
        else:
            locality.runtime.submit(parcel.action, *parcel.args)

    # -- symbolic names --------------------------------------------------------

    def register_name(self, source: int, name: str, payload: Any = None):
        """Bind *name* -> (source locality, payload) in AGAS.

        Local on locality 0; a parcel round trip from anywhere else.
        Returns a future of the created entry.
        """
        if source == 0:
            from repro.model.future import SimFuture

            fut = SimFuture()
            entry = self.agas.bind(name, source, payload)
            self.engine.schedule(0, lambda: fut.set_value(entry))
            return fut

        def bind_action(ctx: Any, name=name, source=source, payload=payload):
            yield ctx.compute(QUERY_COST_NS)
            return self.agas.bind(name, source, payload)

        return self.async_remote(source, 0, bind_action)

    def resolve_name(self, source: int, name: str):
        """Resolve *name*; served from the local AGAS cache when hot."""
        from repro.model.future import SimFuture

        cache = self.localities[source].agas_cache
        cached = cache.lookup(name)
        if cached is not None:
            fut = SimFuture()
            self.engine.schedule(0, lambda: fut.set_value(cached))
            return fut
        if source == 0:
            fut = SimFuture()
            entry = self.agas.resolve(name)
            cache.insert(entry)
            self.engine.schedule(0, lambda: fut.set_value(entry))
            return fut

        def resolve_action(ctx: Any, name=name):
            yield ctx.compute(QUERY_COST_NS)
            return self.agas.resolve(name)

        fut = self.async_remote(source, 0, resolve_action)
        fut.on_ready(lambda f: cache.insert(f.value()) if f.state.value == "ready" else None)
        return fut

    # -- remote counters ----------------------------------------------------------

    def query_counter(self, source: int, dest: int, counter_spec: str):
        """Evaluate *counter_spec* on locality *dest* from *source*.

        The evaluation runs as an in-band task on the target (costing
        scheduler time there, like any counter query); the value comes
        back by parcel.  Returns a future of the float value.
        """

        def query_action(ctx: Any, spec=counter_spec, dest=dest):
            yield ctx.compute(QUERY_COST_NS)
            counter = self.localities[dest].registry.create_counter(spec)
            return counter.get_counter_value().value

        return self.async_remote(source, dest, query_action)

    # -- driving --------------------------------------------------------------------

    def run(self) -> None:
        self.engine.run()


def _result_parcel_action(*args: Any) -> None:  # pragma: no cover - marker
    """Marker action for result parcels (dispatched in _deliver)."""
    raise AssertionError("result parcels are handled by the parcelport")
