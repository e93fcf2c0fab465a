"""Chrome-trace export of recorded task events.

The paper contrasts the HPX counter framework with *post-mortem* tools
(HPCToolkit, TAU): those collect full event streams and aggregate after
the run, which is expensive, fragile at high thread counts, and useless
for runtime adaptation.  The event recorder and the gprof-like
aggregator that implement that style inside the simulation live in
:mod:`repro.profiler`; this package holds the exporter that renders a
recorded stream as a Chrome ``about://tracing`` document.
"""

from repro.trace.export import to_chrome_trace

__all__ = ["to_chrome_trace"]
