"""The compile service: a long-lived asyncio daemon over the symbolic core.

``repro serve`` turns the compiler from a CLI into a serving system: an
HTTP/JSON daemon (stdlib ``asyncio`` streams, zero hard dependencies)
exposing the whole pipeline -- compile, explore, execute, verify,
fuzz-replay -- over a content-addressed design store keyed by
``design_fingerprint``.  Concurrent identical compiles coalesce onto one
in-flight derivation, tenants are rate-limited by token buckets, requests
carry configurable timeouts whose cancellation never corrupts the shared
memo/caches, and ``/stats`` surfaces per-endpoint latency histograms plus
every cache counter in the stack.

Layout:

* :mod:`repro.service.daemon`    -- HTTP front door, routing, lifecycle;
* :mod:`repro.service.store`     -- content-addressed design store +
  request coalescing;
* :mod:`repro.service.ratelimit` -- bounded per-tenant token buckets;
* :mod:`repro.service.metrics`   -- counters and latency histograms;
* :mod:`repro.service.client`    -- a minimal asyncio JSON client (tests,
  the benchmark, and scripting against a running daemon).
"""

from repro.util import lazy_exports

__all__ = [
    "CompileService",
    "DesignStore",
    "RateLimiter",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "TokenBucket",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.client": ("ServiceClient",),
    "repro.service.daemon": ("CompileService", "ServiceConfig"),
    "repro.service.metrics": ("ServiceMetrics",),
    "repro.service.ratelimit": ("RateLimiter", "TokenBucket"),
    "repro.service.store": ("DesignStore",),
})
