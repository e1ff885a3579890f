"""Per-tenant service metrics, built on the ``repro.obs`` registry.

The admission/WDRR/retry/cache machinery of :mod:`repro.service`
already *makes* every interesting decision; this module makes them
measurable.  A single :class:`ServiceMetrics` lives on the server and
records, per tenant: queue-wait and solve-latency histograms (the two
halves of what a client experiences), submit/reject/retry/result
counters, WDRR deficit and queue-depth gauges, plus service-wide
worker-state gauges and result-cache counters.  Worker-side
:class:`~repro.obs.metrics.SearchMetrics` snapshots riding home in
result stats are folded in with
:func:`~repro.obs.metrics.merge_snapshots`, so one scrape shows both
the service's queueing behavior and the aggregate *shape* of the
search it paid for.

Per-tenant series use the label-in-name convention the exposition
renderer understands (``service.queue_wait_seconds{tenant="acme"}``);
the registry itself stays a flat name->metric dict.  Everything is
snapshot-based and JSON-safe, so ``snapshot()`` is also what the
``metrics`` protocol op renders with
:func:`~repro.obs.export.render_prometheus`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.obs.metrics import MetricsRegistry, merge_snapshots

__all__ = ["ServiceMetrics", "LATENCY_BOUNDS"]

#: Seconds buckets suiting both sub-millisecond cache hits and
#: minutes-long certified solves.
LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                  1.0, 5.0, 10.0, 30.0, 60.0)


def _labeled(name: str, **labels: str) -> str:
    pairs = ",".join(f'{key}="{value}"'
                     for key, value in sorted(labels.items()))
    return f"{name}{{{pairs}}}"


class ServiceMetrics:
    """Recorder + snapshotter for the solve service's metrics."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self._solver: Dict[str, Dict[str, Any]] = {}

    # -- per-tenant recording ------------------------------------------

    def record_submit(self, tenant: str) -> None:
        """Count one accepted-for-queueing submission."""
        self.registry.counter(
            _labeled("service.submits", tenant=tenant)).inc()

    def record_reject(self, tenant: str, code: str) -> None:
        """Count one admission/drain rejection."""
        self.registry.counter(
            _labeled("service.rejects", tenant=tenant,
                     code=code)).inc()

    def record_queue_wait(self, tenant: str, seconds: float) -> None:
        """Observe submit->dispatch latency for one job."""
        self.registry.histogram(
            _labeled("service.queue_wait_seconds", tenant=tenant),
            bounds=LATENCY_BOUNDS).observe(seconds)

    def record_result(self, tenant: str, status: str,
                      wall_seconds: float, cached: bool) -> None:
        """Observe one terminal result and its end-to-end latency."""
        self.registry.counter(
            _labeled("service.results", tenant=tenant,
                     status=str(status).lower())).inc()
        self.registry.histogram(
            _labeled("service.solve_latency_seconds", tenant=tenant),
            bounds=LATENCY_BOUNDS).observe(wall_seconds)
        if cached:
            self.registry.counter(
                _labeled("service.cached_results",
                         tenant=tenant)).inc()

    def record_retry(self, tenant: str,
                     warm: Optional[bool] = None) -> None:
        """Count one crash/hang/poison retry.

        *warm* (when known) additionally classifies the respawn:
        ``True`` means the retry was seeded from a piggybacked search
        checkpoint, ``False`` means it started cold -- the ratio is
        the health signal of the crash-recovery path (a warm rate of
        zero under mid-job kills means checkpoints never arrive or
        never validate).
        """
        self.registry.counter(
            _labeled("service.retries", tenant=tenant)).inc()
        if warm is not None:
            name = ("service.warm_retries" if warm
                    else "service.cold_retries")
            self.registry.counter(_labeled(name, tenant=tenant)).inc()

    def record_checkpoint(self, tenant: str) -> None:
        """Count one checkpoint blob received from a worker."""
        self.registry.counter(
            _labeled("service.checkpoints_received",
                     tenant=tenant)).inc()

    def record_journal_record(self, kind: str) -> None:
        """Count one journal append (kind: submitted | result)."""
        self.registry.counter(
            _labeled("service.journal_records", kind=kind)).inc()

    def record_progress_frame(self, tenant: str) -> None:
        """Count one progress frame streamed to a client."""
        self.registry.counter(
            _labeled("service.progress_frames", tenant=tenant)).inc()

    # -- point-in-time state -------------------------------------------

    def set_queues(self, depths: Mapping[str, int],
                   deficits: Mapping[str, float]) -> None:
        """Refresh per-tenant queue-depth and WDRR-deficit gauges."""
        for tenant, depth in depths.items():
            self.registry.gauge(
                _labeled("service.queue_depth",
                         tenant=tenant)).set(depth)
        for tenant, deficit in deficits.items():
            self.registry.gauge(
                _labeled("service.wdrr_deficit",
                         tenant=tenant)).set(deficit)

    def set_workers(self, busy: int, capacity: int,
                    spawned: int) -> None:
        """Refresh the worker-state gauges and the count of worker
        processes started (assigned: the worker pool keeps the
        authoritative total)."""
        self.registry.gauge("service.workers_busy").set(busy)
        self.registry.gauge("service.workers_max").set(capacity)
        self.registry.counter("service.worker_spawns").value = spawned

    def set_journal(self, recovered: int, terminal: int,
                    write_errors: int) -> None:
        """Refresh the journal-state gauges: jobs re-enqueued by
        replay at startup, terminal responses held for idempotent
        re-serving, and journal write failures (durability holes)."""
        self.registry.gauge(
            "service.journal_recovered_jobs").set(recovered)
        self.registry.gauge(
            "service.journal_terminal_jobs").set(terminal)
        self.registry.gauge(
            "service.journal_write_errors").set(write_errors)

    def set_cache(self, stats: Mapping[str, Any],
                  rejected: int) -> None:
        """Refresh cache counters/gauges from ``ResultCache.stats()``
        and the count of hits withheld by the model audit.

        The cache keeps its own authoritative totals, so its
        monotonically growing hits/misses/evictions are *assigned*
        into counters here (keeping their Prometheus type) rather
        than re-counted.
        """
        for key in ("hits", "misses", "evictions"):
            value = stats.get(key)
            if isinstance(value, int):
                self.registry.counter(
                    f"service.cache.{key}").value = value
        self.registry.counter("service.cache.rejected").value = rejected
        for key in ("size", "capacity"):
            value = stats.get(key)
            if isinstance(value, (int, float)):
                self.registry.gauge(
                    f"service.cache.{key}").set(value)
        rate = stats.get("hit_rate")
        if isinstance(rate, (int, float)):
            self.registry.gauge("service.cache.hit_rate").set(rate)

    # -- solver search-shape roll-up -----------------------------------

    def absorb_solver_metrics(
            self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold one worker's ``SearchMetrics`` snapshot into the
        service-wide solver aggregate (histograms accumulate)."""
        if not snapshot:
            return
        self._solver = merge_snapshots(self._solver, dict(snapshot))

    # -- exposition ----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One merged snapshot: service series plus the solver
        aggregate under a ``solver.`` prefix (render-ready)."""
        merged = self.registry.snapshot()
        for name, snap in self._solver.items():
            merged[f"solver.{name}"] = dict(snap)
        return merged
