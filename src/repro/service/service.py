"""The long-running analysis service around the campaign runner.

:class:`AnalysisService` is the X-SYS-style interactive layer: submitted
campaign specs are validated, content-addressed, registered in the
:class:`~repro.store.runstore.RunStore`, and queued onto a single worker
thread that drives :func:`repro.parallel.campaign.run_campaign` — with
the store attached, so every unit persists as it completes and a crashed
or restarted service resumes campaigns instead of re-solving them.

Submission is idempotent by construction: the campaign ID is a content
address of the planned units, so re-submitting a spec whose campaign is
``done`` returns the stored result immediately, and re-submitting a
``failed`` or interrupted one re-queues it (completed units load from
the store and are skipped).

Every campaign runs at the service's own ``workers`` width, on the
serial executor (``workers=1``) or a process pool (DESIGN.md §9); a
client cannot choose it. A worker process that dies fails its campaign
with a clean :class:`~repro.exceptions.AnalyzerError`, and re-submitting
the spec resumes from the store. ``stop()`` drains rather than
abandons: the campaign checkpoint after the in-flight unit persists,
the campaign flips back to ``"pending"``, and the next ``start()``
requeues it to resume from the store.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from pathlib import Path

from repro.exceptions import AnalyzerError, CampaignInterrupted, ServiceBusy
from repro.obs import MetricsRegistry
from repro.parallel.campaign import (
    CampaignSpec,
    plan_campaign,
    run_campaign,
)
from repro.store import RunStore, campaign_id_for, run_id_for


class AnalysisService:
    """Queue + store + worker thread behind the JSON API and the CLI."""

    def __init__(
        self,
        store: RunStore | str | Path,
        workers: int = 1,
        retention: int = 0,
        max_pending: int = 0,
    ) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise AnalyzerError(
                f"service workers must be an integer >= 1, got {workers!r}"
            )
        if not isinstance(retention, int) or retention < 0:
            raise AnalyzerError(
                f"service retention must be an integer >= 0, got {retention!r}"
            )
        if not isinstance(max_pending, int) or max_pending < 0:
            raise AnalyzerError(
                f"service max_pending must be an integer >= 0 "
                f"(0 = unbounded), got {max_pending!r}"
            )
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.workers = workers
        self.retention = retention
        self.max_pending = max_pending
        #: campaign IDs waiting for the worker thread (None wakes it)
        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: campaign ID -> its copies queued or executing right now
        #: (submit dedupe; a re-submitted failed campaign adds a copy)
        self._active: dict[str, int] = {}
        self._lock = threading.Lock()
        #: the service's own metrics registry — deliberately *not* the
        #: process-global one, so embedding a service (tests, notebooks)
        #: never turns instrumentation on for unrelated code in the same
        #: process. The CLI ``serve`` path installs it globally too.
        self.metrics = MetricsRegistry()
        self.started_at = time.time()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "AnalysisService":
        if self._thread is not None:
            if self._thread.is_alive():
                return self
            # A stop() that timed out, whose worker has since exited.
            self._thread = None
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._worker, name="xplain-service-worker", daemon=True
        )
        self._thread.start()
        self._requeue_incomplete()
        return self

    def _requeue_incomplete(self) -> None:
        """Re-enqueue campaigns a previous process left unfinished.

        A service killed mid-campaign leaves ``pending``/``running``
        rows behind; their specs are in the store, so a restart picks
        them up instead of waiting for a client to re-submit.
        Completed units load from the store as usual.
        """
        for row in self.store.list_campaigns():
            if row["status"] in ("done", "failed"):
                continue
            with self._lock:
                queued = row["campaign_id"] in self._active
                if not queued:
                    self._active[row["campaign_id"]] = 1
            if not queued:
                self._queue.put(row["campaign_id"])

    def stop(self, timeout: float = 10.0) -> bool:
        """Drain the worker and wait up to ``timeout`` for it to exit.

        A mid-campaign worker stops at the next unit boundary: the unit
        it was executing has already been persisted to the store, the
        campaign flips back to ``"pending"``, and the next ``start()``
        requeues it — so a stop/start cycle resumes exactly where it
        left off instead of recomputing (or abandoning) work.

        Returns False when the worker is still mid-unit at the deadline
        — the service then stays in the stopping state (a later
        ``start()`` will not spawn a second worker over it); call
        ``stop()`` again to finish the join.
        """
        if self._thread is None:
            return True
        self._stop.set()
        self._queue.put(None)  # wake the worker
        self._thread.join(timeout)
        if self._thread.is_alive():
            return False
        self._thread = None
        return True

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- submission ---------------------------------------------------------
    def submit(self, spec_data: dict) -> dict:
        """Validate, register, and queue one campaign spec.

        Returns ``{"campaign_id", "status", "num_jobs"}``. Raises
        :class:`~repro.exceptions.AnalyzerError` on an invalid spec (the
        HTTP layer maps that to 400) and
        :class:`~repro.exceptions.ServiceBusy` when ``max_pending``
        campaigns are already queued or running (mapped to 429) —
        backpressure applies before validation side effects register
        anything, so a rejected submit leaves no store row behind.
        """
        if self.max_pending:
            with self._lock:
                backlog = len(self._active)
            if backlog >= self.max_pending:
                raise ServiceBusy(
                    f"service backlog is full ({backlog} campaigns queued "
                    f"or running, max_pending={self.max_pending}); "
                    "retry after the backlog drains"
                )
        spec = CampaignSpec.from_dict(spec_data)
        payloads = plan_campaign(spec)
        campaign_id = campaign_id_for(spec.name, spec.seed, payloads)
        self.store.register_campaign(
            campaign_id,
            spec.name,
            spec.seed,
            spec.to_dict(),
            [
                (run_id_for(payload), job.name)
                for payload, job in zip(payloads, spec.jobs)
            ],
        )
        status = self.store.campaign(campaign_id)["status"]
        if status != "done":
            with self._lock:
                queued = campaign_id in self._active
                # A failed campaign is requeued even if its ID is still
                # in _active (the worker that just failed it may not
                # have released it yet): the new copy keeps the ID in
                # the backlog, and at worst the worker pops it after the
                # campaign is done and _execute skips it.
                requeue = not queued or status == "failed"
                if requeue:
                    self._active[campaign_id] = (
                        self._active.get(campaign_id, 0) + 1
                    )
            if requeue:
                # A re-submitted failed campaign is pending again — a
                # poller must not read the queued work as terminal.
                if status == "failed":
                    self.store.set_campaign_status(campaign_id, "pending")
                    status = "pending"
                self._queue.put(campaign_id)
        return {
            "campaign_id": campaign_id,
            "status": status,
            "num_jobs": len(payloads),
        }

    # -- queries ------------------------------------------------------------
    def campaign_status(self, campaign_id: str) -> dict | None:
        """The stored campaign row plus a live progress fraction."""
        row = self.store.campaign(campaign_id)
        if row is None:
            return None
        runs = row.get("runs") or []
        done = sum(1 for r in runs if r["status"] == "done")
        row["units_total"] = len(runs)
        row["units_done"] = done
        row["progress"] = round(done / len(runs), 6) if runs else 0.0
        return row

    def run_report(self, run_id: str) -> dict | None:
        return self.store.completed_report(run_id)

    def run_search(self, run_id: str) -> dict | None:
        """One completed run's ``"search"`` block (policy, budget, trace).

        None when the run is missing/incomplete; reports persisted
        before the search subsystem existed serve an explicit
        ``{"policy": None, ...}`` placeholder rather than a 404, so
        pollers can distinguish "no such run" from "pre-search run".
        """
        report = self.store.completed_report(run_id)
        if report is None:
            return None
        return report.get("search") or {
            "policy": None,
            "budget": None,
            "rounds": None,
            "oracle_calls": 0,
            "evals_to_first_region": None,
            "trace": None,
        }

    def health_info(self) -> dict:
        """The ``GET /healthz`` body: liveness plus deploy identity.

        One round trip tells an operator what is running (version,
        worker count), for how long, and whether the store behind it
        answers queries.
        """
        import repro

        try:
            self.store.list_campaigns()
            store_status = "ok"
        except Exception as exc:  # noqa: BLE001 - health must not raise
            store_status = f"error: {type(exc).__name__}: {exc}"
        with self._lock:
            backlog = len(self._active)
        return {
            "status": "ok" if self.running and store_status == "ok" else "degraded",
            "worker_alive": self.running,
            "version": repro.__version__,
            "workers": self.workers,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "store": store_status,
            "backlog": backlog,
        }

    # -- metrics ------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Everything ``GET /metrics`` exposes, as one snapshot.

        The live gauges are set in the registry's snapshot, which is a
        deep copy, so scrapes are read-only: two back-to-back scrapes
        with no work in between render the same work counters.
        """
        snapshot = self.metrics.snapshot()
        with self._lock:
            backlog = len(self._active)
        for name, value, help_text in (
            (
                "xplain_service_uptime_seconds",
                time.time() - self.started_at,
                "seconds since this service process started",
            ),
            (
                "xplain_service_backlog",
                backlog,
                "campaigns queued or running right now",
            ),
            (
                "xplain_service_worker_alive",
                1.0 if self.running else 0.0,
                "1 when the campaign worker thread is alive",
            ),
        ):
            snapshot[name] = {
                "kind": "gauge",
                "help": help_text,
                "samples": {"": float(value)},
            }
        return snapshot

    # -- the worker ---------------------------------------------------------
    def _worker(self) -> None:
        while not self._stop.is_set():
            campaign_id = self._queue.get()
            if campaign_id is None:
                continue
            error = None
            try:
                self._execute(campaign_id)
            except CampaignInterrupted:
                # stop() drained us mid-campaign: run_campaign already
                # persisted every finished unit and reset the campaign
                # to "pending", so the next start() resumes it.
                pass
            except Exception as exc:  # noqa: BLE001 - service must survive
                error = exc
            with self._lock:
                copies = self._active.pop(campaign_id) - 1
                if copies:
                    # A re-submit queued the campaign again while this
                    # copy ran: its "pending" stands, and it stays in
                    # the backlog until that copy is done too.
                    self._active[campaign_id] = copies
                elif error is not None:
                    self._record_failure(campaign_id, error)
            self._queue.task_done()

    def _record_failure(self, campaign_id: str, error: Exception) -> None:
        """Mark a campaign failed unless ``run_campaign`` already did.

        Runs under ``_lock``, so no re-submit lands between the check
        and the write. Errors ``run_campaign`` did not record itself (a
        missing row, a store error before its ``try``) must not kill the
        worker thread either.
        """
        try:
            row = self.store.campaign(campaign_id)
            if row is None or row["status"] != "failed":
                self.store.set_campaign_status(
                    campaign_id, "failed", error=str(error)
                )
        except Exception:  # noqa: BLE001
            traceback.print_exc()

    def _execute(self, campaign_id: str) -> None:
        row = self.store.campaign(campaign_id)
        if row is None:
            raise AnalyzerError(f"queued campaign {campaign_id!r} not in store")
        if row["status"] == "done":
            return
        run_campaign(
            CampaignSpec.from_dict(row["spec"]),
            workers=self.workers,
            store=self.store,
            should_stop=self._stop.is_set,
            metrics=self.metrics,
        )
        if self.retention > 0:
            try:
                self.store.gc(keep=self.retention)
            except Exception:  # noqa: BLE001
                # Retention is housekeeping: a gc hiccup (e.g. a lock
                # timeout against a concurrent CLI) must not flip the
                # just-completed campaign to failed.
                traceback.print_exc()
