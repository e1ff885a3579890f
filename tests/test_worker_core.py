"""The worker core shared by the portfolio and the service
(repro.runtime.worker): the one payload audit, the strict SAT model
check behind it, and the attempt handle's liveness rule.

The audit is table-driven and runs once with a portfolio-style int
key and once with a service-style str key: both supervisors trust
exactly the same payloads.
"""

from __future__ import annotations

import time

import pytest

from repro.runtime.faults import CRASH, HANG
from repro.runtime.worker import (MAX_CHECKPOINT_BLOB, WorkerHandle,
                                  WorkerSpec, audit, model_satisfies)
from repro.solvers.portfolio import PortfolioConfig
from repro.solvers.result import Status

#: (x1 or x2) and (not x1 or x2): satisfied by x2 = True.
CLAUSES = [(1, 2), (-1, 2)]
MODEL = {1: False, 2: True}


def _good(key):
    """One well-formed payload of each tag, from *key*."""
    return {
        "progress": ("progress", key, 0, 0.5, {"conflicts": 3},
                     {"arena_fill": 0.25}),
        "checkpoint": ("checkpoint", key, 1, b"blob"),
        "result": ("result", key, 2, "SATISFIABLE", MODEL, {}),
    }


def _bad(key, other):
    """Payloads the audit must reject, by reason."""
    return {
        "not a tuple": ["result", key, 0, "UNKNOWN", None, {}],
        "empty tuple": (),
        "unknown tag": ("verdict", key, 0, "UNKNOWN", None, {}),
        "non-str tag": ([1], key, 0),
        "progress arity": ("progress", key, 0, 0.5, {}),
        "checkpoint arity": ("checkpoint", key, 0, b"x", b"y"),
        "result arity": ("result", key, 0, "UNKNOWN", None),
        "garbage fault": ("garbage", key, "NOT_A_STATUS"),
        "key mismatch": ("result", other, 0, "UNKNOWN", None, {}),
        "key type mismatch": ("result", str(key) if isinstance(key, int)
                              else 0, 0, "UNKNOWN", None, {}),
        "bool attempt": ("result", key, True, "UNKNOWN", None, {}),
        "negative attempt": ("result", key, -1, "UNKNOWN", None, {}),
        "str attempt": ("checkpoint", key, "0", b"x"),
        "negative elapsed": ("progress", key, 0, -0.1, {}, {}),
        "nan elapsed": ("progress", key, 0, float("nan"), {}, {}),
        "bool elapsed": ("progress", key, 0, True, {}, {}),
        "progress stats not a dict": ("progress", key, 0, 0.1, [], {}),
        "extras not a dict": ("progress", key, 0, 0.1, {}, None),
        "result stats not a dict": ("result", key, 0, "UNKNOWN", None,
                                    None),
        "oversize blob": ("checkpoint", key, 0,
                          b"x" * (MAX_CHECKPOINT_BLOB + 1)),
        "str blob": ("checkpoint", key, 0, "blob"),
        "unknown status": ("result", key, 0, "MAYBE", None, {}),
        "non-str status": ("result", key, 0, ["SATISFIABLE"], None, {}),
        "non-bool model value": ("result", key, 0, "SATISFIABLE",
                                 {1: 0, 2: 1}, {}),
        "non-int model var": ("result", key, 0, "SATISFIABLE",
                              {"2": True}, {}),
        "model not a dict": ("result", key, 0, "SATISFIABLE",
                             [2], {}),
        "SAT without model": ("result", key, 0, "SATISFIABLE", None, {}),
        "falsifying model": ("result", key, 0, "SATISFIABLE",
                             {1: True, 2: False}, {}),
        "empty model": ("result", key, 0, "SATISFIABLE", {}, {}),
    }


KEYS = [pytest.param(3, 4, id="int-key"),
        pytest.param("job-a", "job-b", id="str-key")]


class TestAudit:
    @pytest.mark.parametrize("key,other", KEYS)
    def test_rejects_every_untrusted_payload(self, key, other):
        for reason, payload in _bad(key, other).items():
            assert audit(payload, key, CLAUSES) is None, reason

    @pytest.mark.parametrize("key,other", KEYS)
    def test_accepts_well_formed_payloads(self, key, other):
        good = _good(key)
        progress = audit(good["progress"], key, CLAUSES)
        assert progress.tag == "progress" and progress.attempt == 0
        assert progress.elapsed == 0.5
        assert progress.stats.conflicts == 3
        assert progress.extras == {"arena_fill": 0.25}
        checkpoint = audit(good["checkpoint"], key, CLAUSES)
        assert checkpoint.blob == b"blob" and checkpoint.attempt == 1
        result = audit(good["result"], key, CLAUSES)
        assert result.status is Status.SATISFIABLE
        assert result.model == MODEL and result.attempt == 2
        # Every well-formed payload is still refused from another key.
        for payload in good.values():
            forged = payload[:1] + (other,) + payload[2:]
            assert audit(forged, key, CLAUSES) is None

    @pytest.mark.parametrize("key,other", KEYS)
    def test_unsat_and_unknown_need_no_model(self, key, other):
        for status in ("UNSATISFIABLE", "UNKNOWN"):
            event = audit(("result", key, 0, status, None, {}), key,
                          CLAUSES)
            assert event.status is Status[status]

    def test_extras_keep_only_named_numbers(self):
        event = audit(("progress", 0, 0, 0.1, {},
                       {"arena_fill": 0.5, "flag": True, 3: 1.0,
                        "text": "x"}), 0, CLAUSES)
        assert event.extras == {"arena_fill": 0.5}

    def test_stats_are_rebuilt_field_by_field(self):
        event = audit(("result", 0, 0, "UNKNOWN", None,
                       {"conflicts": 7, "evil": object(),
                        "decisions": "many"}), 0, CLAUSES)
        assert event.stats.conflicts == 7
        assert event.stats.decisions == 0
        assert not hasattr(event.stats, "evil")


class TestModelSatisfies:
    def test_undecided_clause_is_not_satisfied(self):
        # The empty model once passed as "nothing falsified".
        assert not model_satisfies([(1,), (-1,)], {})
        assert not model_satisfies([(1, 2)], {1: False})

    def test_empty_clause_is_never_satisfied(self):
        assert not model_satisfies([()], {1: True})

    def test_true_literal_in_every_clause(self):
        assert model_satisfies(CLAUSES, MODEL)
        assert model_satisfies([], {})


class TestWorkerHandle:
    def _spec(self, **fields):
        return WorkerSpec(key="h", attempt=0, clause_lits=CLAUSES,
                          num_vars=2, config=PortfolioConfig(name="t"),
                          **fields)

    def _wait(self, handle, hang_timeout=None, limit=10.0):
        """Drain until a result or a liveness failure; returns
        (events, failure)."""
        events = []
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            events += handle.drain()
            if events and (events[-1] is None
                           or events[-1].tag == "result"):
                return events, None
            failure = handle.liveness(time.monotonic(), hang_timeout)
            if failure is not None:
                return events, failure
            time.sleep(0.01)
        raise AssertionError("worker neither answered nor failed")

    def test_healthy_worker_reports_an_audited_result(self):
        handle = WorkerHandle(self._spec())
        try:
            events, failure = self._wait(handle)
        finally:
            handle.stop()
        assert failure is None
        assert events[-1].status is Status.SATISFIABLE
        assert model_satisfies(CLAUSES, events[-1].model)

    def test_crash_is_reported_after_the_grace_period(self):
        handle = WorkerHandle(self._spec(fault=CRASH))
        try:
            events, failure = self._wait(handle)
        finally:
            handle.stop()
        assert failure == "crash" and events == []
        assert handle.eof

    def test_hang_is_reported_and_stop_reaps_it(self):
        handle = WorkerHandle(self._spec(fault=HANG))
        try:
            _events, failure = self._wait(handle, hang_timeout=0.2)
        finally:
            handle.stop()
            handle.stop()             # idempotent
        assert failure == "hang"
        assert not handle.proc.is_alive()
