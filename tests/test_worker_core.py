"""The worker core shared by the portfolio and the service
(repro.runtime.worker): the one payload audit, the strict SAT model
check behind it, the worker handle's liveness rule, and the idle
list's reuse rule -- a worker takes another spec only after an
audited result, and searches exactly like a fresh one when it does.

The audit is table-driven and runs once with a portfolio-style int
key and once with a service-style str key: both supervisors trust
exactly the same payloads.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.runtime.budget import Budget
from repro.runtime.faults import (CRASH, FALSE_UNSAT, HANG, KILL_MIDJOB,
                                  POISON)
from repro.runtime.worker import (MAX_CHECKPOINT_BLOB, WorkerHandle,
                                  WorkerPool, WorkerSpec, audit,
                                  model_satisfies)
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


def _spec(key="h", formula=None, **fields):
    """A worker spec under a plain configuration: the two-clause
    formula above, or *formula*."""
    clauses, num_vars = (CLAUSES, 2) if formula is None else (
        [tuple(clause) for clause in formula.clauses], formula.num_vars)
    return WorkerSpec(key=key, attempt=0, clause_lits=clauses,
                      num_vars=num_vars, config=PortfolioConfig(name="t"),
                      **fields)


def _wait(handle, hang_timeout=None, limit=10.0):
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


class TestWorkerHandle:
    def test_healthy_worker_reports_an_audited_result(self):
        handle = WorkerHandle(_spec())
        try:
            events, failure = _wait(handle)
        finally:
            handle.stop()
        assert failure is None
        assert events[-1].status is Status.SATISFIABLE
        assert model_satisfies(CLAUSES, events[-1].model)

    def test_crash_is_reported_after_the_grace_period(self):
        handle = WorkerHandle(_spec(fault=CRASH))
        try:
            events, failure = _wait(handle)
        finally:
            handle.stop()
        assert failure == "crash" and events == []
        assert handle.eof

    def test_hang_is_reported_and_stop_reaps_it(self):
        handle = WorkerHandle(_spec(fault=HANG))
        try:
            _events, failure = _wait(handle, hang_timeout=0.2)
        finally:
            handle.stop()
            handle.stop()             # idempotent
        assert failure == "hang"
        assert not handle.proc.is_alive()


def _run(pool, spec, hang_timeout=None):
    """Run *spec* on a worker from *pool* to a result or a failure,
    then hand the worker back; returns (handle, events, failure)."""
    handle = pool.start(spec)
    try:
        events, failure = _wait(handle, hang_timeout)
    finally:
        pool.release(handle)
    return handle, events, failure


def _peak_mb(pid, field="VmHWM"):
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise AssertionError(f"no {field} for pid {pid}")


@pytest.fixture
def pool():
    workers = WorkerPool(max_idle=2)
    yield workers
    workers.close()


class TestWorkerPool:
    def test_clean_result_reuses_the_worker(self, pool):
        first, _, _ = _run(pool, _spec("a"))
        second, events, failure = _run(pool, _spec("b"))
        assert second is first and second.proc.pid == first.proc.pid
        assert failure is None
        assert events[-1].status is Status.SATISFIABLE
        assert pool.spawned == 1

    @pytest.mark.parametrize("fault", [CRASH, HANG, POISON, KILL_MIDJOB,
                                       FALSE_UNSAT])
    def test_failed_attempt_replaces_the_worker(self, pool, fault):
        warm, _, _ = _run(pool, _spec("warm"))
        fields = {"fault": fault}
        formula = None
        if fault == KILL_MIDJOB:
            formula = pigeonhole(6)
            fields.update(kill_after=1, check_interval=16,
                          progress_interval=0.0)
        faulted, events, failure = _run(
            pool, _spec("faulted", formula, **fields), hang_timeout=0.3)
        # The fault struck a reused worker, which is now reaped.
        assert faulted.proc.pid == warm.proc.pid
        assert failure is not None or events[-1] is None \
            or fault == FALSE_UNSAT
        assert not faulted.proc.is_alive()
        fresh, events, _ = _run(pool, _spec("next"))
        assert fresh.proc.pid != warm.proc.pid
        assert events[-1].status is Status.SATISFIABLE
        assert pool.spawned == 2

    def test_abandoned_attempt_replaces_the_worker(self, pool):
        # A deadline or a cancellation: the supervisor gives the
        # worker back before any result arrived.
        warm, _, _ = _run(pool, _spec("warm"))
        slow = pool.start(_spec("slow", pigeonhole(9)))
        time.sleep(0.2)
        assert all(event is not None and event.tag != "result"
                   for event in slow.drain())
        pool.release(slow)
        assert slow.proc.pid == warm.proc.pid and not slow.proc.is_alive()
        fresh, _, _ = _run(pool, _spec("next"))
        assert fresh.proc.pid != warm.proc.pid

    def test_reused_worker_searches_like_a_fresh_one(self):
        target = _spec("target", random_ksat_at_ratio(60, 4.26, 3, seed=5))
        fresh_pool, reused_pool = WorkerPool(1), WorkerPool(1)
        try:
            fresh, events, _ = _run(fresh_pool, target)
            reference = events[-1]
            assert reference.stats.conflicts > 0
            first = None
            for seed in (11, 12, 13):
                other = _spec(f"other-{seed}", random_ksat_at_ratio(
                    50, 4.26, 3, seed=seed))
                handle, _, _ = _run(reused_pool, other)
                first = first or handle
                assert handle.proc.pid == first.proc.pid
            reused, events, _ = _run(reused_pool, target)
        finally:
            fresh_pool.close()
            reused_pool.close()
        assert reused.proc.pid == first.proc.pid != fresh.proc.pid
        again = events[-1]
        assert again.status is reference.status
        assert again.model == reference.model
        for counter in ("conflicts", "decisions", "propagations"):
            assert getattr(again.stats, counter) == \
                getattr(reference.stats, counter), counter

    def test_stale_payload_on_a_reused_pipe_recycles_the_worker(
            self, pool):
        previous, _, _ = _run(pool, _spec("previous"))
        # The idle worker runs the previous job once more, so the
        # first payload on its reused pipe carries the previous key.
        previous._inbox.send(_spec("previous"))
        handle, events, _ = _run(pool, _spec("current"))
        assert handle is previous
        assert events == [None]       # failed the audit
        assert not handle.proc.is_alive()
        fresh, events, _ = _run(pool, _spec("next"))
        assert fresh.proc.pid != previous.proc.pid
        assert events[-1].status is Status.SATISFIABLE

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads peak RSS from /proc")
    def test_memory_ceiling_job_gets_a_fresh_worker(self, pool):
        # The memory probe reads the process-lifetime peak RSS: on the
        # worker that solved the big job, the small job would read
        # the big job's peak and stop UNKNOWN for memory.
        big, events, _ = _run(pool, _spec(
            "big", random_ksat_at_ratio(20000, 3.0, 3, seed=2)))
        assert events[-1].status is Status.SATISFIABLE
        base, peak = _peak_mb(os.getpid(), "VmRSS"), _peak_mb(big.proc.pid)
        assert peak - base > 10, (base, peak)
        ceiling = base + (peak - base) / 2
        small, events, _ = _run(pool, _spec(
            "small", budget=Budget(max_memory_mb=ceiling)))
        assert events[-1].status is Status.SATISFIABLE
        assert small.proc.pid != big.proc.pid

    def test_close_reaps_idle_workers(self):
        pool = WorkerPool(max_idle=2)
        handle, _, _ = _run(pool, _spec())
        assert handle.proc.is_alive()
        pool.close()
        assert not handle.proc.is_alive()
        late = WorkerHandle(_spec("late"))
        _wait(late)
        pool.release(late)            # after close: reaped, not kept
        assert not late.proc.is_alive()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads process states from /proc")
    def test_idle_worker_exits_when_its_supervisor_dies(self, tmp_path):
        # An orphan keeps every socket its supervisor had open, so a
        # restarted server could not bind the same port.  Inbox
        # end-of-file does not end the idle worker here: the busy
        # worker forked after it holds its inbox's write end.
        import repro

        script = (
            "import os, time\n"
            "from repro.cnf.generators import pigeonhole\n"
            "from repro.runtime.worker import (WorkerHandle, WorkerPool,\n"
            "                                  WorkerSpec)\n"
            "from repro.solvers.portfolio import PortfolioConfig\n"
            "def spec(key, formula):\n"
            "    return WorkerSpec(key=key, attempt=0,\n"
            "        clause_lits=[tuple(c) for c in formula.clauses],\n"
            "        num_vars=formula.num_vars,\n"
            "        config=PortfolioConfig(name='t'))\n"
            "pool = WorkerPool(max_idle=2)\n"
            "idle = pool.start(spec('idle', pigeonhole(2)))\n"
            "while idle.ended is None:\n"
            "    idle.drain()\n"
            "    time.sleep(0.01)\n"
            "pool.release(idle)\n"
            "busy = WorkerHandle(spec('busy', pigeonhole(11)))\n"
            "print(idle.proc.pid, busy.proc.pid, flush=True)\n"
            "os._exit(0)\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # A file, not a pipe: the orphans inherit the output descriptor,
        # and a pipe would not reach end-of-file while they live.
        pids = tmp_path / "pids"
        with open(pids, "w") as out:
            subprocess.run([sys.executable, "-c", script], env=env,
                           stdout=out, stderr=subprocess.DEVNULL,
                           timeout=60, check=True)
        idle, busy = (int(pid) for pid in pids.read_text().split())

        def alive(pid):
            try:
                with open(f"/proc/{pid}/status") as status:
                    return "State:\tZ" not in status.read()
            except OSError:
                return False

        try:
            deadline = time.monotonic() + 5.0
            while alive(idle):
                assert time.monotonic() < deadline, "idle orphan lives"
                time.sleep(0.02)
        finally:
            for pid in (idle, busy):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

    def test_server_shutdown_reaps_idle_workers(self):
        from repro.service import InProcessClient, ServiceConfig

        client = InProcessClient(ServiceConfig(max_workers=2))
        try:
            for index in range(3):
                response = client.submit(
                    f"j{index}", clauses=[list(c) for c in CLAUSES],
                    num_vars=2, use_cache=False)
                assert response["body"]["status"] == "SATISFIABLE"
            assert client.status()["workers"]["spawned"] == 1
            assert multiprocessing.active_children()    # idle worker
        finally:
            client.close()
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "idle worker survived"
            time.sleep(0.05)
