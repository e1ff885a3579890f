"""The worker-supervision core shared by the portfolio and the service.

A portfolio race slot (:class:`repro.runtime.supervisor.Supervisor`)
and a service job attempt (:class:`repro.service.server.SolveServer`)
both reach their verdict in a worker spawned, audited and reaped
here; the two supervisors keep only their policy.  Four parts:

* :func:`worker_loop`, the one worker process entry point: it runs
  :func:`worker_main` on each :class:`WorkerSpec` its supervisor
  sends, which solves the spec, heartbeats from the solver's
  cooperative checkpoint, piggybacks progress and search checkpoints
  on the worker's private pipe, and carries out any scripted fault
  itself;
* :func:`audit`, the one payload audit.  Every payload is a tagged
  tuple -- ``("progress", key, attempt, elapsed, stats, extras)``,
  ``("checkpoint", key, attempt, blob)`` or ``("result", key,
  attempt, status, model, stats)`` -- and anything else, or a SAT
  claim whose model leaves a clause without a true literal, costs
  the sender all trust;
* :class:`WorkerHandle`, one worker process: spawn with its own
  pipes and heartbeat, assign a spec, drain, liveness (alive,
  crashed or hung) and stop;
* :class:`WorkerPool`, one supervisor's idle workers: a worker that
  delivered an audited result takes the next spec, and every other
  outcome reaps the process, so a retry always gets a fresh one.

Each worker has its own pipes, NOT a shared ``multiprocessing.Queue``:
killing a worker that holds a shared queue's write lock would
deadlock every other worker's ``put()``, while a private pipe can
only lose the victim's own channel.  A payload's sender is known
from its pipe, never from the (untrusted) key inside it.  A reused
pipe stays safe: it is FIFO, a worker sends nothing after a result,
and every payload must carry the current attempt's key and attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cnf.formula import CNFFormula
from repro.runtime.budget import DEFAULT_CHECK_INTERVAL, Budget
from repro.runtime.checkpoint import try_load_checkpoint
from repro.runtime.faults import (CRASH, FALSE_UNSAT, GARBAGE, HANG,
                                  KILL_MIDJOB, POISON, corrupt_blob)
from repro.solvers.result import SolverStats, Status

#: Grace period between observing a worker's death and declaring it
#: crashed: its final payload may still be buffered in its pipe and
#: not yet drained by the supervisor.
_DEATH_GRACE = 0.25

#: Upper bound on a checkpoint blob -- workers already bound their
#: exports (``serialize_bounded``), so anything bigger is a
#: misbehaving sender, not a big search.
MAX_CHECKPOINT_BLOB = 1 << 20

#: Exit codes of the scripted ``crash`` and ``kill_midjob`` faults
#: (distinct, for post-mortem clarity in process tables).
_CRASH_EXIT = 17
_KILL_EXIT = 23

#: Seconds between an idle worker's checks that its supervisor is
#: still alive.  An orphan holds copies of every socket the supervisor
#: had open when it forked (a server's listening socket among them),
#: so it must go before a restarted server binds the same port.
_ORPHAN_CHECK = 0.05

Key = Union[int, str]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker attempt needs (picklable).

    *key* names the sender on the wire: a portfolio slot index or a
    service job id.  *fault* is a scripted fault action
    (:mod:`repro.runtime.faults`): a ``kill_midjob`` attempt dies after
    *kill_after* cooperative checkpoints' worth of propagations, and
    *corrupt_checkpoints* damages every checkpoint blob it sends.
    *progress_interval* is the seconds between progress reports
    (``None``: bare heartbeats).  *check_interval* overrides the
    engine's cooperative-checkpoint cadence, *trace_path* gives the
    attempt its own JSONL trace, *search_metrics* attaches search-shape
    histograms, and *resume_blob* (the previous attempt's last
    checkpoint) warm-starts the solver if the checksummed loader
    accepts it.
    """

    key: Key
    attempt: int
    clause_lits: Sequence[Tuple[int, ...]]
    num_vars: int
    config: Any
    budget: Optional[Budget] = None
    fault: Optional[str] = None
    kill_after: int = 2
    corrupt_checkpoints: bool = False
    progress_interval: Optional[float] = None
    proof_path: Optional[str] = None
    check_interval: Optional[int] = None
    trace_path: Optional[str] = None
    search_metrics: bool = False
    resume_blob: Optional[bytes] = None


def scripted_faults(plan, key: Key, attempt: int) -> Dict[str, Any]:
    """The fault fields of a :class:`WorkerSpec` for *key*'s *attempt*
    under *plan* (a ``FaultPlan``, a ``ServiceFaultPlan`` or None)."""
    if plan is None:
        return {}
    return {"fault": plan.action(key, attempt),
            "kill_after": plan.kill_after_checkpoints,
            "corrupt_checkpoints": plan.corrupts_checkpoint(key, attempt)}


def worker_main(spec: WorkerSpec, heartbeat, channel) -> None:
    """Solve one *spec* in a supervised worker process, reporting over
    *channel* (this worker's private pipe end); the last payload of a
    spec is its ``result``.

    *heartbeat* is a shared ``multiprocessing.Value`` written from the
    solver's cooperative checkpoint, so a worker that stops
    propagating also stops heartbeating.  The same checkpoint sends
    the progress reports.  A proof file left by a non-UNSAT outcome
    is removed.  Scripted faults happen here, before any solving
    except ``kill_midjob``, which flushes one last report and dies.
    """
    key, attempt, fault = spec.key, spec.attempt, spec.fault
    if fault == CRASH:
        # _exit, not sys.exit: no finally blocks, no pipe flushing --
        # indistinguishable from a hard native crash.
        os._exit(_CRASH_EXIT)
    if fault == HANG:
        while True:           # pragma: no cover - killed externally
            time.sleep(0.05)
    if fault in (GARBAGE, POISON):
        # Wrong shape AND a bogus status: must fail the audit, never
        # parse as a verdict.
        channel.send(("garbage", key, "NOT_A_STATUS"))
        return
    if fault == FALSE_UNSAT:
        # A well-formed lie: passes the audit, so only a proof check
        # can reject it.
        channel.send(("result", key, attempt, "UNSATISFIABLE", None, {}))
        return

    started = heartbeat.value = time.monotonic()
    formula = CNFFormula(num_vars=spec.num_vars, clauses=spec.clause_lits)
    # A corrupt or truncated blob loads as None: a cold start.
    solver = spec.config.build_solver(
        formula, budget=spec.budget,
        resume_from=try_load_checkpoint(spec.resume_blob))
    if spec.check_interval is not None:
        solver.checkpoint_interval = spec.check_interval
    if spec.search_metrics:
        from repro.obs.metrics import SearchMetrics
        solver.metrics = SearchMetrics()
    tracer = None
    if spec.trace_path is not None:
        from repro.obs.trace import JsonlSink, Tracer
        # Context attempts are 1-based, matching the service's
        # progress frames and service.retry events.
        tracer = Tracer(JsonlSink(spec.trace_path),
                        context={"job": key, "attempt": attempt + 1})
        tracer.emit_meta()
        solver.tracer = tracer
    sink = None
    if spec.proof_path is not None:
        from repro.verify.drat import FileProofSink, attach_proof_stream
        sink = attach_proof_stream(solver, FileProofSink(spec.proof_path))

    def report(now: float) -> None:
        if spec.search_metrics:
            # Mid-solve snapshots carry the search-shape histograms
            # too, not just the terminal result.
            solver.stats.metrics = solver.metrics.snapshot()
        # The engine syncs its arena high-water mark only at GC and
        # at solve end; live snapshots report occupancy.
        solver.stats.arena_peak_lits = solver.arena.peak_lits
        extras = {"arena_fill": round(solver.arena.fill_ratio(), 4)}
        blob = solver.export_checkpoint().serialize_bounded()
        if blob is not None and spec.corrupt_checkpoints:
            blob = corrupt_blob(blob)
        try:
            channel.send(("progress", key, attempt, now - started,
                          solver.stats.as_dict(), extras))
            if blob is not None:
                channel.send(("checkpoint", key, attempt, blob))
        except (BrokenPipeError, OSError):
            pass              # supervisor gone; keep solving

    # A scripted mid-job death comes after kill_after cooperative
    # checkpoints' worth of propagation work.
    kill_at = None if fault != KILL_MIDJOB else spec.kill_after * (
        spec.check_interval or DEFAULT_CHECK_INTERVAL)
    last_sent = started

    def checkpoint() -> None:
        nonlocal last_sent
        now = heartbeat.value = time.monotonic()
        dying = kill_at is not None and solver.stats.propagations >= kill_at
        if spec.progress_interval is not None and (
                dying or now - last_sent >= spec.progress_interval):
            last_sent = now
            report(now)
        if dying:
            os._exit(_KILL_EXIT)

    solver.on_checkpoint = checkpoint
    result = solver.solve()
    if sink is not None:
        sink.close()
        if result.status is not Status.UNSATISFIABLE:
            try:
                os.remove(spec.proof_path)
            except OSError:
                pass
    heartbeat.value = time.monotonic()
    if tracer is not None:
        tracer.close()
    model = None
    if result.assignment is not None:
        model = {var: result.assignment.value_of(var)
                 for var in result.assignment.assigned_variables()}
    channel.send(("result", key, attempt, result.status.name, model,
                  result.stats.as_dict()))


def worker_loop(inbox, heartbeat, channel) -> None:
    """Entry point of a supervised worker process: run
    :func:`worker_main` on each :class:`WorkerSpec` that arrives on
    *inbox*, this worker's private spec pipe, reporting on *channel*.

    The process serves specs until one scripts a fault, until its
    supervisor terminates it, or until the supervisor process is gone
    (checked while idle: inbox end-of-file cannot be relied on, since
    workers forked later hold copies of the inbox's write end).
    """
    parent = os.getppid()
    while True:
        while not inbox.poll(_ORPHAN_CHECK):
            if os.getppid() != parent:
                return
        try:
            spec = inbox.recv()
        except EOFError:
            return
        worker_main(spec, heartbeat, channel)
        if spec.fault is not None:
            return


# -- the one payload audit ---------------------------------------------

@dataclass(frozen=True)
class Event:
    """One audited payload: ``progress`` (``elapsed``, ``stats``,
    ``extras``), ``checkpoint`` (``blob``) or ``result`` (``status``,
    ``model``, ``stats``); stats are rebuilt field by field."""

    tag: str
    attempt: int
    elapsed: float = 0.0
    stats: Optional[SolverStats] = None
    extras: Optional[Dict[str, float]] = None
    blob: Optional[bytes] = None
    status: Optional[Status] = None
    model: Optional[Dict[int, bool]] = None


_ARITY = {"progress": 6, "checkpoint": 4, "result": 6}


def _number(value) -> bool:
    return type(value) in (int, float)


def model_satisfies(clause_lits, model: Dict[int, bool]) -> bool:
    """Audit a SAT claim: every clause needs a literal *model* makes
    true.  A clause the model leaves undecided is not satisfied."""
    return all(any(model.get(abs(lit)) is (lit > 0) for lit in clause)
               for clause in clause_lits)


def audit(payload, key: Key, clause_lits) -> Optional[Event]:
    """The parsed :class:`Event` of a worker *payload*, or None when
    its sender can no longer be trusted: a wrong tag or arity, a key
    other than *key*, a malformed field, an oversize checkpoint, or a
    SAT claim whose model does not satisfy *clause_lits*."""
    if not (isinstance(payload, tuple) and payload
            and isinstance(payload[0], str)
            and _ARITY.get(payload[0]) == len(payload)):
        return None
    tag, sender, attempt = payload[:3]
    if (type(sender) is not type(key) or sender != key
            or type(attempt) is not int or attempt < 0):
        return None
    if tag == "checkpoint":
        blob = payload[3]
        if (not isinstance(blob, (bytes, bytearray))
                or len(blob) > MAX_CHECKPOINT_BLOB):
            return None
        return Event(tag, attempt, blob=bytes(blob))
    if tag == "progress":
        elapsed, stats, extras = payload[3:]
        if (not _number(elapsed) or not elapsed >= 0
                or not isinstance(stats, dict)
                or not isinstance(extras, dict)):
            return None
        return Event(tag, attempt, elapsed=float(elapsed),
                     stats=SolverStats.from_dict(stats),
                     extras={name: value
                             for name, value in extras.items()
                             if isinstance(name, str) and _number(value)})
    status_name, model, stats = payload[3:]
    if (not isinstance(status_name, str)
            or status_name not in Status.__members__
            or not isinstance(stats, dict)):
        return None
    if model is not None and not (isinstance(model, dict) and all(
            type(var) is int and var > 0 and type(value) is bool
            for var, value in model.items())):
        return None
    status = Status[status_name]
    if status is Status.SATISFIABLE and (
            model is None or not model_satisfies(clause_lits, model)):
        return None
    return Event(tag, attempt, status=status, model=model,
                 stats=SolverStats.from_dict(stats))


# -- the worker handle and the idle list -------------------------------

class WorkerHandle:
    """One supervised worker process: its private spec inbox and
    result pipe, and its heartbeat cell.

    Construction spawns the worker on its first *spec*; :meth:`assign`
    hands a reused worker the next one.  Each spec is one attempt:
    the supervisor calls :meth:`drain` whenever ``conn`` is readable
    and :meth:`liveness` on its own tick, and when it is done with the
    attempt gives the handle back to its :class:`WorkerPool` (or
    calls :meth:`stop`, which is idempotent).
    """

    def __init__(self, spec: WorkerSpec):
        ctx = multiprocessing.get_context()
        self.conn, writer = ctx.Pipe(duplex=False)
        reader, self._inbox = ctx.Pipe(duplex=False)
        #: The worker's heartbeat cell, reset by every assignment.
        self.heartbeat = ctx.Value("d", time.monotonic())
        #: The current attempt's spec.
        self.spec = spec
        #: True once the pipe hit end-of-file (or the handle stopped):
        #: nothing more will ever be read from ``conn``.
        self.eof = False
        #: The current attempt's last drained event: None while it
        #: runs, ``"result"`` after an audited verdict, ``"untrusted"``
        #: after a payload that failed the audit.
        self.ended: Optional[str] = None
        self._died_at: Optional[float] = None
        self.proc = ctx.Process(target=worker_loop,
                                args=(reader, self.heartbeat, writer),
                                daemon=True)
        self.proc.start()
        # Keep only the worker's ends open in the worker.
        writer.close()
        reader.close()
        self.assign(spec)

    def assign(self, spec: WorkerSpec) -> None:
        """Start *spec* on this worker.  The heartbeat is reset first,
        so time spent idle never reads as a hang."""
        self.spec = spec
        self.ended = None
        self._died_at = None
        self.heartbeat.value = time.monotonic()
        try:
            self._inbox.send(spec)
        except OSError:
            pass              # died while idle: liveness reports it

    @property
    def reusable(self) -> bool:
        """May this worker take another spec?  Only after an audited
        result of a spec that scripted no fault, with nothing unread
        behind it (a worker sends nothing after its result)."""
        return (self.ended == "result" and self.spec.fault is None
                and not self.eof and self.proc.is_alive()
                and not self.conn.poll(0))

    def drain(self) -> List[Optional[Event]]:
        """Every payload of the current attempt waiting in the pipe,
        audited, in arrival order, without blocking.  A payload for
        another key or attempt is untrusted: an untrusted payload ends
        the list as None and a result ends it; end-of-file ends it
        quietly and sets :attr:`eof` (liveness then tells a crash from
        a clean exit)."""
        events: List[Optional[Event]] = []
        spec = self.spec
        while not self.eof and self.ended is None:
            try:
                if not self.conn.poll(0):
                    break
                payload = self.conn.recv()
            except (EOFError, OSError):
                self.eof = True
                break
            event = audit(payload, spec.key, spec.clause_lits)
            if event is not None and event.attempt != spec.attempt:
                event = None
            events.append(event)
            if event is None:
                self.ended = "untrusted"
            elif event.tag == "result":
                self.ended = "result"
        return events

    def liveness(self, now: float,
                 hang_timeout: Optional[float]) -> Optional[str]:
        """None while the worker is alive, ``"crash"`` once it has been
        dead for longer than the drain grace period, ``"hang"`` once
        its heartbeat has been silent for more than *hang_timeout*
        seconds (None disables hang detection)."""
        if not self.proc.is_alive():
            if self._died_at is None:
                self._died_at = now
            return "crash" if now - self._died_at >= _DEATH_GRACE \
                else None
        self._died_at = None
        if (hang_timeout is not None
                and now - self.heartbeat.value > hang_timeout):
            return "hang"
        return None

    def stop(self) -> None:
        """Terminate (then kill, if need be) and reap the worker, and
        close its pipes."""
        if self.conn.closed:
            return
        self.eof = True
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():      # pragma: no cover
            self.proc.kill()
            self.proc.join(timeout=5.0)
        self.conn.close()
        self._inbox.close()


class WorkerPool:
    """The workers one supervisor owns between attempts.

    :meth:`start` runs a spec on an idle worker when one is left, else
    on a fresh process; :meth:`release` keeps a worker that delivered
    an audited result, up to *max_idle* idle workers, and reaps every
    other one (crash, hang, deadline, poison, cancellation, a scripted
    fault), so the next attempt gets a fresh process.  :meth:`close`
    terminates the idle workers.

    A spec whose budget sets ``max_memory_mb`` always gets a fresh
    process: the memory probe reads the process-lifetime peak, which
    on a reused worker would charge it an earlier job's footprint.
    """

    def __init__(self, max_idle: int):
        self.max_idle = max_idle
        self._idle: List[WorkerHandle] = []
        #: Worker processes started so far.
        self.spawned = 0

    def start(self, spec: WorkerSpec) -> WorkerHandle:
        """A worker running *spec*."""
        handle = None
        if spec.budget is None or spec.budget.max_memory_mb is None:
            while self._idle and handle is None:
                handle = self._idle.pop()
                if not handle.proc.is_alive():
                    handle.stop()
                    handle = None
        if handle is None:
            self.spawned += 1
            return WorkerHandle(spec)
        handle.assign(spec)
        return handle

    def release(self, handle: WorkerHandle) -> None:
        """Take *handle* back once its attempt is over: idle it if it
        may be reused and there is room, else reap it."""
        if handle.reusable and len(self._idle) < self.max_idle:
            self._idle.append(handle)
        else:
            handle.stop()

    def close(self) -> None:
        """Terminate and reap every idle worker; a worker released
        after this is reaped too."""
        self.max_idle = 0
        while self._idle:
            self._idle.pop().stop()
