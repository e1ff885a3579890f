"""Certificates: answers the system can defend.

A :class:`Certificate` travels on ``SolverResult.certificate`` and
records *why* an answer should be believed:

* ``kind="model"`` -- SAT, with the model re-evaluated against the
  original formula (the same audit the portfolio supervisor applies
  to worker payloads);
* ``kind="proof"`` -- UNSAT, with a streamed DRUP proof that the
  independent checker (:mod:`repro.verify.checker`) validated;
* ``kind="none"`` -- UNKNOWN, or a demoted answer, with ``reason``
  saying what is missing.

:func:`certified_solve` is the one-stop entry: solve with streaming
proof emission, check the proof, and **demote** any UNSAT whose proof
fails the check to UNKNOWN -- a certified pipeline never reports an
answer it cannot defend.  Each check emits a ``verify.check`` trace
event (steps, bytes, check time, verdict) consumed by the
``repro profile`` certification section.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro.verify.checker import CheckOutcome, check_proof_file
from repro.verify.drat import FileProofSink, attach_proof_stream

#: Certificate kinds.
MODEL = "model"
PROOF = "proof"
NONE = "none"


@dataclass
class Certificate:
    """Evidence attached to a solver answer (see module docstring)."""

    kind: str
    #: Checker / audit verdict; None when nothing was checked.
    valid: Optional[bool] = None
    proof_path: Optional[str] = None
    #: Proof steps the checker processed (adds + deletes).
    steps: int = 0
    deletions: int = 0
    bytes_written: int = 0
    check_seconds: float = 0.0
    #: Why there is no usable certificate (kind="none"), or the
    #: checker diagnostic for an invalid proof.
    reason: Optional[str] = None

    def summary(self) -> str:
        """One human line for CLI output."""
        if self.kind == MODEL:
            return ("model verified against the formula"
                    if self.valid else
                    f"model INVALID: {self.reason or 'audit failed'}")
        if self.kind == PROOF:
            if self.valid:
                where = f" ({self.proof_path})" if self.proof_path else ""
                return (f"proof verified: {self.steps} steps, "
                        f"{self.bytes_written} bytes, "
                        f"{self.check_seconds:.3f}s check{where}")
            return f"proof INVALID: {self.reason or 'check failed'}"
        return f"no certificate: {self.reason or 'unknown result'}"


def _emit_check_event(tracer, outcome: CheckOutcome, bytes_written: int,
                      seconds: float) -> None:
    if tracer is not None:
        tracer.event("verify.check",
                     steps=outcome.steps_checked,
                     bytes=bytes_written,
                     check_seconds=round(seconds, 6),
                     valid=int(outcome.valid))


def check_unsat_proof(formula, proof_path: str,
                      tracer=None) -> Certificate:
    """Run the independent checker over *proof_path* and wrap the
    verdict in a :class:`Certificate` (emitting ``verify.check``)."""
    try:
        size = os.path.getsize(proof_path)
    except OSError:
        size = 0
    started = time.perf_counter()
    outcome = check_proof_file(formula, proof_path)
    elapsed = time.perf_counter() - started
    _emit_check_event(tracer, outcome, size, elapsed)
    if outcome.valid:
        return Certificate(PROOF, valid=True, proof_path=proof_path,
                           steps=outcome.steps_checked,
                           deletions=outcome.deletes,
                           bytes_written=size,
                           check_seconds=elapsed)
    return Certificate(PROOF, valid=False, proof_path=proof_path,
                       steps=outcome.steps_checked,
                       deletions=outcome.deletes,
                       bytes_written=size,
                       check_seconds=elapsed,
                       reason=outcome.error)


def model_certificate(formula, assignment) -> Certificate:
    """Audit a SAT model against the original formula."""
    ok = formula.is_satisfied_by(assignment)
    return Certificate(MODEL, valid=ok,
                       reason=None if ok else
                       "claimed model does not satisfy the formula")


def certified_solve(formula, proof_path: Optional[str] = None,
                    tracer=None, sink_factory=FileProofSink,
                    preprocess: bool = False,
                    **cdcl_kwargs):
    """Solve *formula* with end-to-end certification.

    Streams a DRUP proof while solving; on UNSAT the independent
    checker validates it before the answer is released.  Returns a
    :class:`~repro.solvers.result.SolverResult` whose ``certificate``
    is always populated:

    * SAT    -> model audited against *formula*;
    * UNSAT  -> proof check passed (the file stays at *proof_path*
      when one was given; a temporary file is cleaned up);
    * UNKNOWN, or UNSAT whose proof **fails** the check -> the status
      is *demoted* to UNKNOWN with the diagnostic in
      ``certificate.reason`` (an invalid proof keeps its file for
      post-mortem when *proof_path* was explicit).

    ``preprocess=True`` runs :func:`repro.solvers.inprocess.preprocess`
    into the same sink before solving the reduced formula, so the
    combined stream still verifies against the *original* formula;
    SAT models are lifted back (root units, then substituted
    variables) and audited against the original.  The result's
    ``stats`` then include the pre-pass's counters (e.g.
    ``inprocess_eliminated_vars``).

    ``sink_factory`` exists for fault injection: tests substitute a
    sink that corrupts the stream to pin the demotion path.
    """
    from repro.solvers.cdcl import CDCLSolver
    from repro.solvers.result import SolverResult, Status

    ephemeral = proof_path is None
    if ephemeral:
        handle, proof_path = tempfile.mkstemp(suffix=".drup",
                                              prefix="repro-proof-")
        os.close(handle)
    sink = sink_factory(proof_path)
    target = formula
    pre = None
    if preprocess:
        from repro.solvers.inprocess import preprocess as run_preprocess
        pre = run_preprocess(formula, proof=sink)
        if pre.unsat:
            # Preprocessing refuted the formula; the sink already
            # holds the concluding empty clause.  Check the stream
            # against the original formula like any other UNSAT.
            sink.close()
            certificate = check_unsat_proof(formula, proof_path, tracer)
            certificate.deletions = sink.deletes
            if ephemeral:
                _remove(proof_path)
                certificate.proof_path = None
            status = (Status.UNSATISFIABLE if certificate.valid
                      else Status.UNKNOWN)
            result = SolverResult(status, None, pre.stats)
            result.certificate = certificate
            return result
        target = pre.formula
    try:
        solver = CDCLSolver(target, **cdcl_kwargs)
        if tracer is not None:
            solver.tracer = tracer
        attach_proof_stream(solver, sink)
        result = solver.solve()
    except BaseException:
        # Bad arguments (e.g. learning disabled) or an interrupted
        # solve: no certificate, so no temporary proof file either.
        sink.close()
        if ephemeral:
            _remove(proof_path)
        raise
    sink.close()

    if pre is not None:
        result.stats.merge(pre.stats)
        if result.status is Status.SATISFIABLE:
            result.assignment = pre.lift_model(result.assignment)

    if result.status is Status.UNSATISFIABLE:
        certificate = check_unsat_proof(formula, proof_path, tracer)
        certificate.deletions = sink.deletes
        if certificate.valid:
            result.certificate = certificate
            if ephemeral:
                _remove(proof_path)
                certificate.proof_path = None
            return result
        # Demote: an UNSAT whose proof fails the independent check is
        # not an answer, it is a bug report.
        if ephemeral:
            _remove(proof_path)
            certificate.proof_path = None
        demoted = SolverResult(Status.UNKNOWN, None, result.stats)
        demoted.certificate = certificate
        return demoted

    _remove(proof_path)        # partial proofs are not certificates
    if result.status is Status.SATISFIABLE:
        certificate = model_certificate(formula, result.assignment)
        if not certificate.valid:
            demoted = SolverResult(Status.UNKNOWN, None, result.stats)
            demoted.certificate = certificate
            return demoted
        result.certificate = certificate
        return result
    result.certificate = Certificate(
        NONE, reason="solver returned UNKNOWN (budget exhausted)")
    return result


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass
