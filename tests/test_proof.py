"""Proof logging end to end: solve with an in-memory DRUP stream
(repro.verify.solve_with_proof_stream) and check the transcript with
the independent checker (repro.verify.check_proof_steps)."""

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.solvers.result import Status
from repro.verify import check_proof_steps, solve_with_proof_stream


class TestProofLogging:
    def test_unsat_proof_complete_and_valid(self):
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.UNSATISFIABLE
        assert sink.concluded
        assert sink.adds > 0
        assert sink.events[-1] == ("a", ())
        check = check_proof_steps(formula, sink.events)
        assert check.valid, check.error
        assert check.concluded
        assert check.steps_checked == len(sink.events)

    def test_sat_proof_incomplete_but_steps_valid(self):
        formula = random_ksat_at_ratio(20, ratio=3.5, seed=0)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.SATISFIABLE
        assert not sink.concluded
        assert ("a", ()) not in sink.events
        check = check_proof_steps(formula, sink.events,
                                  require_empty=False)
        assert check.valid, check.error
        assert not check.concluded

    def test_proof_with_minimization(self):
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula,
                                               minimize_learned=True)
        assert result.status is Status.UNSATISFIABLE
        check = check_proof_steps(formula, sink.events)
        assert check.valid, check.error
        assert check.concluded
