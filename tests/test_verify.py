"""Tests for repro.verify: streaming DRUP proofs, the independent
checker, certificates, and the certified application paths."""

import os

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import (
    parity_chain,
    pigeonhole,
    random_ksat_at_ratio,
)
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import Status
from repro.verify import (
    Certificate,
    FileProofSink,
    MemoryProofSink,
    attach_proof_stream,
    certified_solve,
    check_proof_file,
    check_proof_lines,
    check_proof_steps,
    check_unsat_proof,
    solve_with_proof_stream,
)


class TestCheckerIndependence:
    def test_checker_never_imports_the_solver_stack(self):
        """The trusted base is the checker alone: a checker built on
        the solver's BCP would faithfully reproduce the solver's bugs
        and certify nothing."""
        import ast
        import inspect

        import repro.verify.checker as checker

        tree = ast.parse(inspect.getsource(checker))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        for module in imported:
            assert not module.startswith("repro"), \
                f"checker imports {module}"


class TestProofStreaming:
    def test_unsat_proof_checks_valid_in_memory(self):
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.UNSATISFIABLE
        assert sink.concluded
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
        assert outcome.concluded

    def test_unsat_proof_checks_valid_on_disk(self, tmp_path):
        formula = pigeonhole(4)
        path = str(tmp_path / "php4.drup")
        result, sink = solve_with_proof_stream(formula,
                                               proof_path=path)
        assert result.status is Status.UNSATISFIABLE
        assert sink.bytes_written == os.path.getsize(path)
        outcome = check_proof_file(formula, path)
        assert outcome.valid, outcome.error
        assert outcome.adds == sink.adds + 1   # + concluding 0 line

    def test_memory_sink_lines_round_trip(self):
        """The rendered file body and the in-memory events are the
        same proof to the checker."""
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.UNSATISFIABLE
        by_events = check_proof_steps(formula, sink.events)
        by_lines = check_proof_lines(formula,
                                     sink.lines().splitlines())
        assert by_events.valid and by_lines.valid
        assert by_events.adds == by_lines.adds
        assert by_events.deletes == by_lines.deletes

    def test_sat_run_emits_no_conclusion(self):
        formula = random_ksat_at_ratio(20, 3.5, 3, seed=0)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.SATISFIABLE
        assert not sink.concluded
        # The partial derivation is still all-RUP.
        outcome = check_proof_steps(formula, sink.events,
                                    require_empty=False)
        assert outcome.valid, outcome.error

    def test_proof_valid_across_gc_compactions(self):
        """Deletion lines keep the proof checkable across arena GC:
        the checker's database mirrors the solver's, shrinking in
        step.  At least two compactions must actually happen."""
        formula = pigeonhole(5)
        solver = CDCLSolver(formula, deletion="size",
                            deletion_bound=3, deletion_interval=20)
        sink = MemoryProofSink()
        attach_proof_stream(solver, sink)
        result = solver.solve()
        assert result.status is Status.UNSATISFIABLE
        assert result.stats.gc_runs >= 2, \
            "instance no longer exercises the compacting GC"
        assert sink.deletes > 0, "GC emitted no deletion lines"
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
        assert outcome.deletes == sink.deletes

    @pytest.mark.parametrize("build,kw", [
        (lambda: pigeonhole(4), dict(minimize_learned=False)),
        (lambda: pigeonhole(3), dict(conflict_cut="decision")),
        (lambda: pigeonhole(5), dict(deletion="size", deletion_bound=5,
                                     deletion_interval=20)),
        (lambda: parity_chain(10), {}),
        (lambda: CNFFormula(num_vars=1, clauses=[[1], [-1]]), {}),
    ] + [(lambda seed=seed: random_ksat_at_ratio(8, ratio=5.5,
                                                 seed=seed), {})
         for seed in range(2, 6)],
        ids=["php-4-raw-1uip", "php-3-decision-cut", "php-5-deletion",
             "parity-10", "trivially-unsat"]
            + [f"rksat-8-s{seed}" for seed in range(2, 6)])
    def test_unsat_proof_valid_per_config(self, build, kw):
        formula = build()
        result, sink = solve_with_proof_stream(formula, **kw)
        assert result.status is Status.UNSATISFIABLE
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
        assert outcome.concluded

    def test_bad_solver_arguments_leave_no_proof_file(self, tmp_path):
        """The solver validates its arguments before the proof file
        is opened: no handle leaks, no empty file is left behind."""
        path = tmp_path / "never.drup"
        with pytest.raises(ValueError, match="backtrack_mode"):
            solve_with_proof_stream(pigeonhole(4), proof_path=str(path),
                                    backtrack_mode="bogus")
        assert not path.exists()


#: Hand-written proofs over a two-variable database: (clauses, events,
#: require_empty, valid, failing line or None).
HAND_WRITTEN_PROOFS = {
    "unit-step-implied": ([[1, 2], [1, -2]], [("a", (1,))],
                          False, True, None),
    "tautology-step": ([[1]], [("a", (1, -1))], False, True, None),
    "step-not-implied": ([[1, 2]], [("a", (1,))], False, False, 1),
    "second-step-not-implied": ([[1, 2], [1, -2]],
                                [("a", (1,)), ("a", (2,))],
                                False, False, 2),
    "empty-clause-not-implied": ([[1, 2]], [("a", ())],
                                 True, False, 1),
    "no-empty-clause": ([[1, 2], [1, -2]], [("a", (1,))],
                        True, False, 1),
}


class TestCheckerVerdicts:
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN_PROOFS))
    def test_hand_written_proof(self, name):
        clauses, events, require_empty, valid, line = \
            HAND_WRITTEN_PROOFS[name]
        formula = CNFFormula(num_vars=2, clauses=clauses)
        outcome = check_proof_steps(formula, events,
                                    require_empty=require_empty)
        assert outcome.valid is valid, outcome.error
        assert outcome.line == line


class TestCheckerRejections:
    @pytest.fixture()
    def php4_proof(self, tmp_path):
        formula = pigeonhole(4)
        path = str(tmp_path / "php4.drup")
        result, _ = solve_with_proof_stream(formula, proof_path=path)
        assert result.status is Status.UNSATISFIABLE
        return formula, path

    def test_corrupted_add_line_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()
        # Replace the first add with a clause the database cannot
        # derive (a fresh positive unit over a brand-new variable).
        lines[0] = "999 0"
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == 1
        assert outcome.error.startswith("line 1:")
        assert "not a RUP consequence" in outcome.error

    def test_truncated_proof_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()[:-1]   # drop final "0"
        # Drop the trailing derived units too so the database does
        # not already propagate to conflict.
        while lines and len(lines[-1].split()) <= 2:
            lines.pop()
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == len(lines)
        assert "without the empty clause" in outcome.error

    def test_malformed_literal_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()
        lines[2] = "1 bogus 0"
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == 3
        assert "malformed literal 'bogus'" in outcome.error

    def test_missing_terminator_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0]         # strip the 0
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == 2
        assert "missing terminating 0" in outcome.error

    def test_deleting_unknown_clause_rejected(self):
        formula = CNFFormula(num_vars=2, clauses=[[1, 2]])
        outcome = check_proof_lines(formula, ["d 1 -2 0"])
        assert not outcome.valid
        assert outcome.line == 1
        assert "not in the database" in outcome.error

    def test_missing_file_is_invalid_not_raised(self):
        formula = CNFFormula(num_vars=1, clauses=[[1]])
        outcome = check_proof_file(formula, "/nonexistent/p.drup")
        assert not outcome.valid
        assert "unreadable proof file" in outcome.error


class _TamperingSink(FileProofSink):
    """Drops every third add step: the proof file looks plausible but
    has holes the checker must catch."""

    def add(self, literals):
        if self.adds % 3 == 2:
            self.adds += 1              # count it, never emit it
            return
        super().add(literals)


class TestCertifiedSolve:
    def test_unsat_carries_valid_proof_certificate(self, tmp_path):
        path = str(tmp_path / "php4.drup")
        result = certified_solve(pigeonhole(4), proof_path=path)
        assert result.status is Status.UNSATISFIABLE
        cert = result.certificate
        assert cert.kind == "proof" and cert.valid
        assert cert.proof_path == path and os.path.exists(path)
        assert cert.steps > 0 and cert.bytes_written > 0

    def test_ephemeral_proof_cleaned_up(self):
        result = certified_solve(pigeonhole(4))
        cert = result.certificate
        assert cert.valid and cert.proof_path is None

    def test_sat_model_audited(self):
        formula = random_ksat_at_ratio(20, 3.5, 3, seed=0)
        result = certified_solve(formula)
        assert result.status is Status.SATISFIABLE
        cert = result.certificate
        assert cert.kind == "model" and cert.valid

    def test_unknown_gets_reasoned_none_certificate(self):
        result = certified_solve(pigeonhole(6), max_conflicts=5)
        assert result.status is Status.UNKNOWN
        assert result.certificate.kind == "none"
        assert "budget" in result.certificate.reason

    def test_learning_disabled_is_refused(self):
        """Without recorded clauses the stream is no proof, so every
        proof path refuses a learning-disabled solver up front."""
        with pytest.raises(ValueError, match="clause learning"):
            certified_solve(pigeonhole(4), learning=False)
        with pytest.raises(ValueError, match="clause learning"):
            solve_with_proof_stream(pigeonhole(4), learning=False)
        solver = CDCLSolver(pigeonhole(4), learning=False)
        with pytest.raises(ValueError, match="clause learning"):
            attach_proof_stream(solver, MemoryProofSink())
        assert solver.proof is None

    def test_invalid_proof_demotes_to_unknown(self, tmp_path):
        """A tampered stream must never surface as UNSAT: the answer
        is demoted and the diagnostic kept."""
        path = str(tmp_path / "bad.drup")
        result = certified_solve(pigeonhole(4), proof_path=path,
                                 sink_factory=_TamperingSink)
        assert result.status is Status.UNKNOWN
        cert = result.certificate
        assert cert.kind == "proof" and cert.valid is False
        assert cert.reason.startswith("line ")
        assert os.path.exists(path)     # kept for post-mortem

    def test_check_emits_trace_event(self, tmp_path):
        from repro.obs import ListSink, Tracer, validate_event

        sink = ListSink()
        tracer = Tracer(sink)
        path = str(tmp_path / "php4.drup")
        result = certified_solve(pigeonhole(4), proof_path=path,
                                 tracer=tracer)
        assert result.status is Status.UNSATISFIABLE
        checks = [e for e in sink.events
                  if e["kind"] == "event"
                  and e["name"] == "verify.check"]
        assert len(checks) == 1
        event = checks[0]
        assert validate_event(event) == []
        assert event["attrs"]["valid"] == 1
        assert event["attrs"]["steps"] > 0
        assert event["attrs"]["bytes"] == os.path.getsize(path)

    def test_check_unsat_proof_standalone(self, tmp_path):
        formula = pigeonhole(4)
        path = str(tmp_path / "php4.drup")
        solve_with_proof_stream(formula, proof_path=path)
        cert = check_unsat_proof(formula, path)
        assert isinstance(cert, Certificate)
        assert cert.valid and "proof verified" in cert.summary()


class TestCertifiedApplications:
    def test_atpg_redundant_fault_certified(self, tmp_path):
        from repro.apps.atpg import TestOutcome, solve_fault
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import redundant_or_chain

        result = solve_fault(redundant_or_chain(),
                             StuckAtFault("ab", False),
                             certify=True, proof_dir=str(tmp_path))
        assert result.outcome is TestOutcome.REDUNDANT
        cert = result.certificate
        assert cert.valid
        assert os.path.exists(str(tmp_path / "atpg-ab-sa0.drup"))

    def test_atpg_detected_fault_model_audited(self):
        from repro.apps.atpg import TestOutcome, solve_fault
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import c17

        result = solve_fault(c17(), StuckAtFault("G10", False),
                             certify=True)
        assert result.outcome is TestOutcome.DETECTED
        assert result.certificate.kind == "model"
        assert result.certificate.valid

    def test_atpg_circuit_method_cannot_certify(self):
        from repro.apps.atpg import solve_fault
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import c17

        with pytest.raises(ValueError, match="structural"):
            solve_fault(c17(), StuckAtFault("G10", False),
                        method="circuit", certify=True)

    def test_cec_equivalence_certified(self, tmp_path):
        from repro.apps.equivalence import check_equivalence
        from repro.circuits.generators import (
            carry_select_adder,
            ripple_carry_adder,
        )

        report = check_equivalence(ripple_carry_adder(4),
                                   carry_select_adder(4),
                                   certify=True,
                                   proof_dir=str(tmp_path))
        assert report.equivalent is True
        assert report.certificate.valid
        assert report.certificate.proof_path.endswith(".drup")
        assert os.path.exists(report.certificate.proof_path)

    def test_cec_preprocessing_certifies(self, tmp_path):
        """The proof-logged pre-pass and the solve share one stream,
        checked against the encoded miter; a counterexample comes back
        lifted to the miter's inputs and audited."""
        from repro.apps.equivalence import check_equivalence, mutate_circuit
        from repro.circuits.generators import (
            carry_select_adder,
            ripple_carry_adder,
        )
        from repro.circuits.simulate import output_values, simulate
        from repro.circuits.tseitin import encode_miter

        rca, csa = ripple_carry_adder(4), carry_select_adder(4)
        report = check_equivalence(rca, csa, simulation_vectors=0,
                                   use_preprocessing=True, certify=True,
                                   proof_dir=str(tmp_path))
        assert report.equivalent is True
        assert report.variables_eliminated > 0
        assert report.certificate.kind == "proof"
        assert report.certificate.valid
        miter = encode_miter(rca, csa).formula
        outcome = check_proof_file(miter, report.certificate.proof_path)
        assert outcome.valid and outcome.concluded, outcome.error

        buggy = mutate_circuit(rca, seed=1)
        report = check_equivalence(rca, buggy, simulation_vectors=0,
                                   use_preprocessing=True, certify=True)
        assert report.equivalent is False
        assert report.certificate.kind == "model"
        assert report.certificate.valid
        vector = report.counterexample
        assert (output_values(rca, simulate(rca, vector))
                != output_values(buggy, simulate(buggy, vector)))

    def test_cec_preprocessing_portfolio_cannot_certify(self):
        from repro.apps.equivalence import check_equivalence
        from repro.circuits.generators import ripple_carry_adder

        with pytest.raises(ValueError, match="preprocess"):
            check_equivalence(ripple_carry_adder(4),
                              ripple_carry_adder(4),
                              use_preprocessing=True, certify=True,
                              backend="portfolio")

    def test_bmc_per_depth_proofs(self, tmp_path):
        from repro.apps.bmc import check_safety
        from repro.circuits.generators import binary_counter

        result = check_safety(binary_counter(3), "rollover", True,
                              max_depth=4, certify=True,
                              proof_dir=str(tmp_path))
        # 2^3 counter: rollover unreachable within 4 steps.
        assert result.property_holds
        assert result.depths_proved == 5
        assert not result.discrepant
        assert len(result.certificates) == 5
        for depth, cert in enumerate(result.certificates):
            assert cert.valid, f"depth {depth}: {cert.reason}"
            assert os.path.exists(
                str(tmp_path / f"depth{depth}.drup"))

    def test_bmc_counterexample_model_audited(self):
        from repro.apps.bmc import check_safety
        from repro.circuits.generators import binary_counter

        result = check_safety(binary_counter(2), "rollover", True,
                              max_depth=5, certify=True)
        assert result.failure_depth == 3
        assert result.certificates[-1].kind == "model"
        assert result.certificates[-1].valid


class TestCertifiedPortfolio:
    def test_race_unsat_carries_checked_certificate(self, tmp_path):
        from repro.solvers.portfolio import solve_portfolio

        outcome = solve_portfolio(pigeonhole(5), processes=2,
                                  timeout=30.0,
                                  progress_interval=None,
                                  proof_dir=str(tmp_path))
        result = outcome.result
        assert result.status is Status.UNSATISFIABLE
        assert result.certificate is not None
        assert result.certificate.valid

    def test_false_unsat_lie_degrades_to_discrepant(self, tmp_path):
        """A worker lying UNSAT without a checkable proof must not
        settle the race: it is marked DISCREPANT and the honest
        workers carry on."""
        from repro.runtime.faults import FaultPlan
        from repro.solvers.portfolio import solve_portfolio

        formula = random_ksat_at_ratio(20, 3.0, 3, seed=3)
        plan = FaultPlan(false_unsat={0: 1})
        outcome = solve_portfolio(formula, processes=2,
                                  timeout=30.0, max_retries=1,
                                  fault_plan=plan,
                                  progress_interval=None,
                                  proof_dir=str(tmp_path))
        result = outcome.result
        assert result.status is Status.SATISFIABLE
        assert formula.is_satisfied_by(result.assignment)
        fates = [w.outcome.name for w in outcome.report.workers]
        assert "DISCREPANT" in fates
        liar = next(w for w in outcome.report.workers
                    if w.outcome.name == "DISCREPANT")
        assert liar.discrepancy
