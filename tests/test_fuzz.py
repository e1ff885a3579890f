"""Tests for repro.verify.fuzz: the differential fuzzer, its
cross-checks, and the delta-debugging shrinker."""

import json
import os

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole
from repro.solvers.result import SolverResult, Status
from repro.verify.fuzz import (
    CDCLEngine,
    DPLLEngine,
    Engine,
    default_engines,
    differential_failure,
    run_fuzz,
    shrink_formula,
)


class TestDifferentialFailure:
    def test_honest_engines_agree(self):
        import random
        formula = pigeonhole(3)
        engines = default_engines(random.Random(7))
        assert differential_failure(formula, engines) is None

    def test_unknown_is_never_a_disagreement(self):
        class GiveUp(Engine):
            name = "give-up"

            def run(self, formula):
                return SolverResult(Status.UNKNOWN)

        formula = pigeonhole(3)
        engines = [CDCLEngine("cdcl"), GiveUp()]
        assert differential_failure(formula, engines) is None

    def test_flipped_verdict_is_a_disagreement(self):
        class Liar(Engine):
            name = "liar"

            def run(self, formula):
                return SolverResult(Status.SATISFIABLE)

        formula = pigeonhole(3)           # UNSAT
        failure = differential_failure(formula, [Liar()])
        assert failure is not None
        kind, detail, culprits = failure
        # A SAT claim with no model is caught as bad-model before any
        # pairwise comparison happens.
        assert kind == "bad-model"
        assert culprits[0].name == "liar"

    def test_invalid_streamed_proof_is_bad_proof(self):
        class ProofDropper(CDCLEngine):
            """Honest verdicts, dishonest proof: drops half the
            derivation before the cross-check sees it."""

            def run(self, formula):
                result = super().run(formula)
                if self.proof_events:
                    self.proof_events = self.proof_events[1::2]
                return result

        formula = pigeonhole(3)
        failure = differential_failure(formula,
                                       [ProofDropper("dropper")])
        assert failure is not None
        assert failure[0] == "bad-proof"
        assert "failed" in failure[1]


class TestShrinker:
    def test_shrinks_to_the_failing_core(self):
        """Bury a tiny UNSAT core in satisfiable padding: the shrinker
        must dig it out."""
        core = [(1,), (-1,)]
        padding = [(i, i + 1) for i in range(2, 40)]
        formula = CNFFormula(num_vars=41,
                             clauses=[list(c) for c in core + padding])

        def is_unsat(candidate):
            from repro.solvers.dpll import solve_dpll
            return solve_dpll(candidate).status is Status.UNSATISFIABLE

        shrunk = shrink_formula(formula, is_unsat)
        assert shrunk.num_clauses == 2
        assert is_unsat(shrunk)
        # Variables were renumbered down to the survivors.
        assert shrunk.num_vars == 1

    def test_respects_eval_budget(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True

        formula = CNFFormula(
            num_vars=30, clauses=[[i] for i in range(1, 31)])
        shrink_formula(formula, predicate, max_evals=10)
        # + up to 1 for the renumbering probe
        assert len(calls) <= 11


class TestRunFuzz:
    def test_clean_seeded_run_has_zero_failures(self, tmp_path):
        report = run_fuzz(iterations=25, seed=11,
                          out_dir=str(tmp_path))
        assert report.ok, report.failures
        assert report.iterations == 25
        assert report.sat + report.unsat + report.unknown == 25
        assert report.unsat > 0 and report.proofs_checked > 0
        assert os.listdir(str(tmp_path)) == []   # no reproducers

    def test_injected_bug_is_caught_and_shrunk(self, tmp_path):
        class BuggyEngine(Engine):
            """Solves a weakened formula: drops the last clause, so it
            sometimes answers SAT with a model falsifying the
            original."""

            name = "buggy"

            def run(self, formula):
                from repro.solvers.dpll import solve_dpll
                weakened = CNFFormula(
                    num_vars=formula.num_vars,
                    clauses=[list(c) for c in formula.clauses][:-1])
                return solve_dpll(weakened)

        def engines(rng):
            return [BuggyEngine(), DPLLEngine()]

        report = run_fuzz(iterations=40, seed=5,
                          out_dir=str(tmp_path),
                          engines_factory=engines,
                          max_shrink_evals=150)
        assert not report.ok, "injected bug escaped the fuzzer"
        failure = report.failures[0]
        assert failure.kind in ("bad-model", "disagreement")
        assert failure.shrunk_clauses <= failure.original_clauses
        assert os.path.exists(failure.cnf_path)
        assert os.path.exists(failure.meta_path)
        meta = json.load(open(failure.meta_path))
        assert meta["kind"] == failure.kind
        assert meta["seed"] == failure.seed
        # The reproducer replays: the shrunk formula still trips the
        # same engines.
        from repro.cnf.dimacs import load_dimacs
        shrunk = load_dimacs(failure.cnf_path)
        assert differential_failure(
            shrunk, [BuggyEngine(), DPLLEngine()]) is not None

    def test_progress_callback_fires(self):
        ticks = []
        run_fuzz(iterations=6, seed=1, shrink=False,
                 on_progress=lambda i, rep: ticks.append(i))
        assert ticks and ticks[-1] == 6

    def test_portfolio_rounds_counted(self):
        report = run_fuzz(iterations=4, seed=2, portfolio_every=2)
        assert report.portfolio_rounds == 2
        assert report.ok, report.failures


class TestPreprocessLayer:
    """The panel's preprocessing slot reaches the layer: a planted
    defect in the pre-pass is reported within a fixed round budget."""

    @staticmethod
    def preprocess_failures(report):
        return [f for f in report.failures
                if any(e["name"] == "preprocess+cdcl" for e in f.engines)]

    def test_skipped_equivalence_reconstruction_is_caught(
            self, monkeypatch):
        from repro.solvers.inprocess import Inprocessor

        extend = Inprocessor.extend_model

        def skip_equiv(self, model):
            saved = self._reconstruction
            self._reconstruction = [entry for entry in saved
                                    if entry[0] != "equiv"]
            try:
                extend(self, model)
            finally:
                self._reconstruction = saved

        monkeypatch.setattr(Inprocessor, "extend_model", skip_equiv)
        report = run_fuzz(iterations=40, seed=3, shrink=False)
        failures = self.preprocess_failures(report)
        assert failures, "planted lift defect escaped the fuzzer"
        assert failures[0].kind == "bad-model"

    def test_dropped_rewrite_proof_add_is_caught(self, monkeypatch):
        from repro.solvers.inprocess import Inprocessor

        replace = Inprocessor._replace

        def unlogged(self, old_cid, new_lits, doomed):
            solver = self.solver
            proof, solver.proof = solver.proof, None
            try:
                replace(self, old_cid, new_lits, doomed)
            finally:
                solver.proof = proof

        monkeypatch.setattr(Inprocessor, "_replace", unlogged)
        report = run_fuzz(iterations=40, seed=3, shrink=False)
        failures = self.preprocess_failures(report)
        assert failures, "planted proof defect escaped the fuzzer"
        assert failures[0].kind == "bad-proof"
