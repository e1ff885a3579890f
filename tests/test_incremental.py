"""Unit tests for repro.solvers.incremental (Section 6)."""

import random

from hypothesis import given, settings, strategies as st

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole, random_ksat
from repro.solvers.cdcl import solve_cdcl
from repro.solvers.incremental import IncrementalSolver

from conftest import live_clauses


class TestBasics:
    def test_empty_start(self):
        solver = IncrementalSolver()
        assert solver.solve().is_sat

    def test_monotonic_growth(self):
        solver = IncrementalSolver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve().is_sat
        solver.add_clause([-a])
        solver.add_clause([-b])
        assert solver.solve().is_unsat

    def test_seed_formula(self, tiny_sat_formula):
        solver = IncrementalSolver(tiny_sat_formula)
        assert solver.solve().is_sat
        assert solver.num_vars == 3

    def test_seed_formula_not_mutated(self, tiny_sat_formula):
        before = tiny_sat_formula.num_clauses
        solver = IncrementalSolver(tiny_sat_formula)
        solver.add_clause([-3])
        assert tiny_sat_formula.num_clauses == before

    def test_call_counter(self):
        solver = IncrementalSolver()
        solver.new_var()
        solver.add_clause([1])
        solver.solve()
        solver.solve()
        assert solver.calls == 2


class TestAssumptions:
    def test_retractable_queries(self, tiny_sat_formula):
        solver = IncrementalSolver(tiny_sat_formula)
        assert solver.solve(assumptions=[-2]).is_unsat  # b forced true
        assert solver.solve(assumptions=[2]).is_sat
        assert solver.solve().is_sat                    # fully retracted

    def test_per_call_stats_are_deltas(self):
        solver = IncrementalSolver(pigeonhole(4))
        first = solver.solve()
        second = solver.solve()
        assert first.is_unsat and second.is_unsat
        # Totals accumulate both calls.
        assert solver.total_stats.conflicts == \
            first.stats.conflicts + second.stats.conflicts

    def test_total_metrics_are_the_engine_snapshot(self):
        """The engine's metrics snapshot is cumulative already, so the
        totals must equal it, not sum it once per call."""
        from repro.obs import SearchMetrics

        solver = IncrementalSolver(pigeonhole(4))
        solver.metrics = SearchMetrics()
        for _ in range(3):
            solver.solve()
        engine = solver.metrics.snapshot()
        total = solver.total_stats.metrics
        assert total == engine
        assert (total["learned_clause_size"]["count"]
                == solver.total_stats.learned_clauses)

    def test_learning_persists_across_calls(self):
        """The iterative-SAT speedup of [25]: the second, related query
        reuses recorded clauses and needs fewer conflicts."""
        solver = IncrementalSolver(pigeonhole(4))
        first = solver.solve()
        assert solver.learned_clause_count() > 0
        second = solver.solve()
        assert second.stats.conflicts <= first.stats.conflicts

    def test_assumption_on_a_variable_no_clause_mentions(self):
        solver = IncrementalSolver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a])
        assert solver.solve(assumptions=[b]).is_sat
        assert solver.solve(assumptions=[-b, -a]).is_unsat

    def test_unsat_not_sticky_for_assumptions(self):
        solver = IncrementalSolver()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve(assumptions=[-a]).is_unsat
        assert solver.solve().is_sat


class TestBudgets:
    def test_per_call_conflict_budget(self):
        solver = IncrementalSolver(pigeonhole(6),
                                   max_conflicts_per_call=2)
        result = solver.solve()
        assert result.is_unknown

    def test_budget_refreshes_each_call(self):
        solver = IncrementalSolver(pigeonhole(4),
                                   max_conflicts_per_call=100000)
        assert solver.solve().is_unsat
        assert solver.solve().is_unsat


class TestClausesOverRootFacts:
    """Clauses added after a solve may mention literals the root
    assignment already decided; propagation has passed those and
    must not be left watching them."""

    def _solved(self):
        solver = IncrementalSolver(CNFFormula(3, [[1], [2]]))
        assert solver.solve().is_sat
        return solver

    def test_clause_false_at_the_root_refutes(self):
        solver = self._solved()
        solver.add_clause([-1, -2])
        assert solver.solve().is_unsat

    def test_clause_unit_at_the_root_propagates(self):
        solver = self._solved()
        solver.add_clause([-1, -2, 3])
        assert solver.solve(assumptions=[-3]).is_unsat
        result = solver.solve()
        assert result.is_sat and result.assignment.value_of(3) is True

    def test_watches_move_off_false_literals(self):
        solver = self._solved()
        solver.add_clause([-1, -2, 3, 4])
        assert solver.solve(assumptions=[-3, -4]).is_unsat
        assert solver.solve(assumptions=[-3]).assignment.value_of(4) is True


class TestRetire:
    def test_guarded_and_learned_clauses_leave(self):
        # Satisfiable base over 1..3; an unsatisfiable pigeonhole
        # group over fresh variables, each clause guarded by -act.
        solver = IncrementalSolver(CNFFormula(3, [[1, 2], [-2, 3]]))
        act = solver.new_var()
        group = pigeonhole(4)
        offset = solver.num_vars
        for _ in range(group.num_vars):
            solver.new_var()
        for clause in group.clauses:
            solver.add_clause([-act] + [lit + offset if lit > 0
                                        else lit - offset
                                        for lit in clause])
        assert solver.solve(assumptions=[act]).is_unsat
        assert solver.learned_clause_count() > 0
        solver.retire(act)
        assert solver.learned_clause_count() == 0
        # The retirement's deletions count in the running totals.
        assert solver.total_stats.deleted_clauses == \
            solver._solver.stats.deleted_clauses > 0
        for clause in live_clauses(solver):
            assert all(abs(lit) <= 3 for lit in clause), clause
        assert [list(c) for c in solver._formula.clauses] == \
            [[1, 2], [-2, 3]]
        assert solver.solve().is_sat
        assert solver.solve(assumptions=[-1, -3]).is_unsat

    def test_root_satisfied_unguarded_clauses_leave_too(self):
        solver = IncrementalSolver(CNFFormula(3, [[1, 2], [2, 3]]))
        act = solver.new_var()
        solver.add_clause([-act, 2])
        solver.add_clause([2, -1])
        assert solver.solve(assumptions=[act]).is_sat
        solver.add_clause([2])
        solver.retire(act)
        # -act and the unit 2 are root facts: every clause is
        # satisfied and gone; the engine keeps the facts.
        assert live_clauses(solver) == []
        assert solver.solve(assumptions=[-2]).is_unsat
        assert solver.solve(assumptions=[act]).is_unsat

    def test_retire_after_a_refutation_keeps_unsat(self):
        solver = IncrementalSolver(CNFFormula(1, [[1], [-1]]))
        assert solver.solve().is_unsat
        solver.retire(solver.new_var())
        assert solver.solve().is_unsat

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1 << 20))
    def test_verdicts_match_a_fresh_solve_of_the_live_clauses(self,
                                                              seed):
        """Each round guards random clauses over the base variables
        and one reused block of variables with a fresh activation
        literal, solves under it, retires it, then solves under random
        assumptions; every verdict must equal a fresh solve of the
        clauses still live."""
        rng = random.Random(seed)
        base = 8
        live = [list(c) for c in random_ksat(
            base, rng.randint(5, 30), seed=rng.randrange(1 << 30))]
        solver = IncrementalSolver(CNFFormula(base, live))
        block = [solver.new_var() for _ in range(6)]
        universe = list(range(1, base + 1)) + block
        for _ in range(4):
            act = solver.new_var()
            group = [[v if rng.random() < 0.5 else -v
                      for v in rng.sample(universe, 3)]
                     for _ in range(rng.randint(4, 30))]
            for clause in group:
                solver.add_clause([-act, *clause])
            result = solver.solve(assumptions=[act])
            expected = solve_cdcl(CNFFormula(max(block),
                                             live + group)).status
            assert result.status is expected
            if result.is_sat:
                assert CNFFormula(max(block), live + group
                                  ).is_satisfied_by(result.assignment)
            solver.retire(act)
            if rng.random() < 0.5:
                clause = [v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, base + 1), 3)]
                solver.add_clause(clause)
                live.append(clause)
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, base + 1), 2)]
            result = solver.solve(assumptions=assumptions)
            expected = solve_cdcl(CNFFormula(
                base, live + [[lit] for lit in assumptions])).status
            assert result.status is expected
