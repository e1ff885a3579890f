"""Unit tests for repro.cnf.simplify (unit propagation) and the
formula-level preprocessing step, repro.solvers.inprocess.preprocess."""

from conftest import brute_force_status

from repro.cnf.formula import CNFFormula
from repro.cnf.simplify import propagate_units
from repro.solvers.cdcl import solve_cdcl
from repro.solvers.inprocess import preprocess


def build(clauses, num_vars=0):
    formula = CNFFormula(num_vars)
    formula.add_clauses(clauses)
    return formula


def lifts(formula, result):
    """A model of the reduced formula lifts to one of *formula*."""
    solved = solve_cdcl(result.formula)
    assert solved.is_sat
    lifted = result.lift_model(solved.assignment)
    return formula.evaluate(
        lifted.extend_unassigned(formula.variables())) is True


class TestPropagateUnits:
    def test_single_unit(self):
        result = propagate_units(build([[1], [1, 2], [-1, 3]]))
        assert result.forced == {1: True, 3: True}
        assert result.formula.num_clauses == 0

    def test_cascade(self):
        result = propagate_units(build([[1], [-1, 2], [-2, 3]]))
        assert result.forced == {1: True, 2: True, 3: True}

    def test_conflict_detected(self):
        result = propagate_units(build([[1], [-1]]))
        assert result.unsat

    def test_derived_conflict(self):
        result = propagate_units(build([[1], [-1, 2], [-1, -2]]))
        assert result.unsat

    def test_no_units_is_identity(self):
        formula = build([[1, 2], [-1, -2]])
        result = propagate_units(formula)
        assert result.formula.num_clauses == 2
        assert not result.forced

    def test_preserves_satisfiability(self):
        formula = build([[1], [1, 2], [-2, 3], [-1, -3, 2]])
        result = propagate_units(formula)
        assert not result.unsat
        assert brute_force_status(formula) == "SAT"


class TestPureLiterals:
    """Pure-literal elimination is not a RUP step, so the proof-logged
    preprocessor leaves pure literals to search: their clauses
    survive, and models still lift back."""

    def test_pure_positive(self):
        formula = build([[1, 2], [1, -2]])
        result = preprocess(formula)
        assert result.formula.num_clauses == 2
        assert lifts(formula, result)

    def test_pure_negative(self):
        formula = build([[-1, 2], [-1, -2]])
        result = preprocess(formula)
        assert result.formula.num_clauses == 2
        assert lifts(formula, result)

    def test_mixed_not_pure(self):
        # (1 + 2)(1' + 2') is the equivalence 2 == 1': substitution
        # turns both clauses into tautologies.
        formula = build([[1, 2], [-1, -2]])
        result = preprocess(formula)
        assert result.variables_eliminated == 1
        assert result.formula.num_clauses == 0
        assert lifts(formula, result)


class TestTautologiesAndDuplicates:
    def test_remove_tautology(self):
        result = preprocess(build([[1, -1], [2]]))
        assert [list(c) for c in result.formula] == [[2]]

    def test_remove_duplicates_keeps_first(self):
        result = preprocess(build([[1, 2], [2, 1], [3]]))
        assert sorted(list(c) for c in result.formula) == [[1, 2], [3]]


class TestSubsumption:
    def test_shorter_subsumes_longer(self):
        result = preprocess(build([[1], [1, 2], [1, 2, 3]]))
        assert result.formula.num_clauses == 1
        assert list(result.formula.clauses[0]) == [1]

    def test_unrelated_kept(self):
        result = preprocess(build([[1, 2], [3, 4]]))
        assert result.formula.num_clauses == 2

    def test_polarity_blocks_subsumption(self):
        # (1) does not subsume (1' + 2); unit propagation strengthens
        # it to the root unit (2) instead.
        result = preprocess(build([[1], [-1, 2]]))
        assert sorted(list(c) for c in result.formula) == [[1], [2]]


class TestFullSimplify:
    def test_detects_unsat(self):
        assert preprocess(build([[1], [-1]])).unsat

    def test_fixpoint_chains(self):
        # Unit 1 propagates 2, which satisfies the last clause.
        formula = build([[1], [-1, 2], [2, 3]])
        result = preprocess(formula)
        assert result.units == [1, 2]
        assert sorted(list(c) for c in result.formula) == [[1], [2]]

    def test_equisatisfiable_sat(self):
        formula = build([[1, 2], [-1, 3], [2, -3], [1, -2, 3]])
        result = preprocess(formula)
        assert not result.unsat
        assert brute_force_status(formula) == "SAT"
        assert lifts(formula, result)

    def test_equisatisfiable_unsat(self):
        formula = build([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        result = preprocess(formula)
        survived = "UNSAT" if result.unsat else \
            brute_force_status(result.formula)
        assert survived == "UNSAT"

    def test_subsumption_flag(self):
        formula = build([[1, 2], [1, 2, 3], [-1, -2], [-3, 1]])
        result = preprocess(formula)
        assert result.formula.num_clauses <= 3
        assert lifts(formula, result)

    def test_preserves_names(self):
        formula = CNFFormula()
        formula.new_var("a")
        formula.add_clause([1, 1])
        result = preprocess(formula)
        assert result.formula.name_of(1) == "a"
