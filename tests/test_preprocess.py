"""Unit tests for the ``Preprocess()`` step (equivalency reasoning, §6):
one proof-logged level-0 round of repro.solvers.inprocess."""

from conftest import brute_force_status

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import equivalence_ladder, parity_chain
from repro.solvers.inprocess import preprocess


def ladder(pairs=2, payload=None):
    formula = CNFFormula(2 * pairs)
    for index in range(1, pairs + 1):
        a, b = 2 * index - 1, 2 * index
        formula.add_clause([a, -b])
        formula.add_clause([-a, b])
    for clause in payload or []:
        formula.add_clause(clause)
    return formula


def lifted_value(result, var, assignment):
    """The value *var* gets when *assignment* (a model of the reduced
    formula) is lifted back to the original variables."""
    return result.lift_model(Assignment(assignment)).value_of(var)


class TestFindEquivalences:
    def test_same_value_pair(self):
        # (a + b')(a' + b) => a == b
        formula = CNFFormula(2)
        formula.add_clause([1, -2])
        formula.add_clause([-1, 2])
        result = preprocess(formula)
        assert result.variables_eliminated == 1
        assert lifted_value(result, 2, {1: True}) is True
        assert lifted_value(result, 2, {1: False}) is False

    def test_opposite_value_pair(self):
        # (a + b)(a' + b') => a == b'
        formula = CNFFormula(2)
        formula.add_clause([1, 2])
        formula.add_clause([-1, -2])
        result = preprocess(formula)
        assert result.variables_eliminated == 1
        assert lifted_value(result, 2, {1: True}) is False

    def test_half_pair_not_reported(self):
        formula = CNFFormula(2)
        formula.add_clause([1, -2])
        assert preprocess(formula).variables_eliminated == 0

    def test_longer_clauses_ignored(self):
        formula = CNFFormula(3)
        formula.add_clause([1, -2, 3])
        formula.add_clause([-1, 2, 3])
        assert preprocess(formula).variables_eliminated == 0


class TestEquivalencyReduce:
    def test_eliminates_variable(self):
        formula = ladder(1, payload=[[2, 3]])   # b == a; payload (b+c)
        result = preprocess(formula)
        assert result.variables_eliminated == 1
        # payload rewritten onto the representative
        assert [list(c) for c in result.formula] == [[1, 3]]

    def test_opposite_polarity_substitution(self):
        formula = CNFFormula(3)
        formula.add_clause([1, 2])
        formula.add_clause([-1, -2])      # b == a'
        formula.add_clause([2, 3])
        result = preprocess(formula)
        assert [list(c) for c in result.formula] == [[-1, 3]]
        assert lifted_value(result, 2, {1: True, 3: True}) is False

    def test_contradictory_equivalences(self):
        # a == b, a == b', both pairs present: x == x' -> UNSAT.
        formula = CNFFormula(2)
        formula.add_clause([1, -2])
        formula.add_clause([-1, 2])
        formula.add_clause([1, 2])
        formula.add_clause([-1, -2])
        result = preprocess(formula)
        assert result.formula is None

    def test_chained_classes(self):
        # a==b, b==c: both collapse onto a.
        formula = CNFFormula(3)
        formula.add_clause([1, -2])
        formula.add_clause([-1, 2])
        formula.add_clause([2, -3])
        formula.add_clause([-2, 3])
        result = preprocess(formula)
        assert result.variables_eliminated == 2
        assert lifted_value(result, 2, {1: True}) is True
        assert lifted_value(result, 3, {1: True}) is True

    def test_lift_model(self):
        formula = ladder(2, payload=[[1, 3]])
        result = preprocess(formula)
        reduced_model = Assignment({1: True, 3: False})
        lifted = result.lift_model(reduced_model)
        assert lifted.value_of(2) is True     # == var1
        assert lifted.value_of(4) is False    # == var3
        assert formula.evaluate(
            lifted.extend_unassigned(range(1, 5))) is True

    def test_preserves_satisfiability(self):
        for pairs in (2, 3):
            formula = equivalence_ladder(pairs, seed=pairs)
            expected = brute_force_status(formula)
            result = preprocess(formula)
            if result.formula is None:
                assert expected == "UNSAT"
            else:
                assert brute_force_status(result.formula) == expected

    def test_parity_chain_shrinks(self):
        """UNSAT parity chains are equivalence-rich (Section 6's
        target structure): reduction must eliminate variables."""
        formula = parity_chain(8)
        result = preprocess(formula)
        if result.formula is not None:
            assert result.variables_eliminated > 0
        # contradiction may even be found outright -- also acceptable


class TestPreprocessPipeline:
    def test_detects_unsat_by_units(self):
        formula = CNFFormula(1)
        formula.add_clause([1])
        formula.add_clause([-1])
        assert preprocess(formula).unsat

    def test_detects_unsat_by_equivalences(self):
        formula = parity_chain(6)
        result = preprocess(formula)
        survived = "UNSAT" if result.unsat else \
            brute_force_status(result.formula)
        assert survived == "UNSAT"

    def test_lift_model_through_pipeline(self):
        formula = equivalence_ladder(3, seed=1)
        expected = brute_force_status(formula)
        result = preprocess(formula)
        if result.unsat:
            assert expected == "UNSAT"
            return
        from repro.solvers.cdcl import solve_cdcl
        solved = solve_cdcl(result.formula)
        assert solved.is_sat == (expected == "SAT")
        if solved.is_sat:
            lifted = result.lift_model(solved.assignment)
            total = lifted.extend_unassigned(
                range(1, formula.num_vars + 1))
            assert formula.evaluate(total) is True

    def test_recursive_learning_stage(self):
        """Recursive learning composes with the pre-pass: the units it
        learns become root units of the reduced formula."""
        from repro.solvers.recursive_learning import (
            preprocess_recursive_learning)

        formula = CNFFormula(3)
        formula.add_clause([1, 2])
        formula.add_clause([-1, 3])
        formula.add_clause([-2, 3])
        strengthened, forced = preprocess_recursive_learning(formula, 1)
        assert forced.get(3) is True
        assert 3 in preprocess(strengthened).units
