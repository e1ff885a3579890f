"""Canonical formula form (repro.cnf.canonical).

The canonical key is the service-cache key, so these tests pin
exactly the invariances the cache relies on: clause order, literal
order, duplicate literals and variable-numbering gaps must not change
the key; genuinely different formulas must not collide.
"""

import random

import pytest

from repro.cnf import canonical_key, normal_form, renumber
from repro.cnf.canonical import clauses_key, clauses_normal_form
from repro.cnf.formula import CNFFormula


def _formula(clauses, num_vars):
    return CNFFormula(num_vars=num_vars,
                      clauses=[tuple(c) for c in clauses])


class TestRenumber:
    def test_compacts_gaps_preserving_order(self):
        formula = _formula([(3, -7), (7, 9)], num_vars=9)
        renamed, mapping = renumber(formula)
        assert mapping == {3: 1, 7: 2, 9: 3}
        assert renamed.num_vars == 3
        assert [tuple(c) for c in renamed.clauses] == [(1, -2), (2, 3)]

    def test_dense_formula_maps_identity(self):
        formula = _formula([(1, -2), (2,)], num_vars=2)
        renamed, mapping = renumber(formula)
        assert mapping == {1: 1, 2: 2}
        assert [tuple(c) for c in renamed.clauses] == \
            [tuple(c) for c in formula.clauses]

    def test_unused_trailing_variables_dropped(self):
        formula = _formula([(1,)], num_vars=50)
        renamed, _ = renumber(formula)
        assert renamed.num_vars == 1

    def test_preserves_satisfiability(self):
        rng = random.Random(7)
        from repro.cnf.generators import random_ksat
        from repro.solvers.dpll import solve_dpll
        for trial in range(10):
            base = random_ksat(8, rng.randint(10, 30), k=3,
                               seed=rng.randrange(1 << 20))
            # Punch gaps into the variable space.
            spread = CNFFormula(
                num_vars=base.num_vars * 3,
                clauses=[tuple(lit * 3 for lit in clause)
                         for clause in base.clauses])
            renamed, _ = renumber(spread)
            assert solve_dpll(renamed).status is \
                solve_dpll(base).status


class TestCanonicalKey:
    def test_clause_order_invariant(self):
        a = _formula([(1, 2), (-1, 3), (2, -3)], 3)
        b = _formula([(2, -3), (1, 2), (-1, 3)], 3)
        assert canonical_key(a) == canonical_key(b)

    def test_literal_order_invariant(self):
        a = _formula([(1, 2, -3)], 3)
        b = _formula([(-3, 2, 1)], 3)
        assert canonical_key(a) == canonical_key(b)

    def test_duplicate_literals_invariant(self):
        a = _formula([(1, 2)], 2)
        b = _formula([(1, 2, 2, 1)], 2)
        assert canonical_key(a) == canonical_key(b)

    def test_variable_gap_invariant(self):
        a = _formula([(1, -2)], 2)
        b = _formula([(5, -9)], 9)
        assert canonical_key(a) == canonical_key(b)

    def test_polarity_matters(self):
        assert canonical_key(_formula([(1, 2)], 2)) != \
            canonical_key(_formula([(1, -2)], 2))

    def test_clause_multiplicity_matters(self):
        assert canonical_key(_formula([(1, 2)], 2)) != \
            canonical_key(_formula([(1, 2), (1, 2)], 2))

    def test_different_formulas_differ(self):
        seen = set()
        from repro.cnf.generators import random_ksat
        for seed in range(25):
            formula = random_ksat(10, 30, k=3, seed=seed)
            seen.add(canonical_key(formula))
        assert len(seen) == 25

    def test_clauses_key_matches_formula_key(self):
        clauses = [(1, -2), (2, 3)]
        assert clauses_key(clauses, 3) == \
            canonical_key(_formula(clauses, 3))

    def test_normal_form_sorted(self):
        formula = _formula([(9, -5), (5,)], 9)
        assert normal_form(formula) == [(-1, 2), (1,)]


def _reference_normal_form(formula):
    """The normal form as it was first specified, built through
    CNFFormula and Clause objects: compact-renumber, then sort each
    clause's literals (by variable, negative first) and the clauses.
    The int-tuple implementation must agree with it exactly."""
    renamed, _ = renumber(formula)
    return sorted(tuple(sorted(set(clause), key=lambda l: (abs(l), l)))
                  for clause in renamed.clauses)


class TestNormalFormOnRawClauses:
    #: Gaps, a duplicate literal, a tautology and an empty clause.
    PINNED = [(9, -5, 9), (5,), (-2, 7, 2), (), (7, -9, 5)]

    def test_pinned_digest(self):
        # Any change to the normal form or its byte layout must fail
        # here until _KEY_VERSION is bumped.
        assert clauses_key(self.PINNED, 12) == (
            "aea86bfe8c6abef4dee8779824a350569690c4b0e5df0fe93ed67b77"
            "acad7a95")
        assert clauses_key([], 0) == (
            "300ac9a54d53f3a1a86de98473439d8175d900403476888961324261"
            "986df6f8")

    def test_pinned_normal_form(self):
        assert clauses_normal_form(self.PINNED) == \
            [(), (-2, 4), (-1, 1, 3), (2,), (2, 3, -4)]

    def test_matches_the_reference_on_random_formulas(self):
        rng = random.Random(2024)
        for trial in range(300):
            num_vars = rng.randint(1, 30)
            clauses = [tuple(rng.choice((-1, 1))
                             * rng.randint(1, num_vars)
                             * rng.choice((1, 1, 4))   # gaps
                             for _ in range(rng.randint(0, 6)))
                       for _ in range(rng.randint(0, 25))]
            formula = _formula(clauses, 4 * num_vars)
            expected = _reference_normal_form(formula)
            assert clauses_normal_form(clauses) == expected, clauses
            assert normal_form(formula) == expected
            assert clauses_key(clauses, formula.num_vars) == \
                canonical_key(formula)


class TestFuzzerUsesRenumber:
    def test_shrinker_compacts_variables(self):
        from repro.verify.fuzz import shrink_formula
        formula = _formula([(4, 8), (-4, 8), (4, -8), (-4, -8), (2, 6)],
                           num_vars=9)

        def unsat_core_present(candidate):
            # Fires while the 4/8 "xor-ish" block survives.
            lits = {tuple(sorted(c, key=abs)) for c in candidate.clauses}
            return sum(1 for c in lits if len(c) == 2
                       and {abs(l) for l in c} != {2, 6}) >= 4

        shrunk = shrink_formula(formula, unsat_core_present)
        assert shrunk.num_vars == 2
        assert {abs(l) for c in shrunk.clauses for l in c} == {1, 2}
