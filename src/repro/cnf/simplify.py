"""Exhaustive unit propagation on whole formulas (Davis-Putnam rule 1).

:func:`propagate_units` is the formula-level unit rule the paper's
figure reproductions (F3, F4) and the recursive-learning claim (C4)
build on.  ``SimplifyResult`` records the forced assignments, so a
model of the reduced formula extends back to one of the original.
The proof-logged preprocessing step (subsumption, equivalency
reasoning) is :func:`repro.solvers.inprocess.preprocess`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cnf.formula import CNFFormula
from repro.cnf.literals import variable


@dataclass
class SimplifyResult:
    """Outcome of a preprocessing pass.

    ``formula`` is ``None`` exactly when preprocessing already proved the
    input unsatisfiable (an empty clause was derived).
    """

    formula: Optional[CNFFormula]
    forced: Dict[int, bool] = field(default_factory=dict)
    removed_clauses: int = 0
    removed_literals: int = 0

    @property
    def unsat(self) -> bool:
        """True when preprocessing alone refuted the formula."""
        return self.formula is None


def propagate_units(formula: CNFFormula) -> SimplifyResult:
    """Exhaustive unit propagation (Davis-Putnam rule 1).

    Repeatedly assigns the literal of every unit clause, removing
    satisfied clauses and falsified literals, until fixpoint or conflict.
    """
    forced: Dict[int, bool] = {}
    clauses: List[Optional[List[int]]] = [list(c) for c in formula]
    removed_clauses = 0
    removed_literals = 0

    queue = [c[0] for c in clauses if len(c) == 1]
    while True:
        # Apply currently known forced values to every live clause.
        progress = False
        for lit in queue:
            var, val = variable(lit), lit > 0
            if var in forced:
                if forced[var] != val:
                    return SimplifyResult(None, forced,
                                          removed_clauses, removed_literals)
                continue
            forced[var] = val
            progress = True
        queue = []
        if not progress and forced:
            pass  # fall through to clause rewrite; loop exits when stable
        rewritten = False
        for idx, clause in enumerate(clauses):
            if clause is None:
                continue
            kept = []
            satisfied = False
            for lit in clause:
                value = forced.get(variable(lit))
                if value is None:
                    kept.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
                else:
                    removed_literals += 1
            if satisfied:
                clauses[idx] = None
                removed_clauses += 1
                rewritten = True
                continue
            if len(kept) != len(clause):
                clauses[idx] = kept
                rewritten = True
            if not kept:
                return SimplifyResult(None, forced,
                                      removed_clauses, removed_literals)
            if len(kept) == 1 and variable(kept[0]) not in forced:
                queue.append(kept[0])
        if not queue and not rewritten:
            break

    out = CNFFormula(formula.num_vars)
    for clause in clauses:
        if clause is not None:
            out.add_clause(clause)
    for var, name in formula.names.items():
        out.set_name(var, name)
    return SimplifyResult(out, forced, removed_clauses, removed_literals)
