#!/usr/bin/env python
"""Inside the solvers: the paper's algorithmic machinery, exposed.

Reproduces the paper's worked examples interactively:

* Figure 3 -- the conflict-analysis example on a forward-implication
  engine, deriving exactly the clause (x1' + w' + y3);
* Figure 4 -- recursive learning on CNF deriving x = 1 under
  {z = 1, u = 0} and recording the implicate (z' + u + x);
* Section 6 -- equivalency reasoning eliminating variables, and
  randomized restarts changing the search profile.

Run:  python examples/solver_internals.py
"""

from repro import CDCLSolver
from repro.circuits.library import figure3_circuit
from repro.circuits.tseitin import encode_circuit
from repro.cnf.generators import equivalence_ladder, random_ksat_at_ratio
from repro.experiments.workloads import figure4_condition, figure4_formula
from repro.solvers.forward_implication import (
    ForwardImplicationEngine,
    ImplicationConflict,
)
from repro.solvers.heuristics import VSIDSHeuristic
from repro.solvers.inprocess import preprocess
from repro.solvers.recursive_learning import recursive_learn
from repro.solvers.restarts import FixedRestarts


def figure3_demo():
    print("=== Paper Figure 3: conflict analysis ===")
    circuit = figure3_circuit()
    encoding = encode_circuit(circuit)
    names = {var: name for name, var in encoding.var_of.items()}
    engine = ForwardImplicationEngine(circuit, encoding)
    engine.assign("w", True)
    engine.assign("y3", False)
    engine.propagate()
    print("given w=1, y3=0; deciding x1=1 ...")
    engine.assign("x1", True)
    try:
        engine.propagate()
    except ImplicationConflict as conflict:
        print(f"conflict at node {conflict.node}")
        print("recorded conflict clause:",
              conflict.clause.to_str(names),
              "   <- the paper's (x1' + w' + y3)")
    print()


def figure4_demo():
    print("=== Paper Figure 4: recursive learning on CNF ===")
    formula = figure4_formula()
    print("formula:", formula.to_str())
    condition = figure4_condition()
    print("assignments: z=1, u=0")
    result = recursive_learn(formula, condition)
    names = formula.names
    for var, value in result.necessary.items():
        print(f"necessary assignment: {names[var]} = {int(value)}")
    for clause in result.implicates:
        print("recorded implicate:", clause.to_str(names),
              "   <- the paper's (z' + u + x)")
    print()


def equivalency_demo():
    print("=== Section 6: equivalency reasoning ===")
    formula = equivalence_ladder(pairs=6, seed=0)
    result = preprocess(formula)
    if result.unsat:
        print("preprocessing refuted the formula")
    else:
        print(f"{formula.num_vars} variables, {formula.num_clauses} "
              f"clauses -> eliminated {result.variables_eliminated} "
              f"variables, {result.formula.num_clauses} clauses left")
    print()


def restarts_demo():
    print("=== Section 6: randomized restarts on a SAT instance ===")
    formula = random_ksat_at_ratio(60, ratio=3.6, seed=5)
    plain = CDCLSolver(formula.copy(),
                       heuristic=VSIDSHeuristic(seed=1)).solve()
    restarted = CDCLSolver(
        formula.copy(),
        heuristic=VSIDSHeuristic(random_freq=0.2, seed=1),
        restart_policy=FixedRestarts(50)).solve()
    print(f"no restarts : {plain.status.value:14s} "
          f"decisions={plain.stats.decisions}")
    print(f"restarts    : {restarted.status.value:14s} "
          f"decisions={restarted.stats.decisions} "
          f"restarts={restarted.stats.restarts}")


if __name__ == "__main__":
    figure3_demo()
    figure4_demo()
    equivalency_demo()
    restarts_demo()
