"""Property-based tests (hypothesis) on core invariants.

These pin down the library-wide contracts:

* every solver agrees with brute force on random formulas;
* SAT models actually satisfy the formula;
* circuit CNF encodings agree with circuit simulation;
* preprocessing preserves satisfiability and models lift back;
* DIMACS round-trips; clause resolution is sound.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import brute_force_status

from repro.cnf.clause import Clause
from repro.cnf.dimacs import parse_dimacs, write_dimacs
from repro.cnf.formula import CNFFormula
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import simulate
from repro.circuits.tseitin import encode_circuit
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import solve_dpll
from repro.solvers.inprocess import preprocess
from repro.solvers.recursive_learning import recursive_learn

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def formulas(draw, max_vars=6, max_clauses=14, max_len=4):
    """Random small CNF formulas (possibly with units/duplicates)."""
    num_vars = draw(st.integers(1, max_vars))
    num_clauses = draw(st.integers(0, max_clauses))
    formula = CNFFormula(num_vars)
    for _ in range(num_clauses):
        length = draw(st.integers(1, max_len))
        lits = draw(st.lists(
            st.integers(1, num_vars).flatmap(
                lambda v: st.sampled_from([v, -v])),
            min_size=length, max_size=length))
        formula.add_clause(lits)
    return formula


@st.composite
def circuits(draw, max_inputs=4, max_gates=8):
    """Random small combinational circuits."""
    num_inputs = draw(st.integers(1, max_inputs))
    num_gates = draw(st.integers(1, max_gates))
    circuit = Circuit("prop")
    pool = [circuit.add_input(f"i{k}") for k in range(num_inputs)]
    gate_types = [GateType.AND, GateType.OR, GateType.NAND,
                  GateType.NOR, GateType.XOR, GateType.NOT]
    for index in range(num_gates):
        gate_type = draw(st.sampled_from(gate_types))
        if gate_type is GateType.NOT:
            fanins = [draw(st.sampled_from(pool))]
        else:
            size = draw(st.integers(min(2, len(pool)),
                                    min(3, len(pool))))
            fanins = draw(st.lists(st.sampled_from(pool), min_size=size,
                                   max_size=size, unique=True))
        pool.append(circuit.add_gate(f"g{index}", gate_type, fanins))
    circuit.set_output(pool[-1])
    return circuit


class TestSolverSoundness:
    @SETTINGS
    @given(formulas())
    def test_cdcl_agrees_with_brute_force(self, formula):
        expected = brute_force_status(formula)
        result = CDCLSolver(formula).solve()
        assert result.is_sat == (expected == "SAT")
        if result.is_sat:
            total = result.assignment.extend_unassigned(
                formula.variables())
            assert formula.evaluate(total) is True

    @SETTINGS
    @given(formulas())
    def test_dpll_agrees_with_cdcl(self, formula):
        assert solve_dpll(formula).is_sat == \
            CDCLSolver(formula).solve().is_sat

    @SETTINGS
    @given(formulas())
    def test_learned_clauses_are_implicates(self, formula):
        solver = CDCLSolver(formula)
        solver.solve()
        for clause in solver.learned_clauses()[:5]:
            probe = formula.copy()
            for lit in clause:
                probe.add_clause([-lit])
            assert brute_force_status(probe) == "UNSAT"


class TestPreprocessing:
    @SETTINGS
    @given(formulas())
    def test_preserves_satisfiability(self, formula):
        expected = brute_force_status(formula)
        result = preprocess(formula)
        if result.unsat:
            assert expected == "UNSAT"
        else:
            assert brute_force_status(result.formula) == expected

    @SETTINGS
    @given(formulas())
    def test_models_lift_back(self, formula):
        result = preprocess(formula)
        if result.unsat:
            return
        solved = CDCLSolver(result.formula).solve()
        if not solved.is_sat:
            return
        lifted = result.lift_model(solved.assignment)
        total = lifted.extend_unassigned(formula.variables())
        assert formula.evaluate(total) is True

    @SETTINGS
    @given(formulas())
    def test_recursive_learning_sound(self, formula):
        result = recursive_learn(formula, {})
        expected = brute_force_status(formula)
        if result.conflict:
            assert expected == "UNSAT"
            return
        if expected == "SAT":
            probe = formula.copy()
            for var, value in result.necessary.items():
                probe.add_clause([var if value else -var])
            assert brute_force_status(probe) == "SAT"


class TestCNFDataStructures:
    @SETTINGS
    @given(formulas())
    def test_dimacs_roundtrip(self, formula):
        assert parse_dimacs(write_dimacs(formula)) == formula

    @SETTINGS
    @given(st.lists(st.integers(-6, 6).filter(bool), min_size=1,
                    max_size=5),
           st.lists(st.integers(-6, 6).filter(bool), min_size=1,
                    max_size=5))
    def test_resolution_soundness(self, left_lits, right_lits):
        """Any model of both parents satisfies the resolvent."""
        left, right = Clause(left_lits), Clause(right_lits)
        pivots = [v for v in left.variables()
                  if left.contains(v) and right.contains(-v)
                  or left.contains(-v) and right.contains(v)]
        if not pivots:
            return
        resolvent = left.resolve(right, pivots[0])
        variables = sorted(left.variables() | right.variables())
        for bits in itertools.product([False, True],
                                      repeat=len(variables)):
            model = dict(zip(variables, bits))
            if left.evaluate(model) and right.evaluate(model):
                assert resolvent.evaluate(model) is True


class TestCircuitEncoding:
    @SETTINGS
    @given(circuits(), st.integers(0, 2 ** 16 - 1))
    def test_encoding_agrees_with_simulation(self, circuit, bits):
        """Constraining the CNF to an input vector forces exactly the
        simulated node values."""
        vector = {name: bool((bits >> index) & 1)
                  for index, name in enumerate(circuit.inputs)}
        expected = simulate(circuit, vector)
        encoding = encode_circuit(circuit)
        formula = encoding.formula.copy()
        for name, value in vector.items():
            formula.add_clause([encoding.literal(name, value)])
        result = CDCLSolver(formula).solve()
        assert result.is_sat
        total = result.assignment.extend_unassigned(formula.variables())
        for name, var in encoding.var_of.items():
            assert total.value_of(var) == expected[name], name

    @SETTINGS
    @given(circuits())
    def test_objective_solutions_replay(self, circuit):
        """Any SAT objective query yields a vector that simulation
        confirms."""
        from repro.solvers.circuit_sat import solve_circuit
        output = circuit.outputs[0]
        for value in (False, True):
            result = solve_circuit(circuit, {output: value})
            if not result.is_sat:
                continue
            from repro.circuits.simulate import simulate3
            partial = {k: v for k, v in result.input_vector.items()
                       if v is not None}
            assert simulate3(circuit, partial)[output] is value
