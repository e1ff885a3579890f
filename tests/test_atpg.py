"""Unit tests for repro.apps.atpg (Section 3)."""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.atpg import (
    ATPGEngine,
    ATPGReport,
    FaultResult,
    IncrementalATPG,
    TestOutcome,
    solve_fault,
)
from repro.circuits.faults import (
    StuckAtFault,
    detects,
    full_fault_list,
    inject_fault,
)
from repro.circuits.gates import GateType
from repro.circuits.library import c17, half_adder, redundant_or_chain
from repro.circuits.generators import (
    alu,
    array_multiplier,
    random_circuit,
    ripple_carry_adder,
)
from repro.circuits.netlist import Circuit
from repro.circuits.tseitin import encode_fault_miter, encode_miter
from repro.solvers.cdcl import CDCLSolver

from conftest import live_clauses


def dead_logic_circuit() -> Circuit:
    """One observed buffer and one gate ``dead`` that feeds no output."""
    circuit = Circuit()
    circuit.add_input("a")
    circuit.add_gate("dead", GateType.NOT, ["a"])
    circuit.add_gate("y", GateType.BUFFER, ["a"])
    circuit.set_output("y")
    return circuit


class TestSolveFault:
    def test_detectable_fault_yields_vector(self):
        circuit = half_adder()
        result = solve_fault(circuit, StuckAtFault("carry", True))
        assert result.outcome is TestOutcome.DETECTED
        vector = {k: bool(v) for k, v in result.vector.items()}
        assert detects(circuit, StuckAtFault("carry", True), vector)

    def test_redundant_fault_proved(self):
        circuit = redundant_or_chain()
        result = solve_fault(circuit, StuckAtFault("ab", False))
        assert result.outcome is TestOutcome.REDUNDANT

    def test_input_fault(self):
        circuit = half_adder()
        fault = StuckAtFault("a", False)
        result = solve_fault(circuit, fault)
        assert result.outcome is TestOutcome.DETECTED
        vector = {k: bool(v) for k, v in result.vector.items()}
        assert detects(circuit, fault, vector)

    def test_circuit_method_partial_cube(self):
        circuit = c17()
        fault = StuckAtFault("G10", True)
        result = solve_fault(circuit, fault, method="circuit")
        assert result.outcome is TestOutcome.DETECTED
        # The cube (don't-cares filled arbitrarily) must detect.
        for fill in (False, True):
            vector = {k: (fill if v is None else bool(v))
                      for k, v in result.vector.items()}
            assert detects(circuit, fault, vector)

    def test_all_c17_faults_testable(self):
        """c17 is known fully testable: every stuck-at fault has a
        test."""
        circuit = c17()
        for fault in full_fault_list(circuit):
            result = solve_fault(circuit, fault)
            assert result.outcome is TestOutcome.DETECTED, fault


class TestATPGEngine:
    def test_full_coverage_on_c17(self):
        report = ATPGEngine(c17()).run()
        assert report.fault_coverage == 1.0
        assert report.count(TestOutcome.REDUNDANT) == 0

    def test_vectors_detect_their_faults(self):
        circuit = c17()
        engine = ATPGEngine(circuit, fault_dropping=False)
        report = engine.run()
        detected = [r for r in report.results
                    if r.outcome is TestOutcome.DETECTED]
        assert len(detected) == len(report.vectors)
        for result, vector in zip(detected, report.vectors):
            assert detects(circuit, result.fault, vector)

    def test_fault_dropping_reduces_sat_calls(self):
        circuit = c17()
        dropped = ATPGEngine(circuit, fault_dropping=True).run()
        assert dropped.count(TestOutcome.DETECTED_BY_SIMULATION) > 0
        assert len(dropped.vectors) < len(full_fault_list(circuit))
        assert dropped.fault_coverage == 1.0

    def test_collapse_shrinks_fault_list(self):
        engine = ATPGEngine(c17(), collapse=True)
        assert len(engine.fault_list()) < len(full_fault_list(c17()))

    def test_redundancy_reported(self):
        report = ATPGEngine(redundant_or_chain()).run()
        assert report.count(TestOutcome.REDUNDANT) >= 1
        assert report.fault_coverage == 1.0   # redundant counts covered

    def test_sequential_rejected(self):
        from repro.circuits.generators import binary_counter
        with pytest.raises(ValueError):
            ATPGEngine(binary_counter(2))

    def test_explicit_fault_subset(self):
        circuit = c17()
        faults = [StuckAtFault("G10", False), StuckAtFault("G10", True)]
        report = ATPGEngine(circuit).run(faults)
        assert len(report.results) == 2

    def test_report_helpers(self):
        report = ATPGReport(results=[
            FaultResult(StuckAtFault("x", True), TestOutcome.DETECTED),
            FaultResult(StuckAtFault("x", False), TestOutcome.ABORTED),
        ])
        assert report.count(TestOutcome.DETECTED) == 1
        assert report.fault_coverage == 0.5
        assert ATPGReport().fault_coverage == 1.0


class TestIncrementalATPG:
    def test_matches_oneshot_outcomes(self):
        circuit = c17()
        incremental = IncrementalATPG(circuit)
        for fault in full_fault_list(circuit):
            one_shot = solve_fault(circuit, fault)
            shared = incremental.solve_fault(fault)
            assert shared.outcome == one_shot.outcome, fault
            if shared.outcome is TestOutcome.DETECTED:
                vector = {k: bool(v) for k, v in shared.vector.items()}
                assert detects(circuit, fault, vector)

    def test_redundant_via_incremental(self):
        engine = IncrementalATPG(redundant_or_chain())
        result = engine.solve_fault(StuckAtFault("ab", False))
        assert result.outcome is TestOutcome.REDUNDANT

    def test_structurally_undetectable(self):
        # A gate feeding no output: fanout cone has no outputs.
        engine = IncrementalATPG(dead_logic_circuit())
        result = engine.solve_fault(StuckAtFault("dead", True))
        assert result.outcome is TestOutcome.REDUNDANT

    def test_run_over_list(self):
        report = IncrementalATPG(half_adder()).run()
        assert report.fault_coverage == 1.0

    def test_adder_coverage(self):
        circuit = ripple_carry_adder(2)
        report = IncrementalATPG(circuit).run()
        assert report.fault_coverage == 1.0
        assert report.count(TestOutcome.ABORTED) == 0

    def test_guarded_pooled_clause_stream(self):
        """Every variable, clause and retirement the engine hands its
        solver over ripple_carry_adder(3)'s full fault list, against a
        digest of the guarded, pooled stream: a fresh activation
        variable per fault, cone variables from the pool (new ones
        only when it runs out) in sorted cone-name order before any
        clause, ``-act`` on every cone, XOR and OR clause, then the
        activation variable retired."""
        circuit = ripple_carry_adder(3)
        engine = IncrementalATPG(circuit)
        solver = engine.solver
        new_var, add_clause = solver.new_var, solver.add_clause
        retire = solver.retire
        log = []

        def recording_new_var():
            var = new_var()
            log.append(f"v {var}")
            return var

        def recording_add_clause(literals):
            literals = list(literals)
            log.append("c " + " ".join(map(str, literals)))
            add_clause(literals)

        def recording_retire(lit):
            log.append(f"r {lit}")
            retire(lit)

        solver.new_var = recording_new_var
        solver.add_clause = recording_add_clause
        solver.retire = recording_retire
        for fault in full_fault_list(circuit):
            engine.solve_fault(fault)
        digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
        assert len(log) == 1604
        assert digest == ("17210c85121acea6e5c3450ba65d7744"
                          "36822ce05396afc664198a30823cd871")


def run_checking_retirement(circuit, faults, **kwargs):
    """Target *faults* through one :class:`IncrementalATPG`, checking
    the retirement invariants around every call: the solver holds at
    most the good circuit, the largest cone with its XORs and one
    activation variable per fault so far; every pooled variable is
    unassigned at the root when a fault may reuse it; and after each
    retirement no live clause mentions a retired activation
    variable."""
    engine = IncrementalATPG(circuit, **kwargs)
    solver = engine.solver
    good = engine.encoding.formula.num_vars
    widest = 0
    for fault in faults:
        reached = circuit.transitive_fanout([fault.node])
        widest = max(widest, len(reached) + sum(
            out in reached for out in circuit.outputs))
    retired = set()
    retire = solver.retire

    def checked_retire(act):
        retire(act)
        retired.add(act)
        for clause in live_clauses(solver):
            assert retired.isdisjoint(abs(lit) for lit in clause), clause

    solver.retire = checked_retire
    results = []
    for count, fault in enumerate(faults, 1):
        assert all(solver._solver.value_of(var) is None
                   for var in engine.pool), fault
        results.append(engine.solve_fault(fault))
        assert solver.num_vars <= good + widest + count, fault
    assert len(retired) == len(faults)
    return results


def assert_agrees_with_fresh_path(circuit):
    faults = full_fault_list(circuit)
    for fault, shared in zip(faults,
                             run_checking_retirement(circuit, faults)):
        assert shared.outcome is solve_fault(circuit, fault).outcome, \
            fault
        if shared.outcome is TestOutcome.DETECTED:
            assert detects(circuit, fault, shared.vector), fault


class TestConeRetirement:
    @pytest.mark.parametrize("factory", [
        lambda: ripple_carry_adder(3), lambda: alu(4)],
        ids=["rca3", "alu4"])
    def test_invariants_over_the_full_fault_list(self, factory):
        circuit = factory()
        faults = full_fault_list(circuit)
        results = run_checking_retirement(circuit, faults)
        assert all(r.outcome is not TestOutcome.ABORTED for r in results)

    @pytest.mark.parametrize("factory", [
        c17, redundant_or_chain, dead_logic_circuit, lambda: alu(3),
        lambda: array_multiplier(2)],
        ids=["c17", "redundant_or_chain", "dead_logic", "alu3", "mul2"])
    def test_agrees_with_fresh_path(self, factory):
        assert_agrees_with_fresh_path(factory())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1 << 20), st.integers(2, 5),
           st.integers(1, 14))
    def test_agrees_with_fresh_path_on_random_circuits(
            self, seed, num_inputs, num_gates):
        assert_agrees_with_fresh_path(
            random_circuit(num_inputs, num_gates, seed=seed))

    def test_aborted_fault_leaves_the_next_outcome_correct(self):
        circuit = alu(3)
        faults = full_fault_list(circuit)
        results = run_checking_retirement(circuit, faults,
                                          max_conflicts_per_fault=1)
        after_abort = 0
        for index, (fault, result) in enumerate(zip(faults, results)):
            if result.outcome is TestOutcome.ABORTED:
                continue
            assert result.outcome is solve_fault(circuit, fault).outcome
            if index and results[index - 1].outcome is \
                    TestOutcome.ABORTED:
                after_abort += 1
        assert after_abort > 0

    def test_fuzzer_cross_checks_incremental_atpg(self):
        from repro.verify.fuzz import incremental_atpg_failure

        for seed in range(5):
            name, detail = incremental_atpg_failure(random.Random(seed))
            assert detail is None, (name, detail)

    def test_fuzzer_catches_cones_left_live(self, monkeypatch):
        import repro.apps.atpg as atpg
        from repro.verify.fuzz import CDCLEngine, run_fuzz

        # Without the -act guard, retiring satisfies nothing: every
        # earlier cone stays live on variables later cones reuse.
        monkeypatch.setattr(atpg, "_guarded",
                            lambda act, literals: list(literals))
        report = run_fuzz(iterations=40, seed=4, shrink=False,
                          engines_factory=lambda rng: [CDCLEngine("cdcl")])
        assert report.atpg_rounds == 10
        assert any(failure.instance.startswith("incremental-atpg")
                   for failure in report.failures)


def full_miter_outcome(circuit: Circuit, fault: StuckAtFault
                       ) -> TestOutcome:
    """The oracle: the full miter of the circuit and its faulty copy."""
    formula = encode_miter(circuit, inject_fault(circuit, fault)).formula
    result = CDCLSolver(formula).solve()
    assert not result.is_unknown
    return TestOutcome.DETECTED if result.is_sat else TestOutcome.REDUNDANT


def assert_agrees_with_full_miter(circuit: Circuit) -> None:
    for fault in full_fault_list(circuit):
        result = solve_fault(circuit, fault)
        assert result.outcome is full_miter_outcome(circuit, fault), fault
        if result.outcome is TestOutcome.DETECTED:
            assert detects(circuit, fault, result.vector), fault


class TestConeRestrictedMiter:
    @pytest.mark.parametrize("factory", [
        c17, redundant_or_chain, dead_logic_circuit,
        lambda: ripple_carry_adder(3), lambda: alu(3),
        lambda: array_multiplier(2)],
        ids=["c17", "redundant_or_chain", "dead_logic", "rca3", "alu3",
             "mul2"])
    def test_agrees_with_full_miter(self, factory):
        assert_agrees_with_full_miter(factory())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1 << 20), st.integers(2, 5),
           st.integers(1, 14))
    def test_agrees_with_full_miter_on_random_circuits(
            self, seed, num_inputs, num_gates):
        assert_agrees_with_full_miter(
            random_circuit(num_inputs, num_gates, seed=seed))

    def test_only_the_cone_is_copied(self):
        # G22 is an output that feeds nothing: the faulty copy is one
        # constant variable, plus one XOR.
        circuit = c17()
        shared = circuit.transitive_fanin(["G22"]) | set(circuit.inputs)
        encoding = encode_fault_miter(circuit, "G22", True)
        assert encoding.formula.num_vars == len(shared) + 2
        assert set(encoding.var_of) == shared

    def test_unobservable_fault_is_an_empty_clause(self):
        encoding = encode_fault_miter(dead_logic_circuit(), "dead", True)
        assert [list(c) for c in encoding.formula.clauses] == [[]]

    def test_unknown_fault_site_rejected(self):
        with pytest.raises(ValueError):
            solve_fault(c17(), StuckAtFault("nope", True))

    def test_unobservable_fault_certified(self):
        result = solve_fault(dead_logic_circuit(),
                             StuckAtFault("dead", True), certify=True)
        assert result.outcome is TestOutcome.REDUNDANT
        assert result.certificate is not None
        assert result.certificate.kind == "proof"
        assert result.certificate.valid

    def test_unobservable_fault_through_portfolio(self):
        result = solve_fault(dead_logic_circuit(),
                             StuckAtFault("dead", True),
                             method="portfolio")
        assert result.outcome is TestOutcome.REDUNDANT

    def test_encoding_independent_of_hash_seed(self):
        import repro

        script = (
            "import hashlib\n"
            "from repro.circuits.faults import full_fault_list\n"
            "from repro.circuits.generators import alu\n"
            "from repro.circuits.tseitin import encode_fault_miter\n"
            "circuit = alu(3)\n"
            "digest = hashlib.sha256()\n"
            "for fault in full_fault_list(circuit):\n"
            "    formula = encode_fault_miter(circuit, fault.node,\n"
            "                                 fault.value).formula\n"
            "    for clause in formula.clauses:\n"
            "        digest.update(repr(list(clause)).encode())\n"
            "print(digest.hexdigest())\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        digests = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src,
                       PYTHONHASHSEED=hash_seed)
            digests.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert len(digests) == 1

    def test_fuzzer_cross_checks_fault_miters(self):
        from repro.solvers.cdcl import solve_cdcl
        from repro.verify.fuzz import random_instance

        rng = random.Random(3)
        fault_miters = 0
        while fault_miters < 5:
            name, formula, expected = random_instance(rng)
            if name.startswith("fault-miter"):
                fault_miters += 1
                assert solve_cdcl(formula).status is expected, name

    def test_fuzzer_catches_a_wrong_fault_miter(self, monkeypatch):
        import repro.circuits.tseitin as tseitin
        from repro.verify.fuzz import CDCLEngine, run_fuzz

        right = tseitin.encode_fault_miter

        def empty_or(circuit, site, value):
            # As if the OR were built from an already consumed
            # iterator: every fault comes out redundant.
            encoding = right(circuit, site, value)
            encoding.formula.clauses.pop()
            encoding.formula.add_clause([])
            return encoding

        monkeypatch.setattr(tseitin, "encode_fault_miter", empty_or)
        report = run_fuzz(iterations=40, seed=4, shrink=False,
                          engines_factory=lambda rng: [CDCLEngine("cdcl")])
        assert any(failure.instance.startswith("fault-miter")
                   for failure in report.failures)


class NaiveDroppingEngine(ATPGEngine):
    """Fault dropping that re-simulates the fault-free circuit for
    every remaining fault."""

    def _detects(self, vector, good, fault):
        return detects(self.circuit, fault, vector)


class TestFaultDropping:
    @pytest.mark.parametrize("factory", [c17,
                                         lambda: ripple_carry_adder(4)],
                             ids=["c17", "rca4"])
    def test_one_good_simulation_per_vector(self, factory):
        fast = ATPGEngine(factory()).run()
        naive = NaiveDroppingEngine(factory()).run()
        assert ([(r.fault, r.outcome) for r in fast.results]
                == [(r.fault, r.outcome) for r in naive.results])
        assert fast.vectors == naive.vectors
        dropped = {r.fault for r in fast.results
                   if r.outcome is TestOutcome.DETECTED_BY_SIMULATION}
        assert dropped == {
            r.fault for r in naive.results
            if r.outcome is TestOutcome.DETECTED_BY_SIMULATION}
        assert dropped
