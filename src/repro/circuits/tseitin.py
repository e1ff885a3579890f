"""Circuit-to-CNF encoding (paper Section 2, Table 1).

"The CNF formula of a combinational circuit is the conjunction of the
CNF formulas for each gate output" -- this module implements exactly
that construction, plus the objective/property constraints of Figure 1
("With property z = 0").

The encoding is the satisfiability-equivalent (Tseitin-style) one: each
circuit node gets a CNF variable, each gate contributes its Table 1
clauses, and any property is a set of unit (or richer) constraints over
node variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.circuits.gates import GateType, gate_cnf_clauses
from repro.circuits.netlist import Circuit


@dataclass
class CircuitEncoding:
    """The result of encoding a circuit: formula plus variable maps.

    ``var_of`` maps node name to CNF variable; ``node_of`` is the
    inverse.  Both survive formula growth (callers may add property
    clauses to ``formula`` afterwards).
    """

    circuit: Circuit
    formula: CNFFormula
    var_of: Dict[str, int] = field(default_factory=dict)
    node_of: Dict[int, str] = field(default_factory=dict)

    def literal(self, name: str, value: bool = True) -> int:
        """The literal asserting node *name* carries *value*."""
        var = self.var_of[name]
        return var if value else -var

    def assignment_for(self, node_values: Dict[str, bool]) -> Assignment:
        """Translate a node-value map into a CNF :class:`Assignment`."""
        out = Assignment()
        for name, value in node_values.items():
            out.assign(self.var_of[name], value)
        return out

    def input_vector(self, assignment: Assignment,
                     default: Optional[bool] = None
                     ) -> Dict[str, Optional[bool]]:
        """Extract primary-input values from a CNF assignment.

        Unassigned inputs map to *default* (``None`` keeps them as
        don't-cares, which is what the overspecification experiment C5
        measures).
        """
        vector: Dict[str, Optional[bool]] = {}
        for name in self.circuit.inputs:
            value = assignment.value_of(self.var_of[name])
            vector[name] = default if value is None else value
        return vector

    def node_values(self, assignment: Assignment) -> Dict[str, Optional[bool]]:
        """Full node-value map implied by a CNF assignment."""
        return {name: assignment.value_of(var)
                for name, var in self.var_of.items()}


def encode_circuit(circuit: Circuit,
                   formula: Optional[CNFFormula] = None,
                   var_prefix: str = "",
                   state_as_inputs: bool = True) -> CircuitEncoding:
    """Encode the combinational part of *circuit* into CNF.

    Every node receives a fresh variable in *formula* (a new formula is
    created when none is given -- passing one supports composing several
    circuits, e.g. miters, into a single variable space).  DFF outputs
    are treated as free pseudo-inputs when *state_as_inputs* is true
    (the single-frame view used by combinational applications); BMC
    instead unrolls time frames itself.
    """
    encoding = CircuitEncoding(
        circuit, formula if formula is not None else CNFFormula())
    _encode_nodes(encoding, circuit.topological_order(), var_prefix,
                  state_as_inputs)
    return encoding


def _encode_nodes(encoding: CircuitEncoding, names: List[str],
                  var_prefix: str = "",
                  state_as_inputs: bool = True) -> None:
    """Give each node of *names* (a topological order) a variable,
    then add the gate clauses of each."""
    circuit, formula = encoding.circuit, encoding.formula
    for name in names:
        var = formula.new_var(var_prefix + name)
        encoding.var_of[name] = var
        encoding.node_of[var] = name

    for name in names:
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            continue
        if node.gate_type is GateType.DFF:
            if not state_as_inputs:
                raise ValueError(
                    "sequential circuit: unroll with repro.apps.bmc or "
                    "pass state_as_inputs=True for the single-frame view")
            continue
        output_lit = encoding.var_of[name]
        input_lits = [encoding.var_of[f] for f in node.fanins]
        for clause in gate_cnf_clauses(node.gate_type, output_lit,
                                       input_lits):
            formula.add_clause(clause)


def add_objective(encoding: CircuitEncoding,
                  objectives: Dict[str, bool]) -> None:
    """Constrain node values with unit clauses (Figure 1's property).

    ``add_objective(enc, {"z": False})`` reproduces the paper's
    "with property z = 0" construction.
    """
    for name, value in objectives.items():
        encoding.formula.add_clause([encoding.literal(name, value)])


def encode_with_objective(circuit: Circuit,
                          objectives: Dict[str, bool]) -> CircuitEncoding:
    """Convenience: encode the circuit and constrain *objectives*."""
    encoding = encode_circuit(circuit)
    add_objective(encoding, objectives)
    return encoding


def build_miter(circuit_a: Circuit, circuit_b: Circuit,
                name: str = "miter") -> Tuple[Circuit, List[str]]:
    """Compose two circuits into a miter (Section 3, equivalence
    checking).

    Both circuits must have identical primary-input and primary-output
    name lists.  The miter shares the inputs, XORs each output pair and
    ORs the XORs into a single output ``miter_out``; the circuits differ
    on some vector iff ``miter_out`` can be set to 1.

    Returns the miter circuit and the list of per-output XOR node names
    (useful for output-by-output equivalence queries).
    """
    if list(circuit_a.inputs) != list(circuit_b.inputs):
        raise ValueError("miter requires identical input name lists")
    if len(circuit_a.outputs) != len(circuit_b.outputs):
        raise ValueError("miter requires equally many outputs")
    if circuit_a.is_sequential() or circuit_b.is_sequential():
        raise ValueError("miter construction is combinational only")

    renamed_a = circuit_a.renamed("a_")
    renamed_b = circuit_b.renamed("b_")
    miter = Circuit(name)
    for input_name in circuit_a.inputs:
        miter.add_input(input_name)

    def splice(renamed: Circuit, prefix: str) -> None:
        for node in renamed:
            if node.gate_type is GateType.INPUT:
                # Shared inputs: replace the renamed PI with a buffer of
                # the common input so downstream names stay consistent.
                original = node.name[len(prefix):]
                miter.add_gate(node.name, GateType.BUFFER, [original])
            else:
                miter.add_gate(node.name, node.gate_type, node.fanins)

    splice(renamed_a, "a_")
    splice(renamed_b, "b_")

    xor_names = []
    for out_a, out_b in zip(renamed_a.outputs, renamed_b.outputs):
        xor_name = f"diff_{out_a[2:]}"
        miter.add_gate(xor_name, GateType.XOR, [out_a, out_b])
        xor_names.append(xor_name)
    if len(xor_names) == 1:
        miter.add_gate("miter_out", GateType.BUFFER, xor_names)
    else:
        miter.add_gate("miter_out", GateType.OR, xor_names)
    miter.set_output("miter_out")
    return miter, xor_names


def encode_miter(circuit_a: Circuit,
                 circuit_b: Circuit) -> CircuitEncoding:
    """Encode the miter of two circuits with its output forced to 1.

    The resulting formula is satisfiable iff the circuits are NOT
    equivalent; a model gives a distinguishing input vector.
    """
    miter, _ = build_miter(circuit_a, circuit_b)
    return encode_with_objective(miter, {"miter_out": True})


def encode_fault_cone(circuit: Circuit, site: str, value: bool,
                      var_of: Dict[str, int], new_var: Callable[[], int],
                      add_clause: Callable[[List[int]], object]
                      ) -> List[int]:
    """Encode the faulty copy of *site*'s fanout cone, *site* stuck at
    *value*, reading fanins outside the cone from the fault-free
    variables *var_of*.  Returns one XOR variable (good != faulty) per
    output the fault reaches, in output order; a fault that reaches no
    output encodes nothing.  Cone variables are allocated in sorted
    name order before the first clause."""
    reached = circuit.transitive_fanout([site])
    outputs = [out for out in circuit.outputs if out in reached]
    if not outputs:
        return []
    cone = sorted(reached)
    faulty = {name: new_var() for name in cone}
    add_clause([faulty[site] if value else -faulty[site]])
    for name in cone:
        node = circuit.node(name)
        if name != site:
            inputs = [faulty.get(f) or var_of[f] for f in node.fanins]
            for clause in gate_cnf_clauses(node.gate_type, faulty[name],
                                           inputs):
                add_clause(clause)
    xors = []
    for out in outputs:
        xors.append(new_var())
        for clause in gate_cnf_clauses(GateType.XOR, xors[-1],
                                       [var_of[out], faulty[out]]):
            add_clause(clause)
    return xors


def encode_fault_miter(circuit: Circuit, site: str,
                       value: bool) -> CircuitEncoding:
    """Encode the ATPG miter of *site* stuck at *value* (Larrabee
    [20]): satisfiable iff some input vector detects the fault.

    Unlike :func:`encode_miter` over a faulty copy, only the fault's
    fanout cone is duplicated (:func:`encode_fault_cone`).  Every
    primary input and the fault-free transitive fanin of the cone
    (which holds that of every output the fault reaches) are encoded
    once, in topological order, and the OR of the output XORs is
    asserted -- an empty clause when no output observes the fault.
    """
    if site not in circuit:
        raise ValueError(f"unknown fault site {site!r}")
    reached = circuit.transitive_fanout([site])
    shared = (circuit.transitive_fanin(reached)
              if any(out in reached for out in circuit.outputs) else ())
    encoding = CircuitEncoding(circuit, CNFFormula())
    _encode_nodes(encoding, [name for name in circuit.topological_order()
                             if name in shared
                             or circuit.node(name).is_input])
    formula = encoding.formula
    formula.add_clause(encode_fault_cone(
        circuit, site, value, encoding.var_of, formula.new_var,
        formula.add_clause))
    return encoding


def cone_encoding(circuit: Circuit, outputs: Iterable[str]
                  ) -> CircuitEncoding:
    """Encode only the cone of influence of *outputs*.

    EDA flows solve many instances per circuit (Section 5 drawback 2);
    restricting each instance to the relevant cone keeps formulas small.
    """
    cone = circuit.transitive_fanin(outputs)
    sub = Circuit(f"{circuit.name}_cone")
    for name in circuit.topological_order():
        if name not in cone:
            continue
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            sub.add_input(name)
        elif node.gate_type is GateType.DFF:
            sub.add_dff(name, node.fanins[0] if node.fanins else None)
        else:
            sub.add_gate(name, node.gate_type, node.fanins)
    for name in outputs:
        sub.set_output(name)
    return encode_circuit(sub)
