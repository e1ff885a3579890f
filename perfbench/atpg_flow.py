"""``atpg-flow``: stuck-at test generation, hundreds of small SAT calls.

Circuits, both from ``repro.circuits.generators``:

* ``alu(6)`` -- 198 stem faults over a datapath with wide
  reconvergent fanout: the bulk of the work, and the circuit on which
  the incremental path's per-call growth shows.
* ``array_multiplier(3)`` -- 102 faults including redundant ones, so
  both outcomes (test found, fault proved redundant) are exercised.

Each fault is targeted twice, in an order the workload seed shuffles:

* fresh path -- the public ``solve_fault`` per fault, exactly what
  ``ATPGEngine(fault_dropping=False)`` calls: inject the fault, encode
  the miter, build a ``CDCLSolver``, solve;
* incremental path -- one ``IncrementalATPG`` per circuit, whose
  persistent solver keeps its learned clauses across faults (paper
  section 6).

The two paths must agree fault by fault, every test vector is checked
by the benchmark's own gate-level simulator, and the detected and
redundant counts are pinned (a fault's outcome does not depend on the
order, so the pins hold for every seed).
"""

from __future__ import annotations

import random
from typing import Dict

from common import Outcome, Speed, cpu, mean, percentile, vector_detects

CIRCUITS = (("alu6", "alu", 6), ("mul3", "array_multiplier", 3))
#: The circuit whose incremental calls give ``incremental.call_ms``.
GROWTH_CIRCUIT = "alu6"


def setup(seed: int, expected: Dict) -> Dict:
    from repro.circuits import generators
    from repro.circuits.faults import full_fault_list

    rng = random.Random(f"atpg-flow-{seed}")
    circuits = []
    for name, factory, width in CIRCUITS:
        circuit = getattr(generators, factory)(width)
        faults = full_fault_list(circuit)
        rng.shuffle(faults)
        circuits.append((name, circuit, faults))
    return {"circuits": circuits}


def _audit(out: Outcome, circuit, name: str, fault, result,
           path: str) -> None:
    outcome = result.outcome.name
    if outcome == "DETECTED":
        if not vector_detects(circuit, fault.node, fault.value,
                              result.vector):
            out.fail(f"{name} {fault} ({path}): vector does not "
                     f"detect the fault")
    elif outcome != "REDUNDANT":
        out.fail(f"{name} {fault} ({path}): {outcome}")


def one_pass(inst: Dict, out: Outcome, expected: Dict[str, int]) -> Dict:
    """Both paths once over every circuit.  ``main_s``/``alt_s``/
    ``ops_ms`` are speed-scaled (see :class:`common.Speed`)."""
    with Speed() as speed:
        rec = _target_all(inst, out, expected, speed)
    rec["kernel_s"] = speed.mean_kernel()
    rec["ops_ms"] = [speed.scaled(t) * 1e3 for t in rec["fresh_ops"]]
    rec["main_s"] = sum(rec["ops_ms"]) / 1e3
    rec["alt_s"] = sum(speed.scaled(t) for t in rec["inc_ops"])
    rec["calls_ms"] = [speed.scaled(t) * 1e3 for t in rec["calls"]]
    return rec


def _target_all(inst: Dict, out: Outcome, expected: Dict[str, int],
                speed: Speed) -> Dict:
    from repro.apps.atpg import IncrementalATPG, solve_fault

    rec = {"counts": {}, "fresh_ops": [], "inc_ops": []}
    for name, circuit, faults in inst["circuits"]:
        fresh = {}
        for fault in faults:
            out.attempted += 1
            start = speed.begin()
            result = solve_fault(circuit, fault)
            rec["fresh_ops"].append(speed.end(start))
            fresh[fault] = result.outcome.name
            _audit(out, circuit, name, fault, result, "fresh")
        start = speed.begin()
        engine = IncrementalATPG(circuit)
        rec["inc_ops"].append(speed.end(start))
        calls = []
        for fault in faults:
            out.attempted += 1
            start = speed.begin()
            result = engine.solve_fault(fault)
            calls.append(speed.end(start))
            _audit(out, circuit, name, fault, result, "incremental")
            if result.outcome.name != fresh[fault]:
                out.fail(f"{name} {fault}: incremental "
                         f"{result.outcome.name}, fresh {fresh[fault]}")
        rec["inc_ops"] += calls
        if name == GROWTH_CIRCUIT:
            rec["calls"] = calls
            rec["learned"] = engine.solver.learned_clause_count()
        for outcome in ("DETECTED", "REDUNDANT"):
            count = sum(1 for value in fresh.values() if value == outcome)
            key = f"{name}.{outcome.lower()}"
            rec["counts"][key] = count
            if key in expected and expected[key] != count:
                out.fail(f"{key}: {count}, pinned {expected[key]}")
    return rec


def layers(inst: Dict, rec: Dict, out: Outcome) -> Dict[str, float]:
    """Per-layer readings.  The fresh path is replayed once more stage
    by stage -- the same calls ``solve_fault`` makes, each timed on its
    own -- to split it into encoding, solver construction and search."""
    from repro.circuits.faults import inject_fault
    from repro.circuits.tseitin import encode_miter
    from repro.solvers.cdcl import CDCLSolver

    encode_s = ctor_s = search_s = 0.0
    props = conflicts = faults_seen = 0
    for _, circuit, faults in inst["circuits"]:
        for fault in faults:
            start = cpu()
            formula = encode_miter(circuit,
                                   inject_fault(circuit, fault)).formula
            encoded = cpu()
            solver = CDCLSolver(formula, max_conflicts=20000)
            built = cpu()
            result = solver.solve()
            encode_s += encoded - start
            ctor_s += built - encoded
            search_s += cpu() - built
            props += result.stats.propagations
            conflicts += result.stats.conflicts
            faults_seen += 1
    calls = rec["calls_ms"]
    quarter = max(1, len(calls) // 4)
    res: Dict[str, float] = {
        "tseitin.encode_ms": encode_s / faults_seen * 1e3,
        "cdcl.ctor_ms": ctor_s / faults_seen * 1e3,
        "cdcl.propagations_per_s": props / search_s,
        "cdcl.conflicts_per_s": conflicts / search_s,
        "atpg.fault_ms.p50": percentile(rec["ops_ms"], 50),
        "atpg.fault_ms.p95": percentile(rec["ops_ms"], 95),
        "atpg.detected": sum(v for k, v in rec["counts"].items()
                             if k.endswith(".detected")),
        "atpg.redundant": sum(v for k, v in rec["counts"].items()
                              if k.endswith(".redundant")),
        "incremental.call_ms.q1": mean(calls[:quarter]),
        "incremental.call_ms.q4": mean(calls[-quarter:]),
        "incremental.learned_clauses": rec["learned"],
    }
    # Stage shares of the fresh path, within the replay.
    replay = encode_s + ctor_s + search_s
    res["share.setup"] = (encode_s + ctor_s) / replay
    res["share.tseitin"] = encode_s / replay
    res["share.cdcl"] = search_s / replay
    res["share.incremental"] = rec["alt_s"] / (rec["main_s"] + rec["alt_s"])
    res["speed.kernel_ms"] = rec["kernel_s"] * 1e3
    return res
