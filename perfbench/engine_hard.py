"""``engine-hard``: in-process CDCL solves that spend seconds in search.

Every operation is one whole ``CDCLSolver`` solve (construction
included) under the configuration the repository benchmarks with:
VSIDS seed 0, Luby restarts with unit 64, phase saving.  The named
instances are the paper's refutation regime, fixed for every seed so
their search counts can be cited across runs:

* ``php-7`` -- pigeonhole 8-into-7, the classic resolution-hard
  refutation: conflict analysis and clause learning carry it.
* ``rksat150-s4`` / ``rksat150-s5`` -- random 3-SAT, 150 variables
  at the 4.26 phase transition (generator seeds 4 and 5): one UNSAT,
  one SAT, each thousands of conflicts of unstructured search.
* ``miter-add64`` -- equivalence miter of a 64-bit ripple-carry and
  carry-select adder (combinational equivalence checking, UNSAT).
* ``miter-mul5`` -- self-miter of a 5-bit array multiplier, the
  circuit family SAT and BDDs both find hard (UNSAT).

The workload seed draws ``BATCH`` further random 3-SAT instances
(``BATCH_VARS`` variables at 4.26), whose verdicts are checked by
model audit and proof rather than pinned.  They count as operations
(attempted, failed) but stay out of every timing: how many of them are
UNSAT, and how hard, depends on the draw, and the timings are meant to
compare commits, not seeds.

Every UNSAT answer is re-solved with a ``MemoryProofSink`` attached
and its proof checked by ``check_proof_steps``; every SAT model is
audited against the clauses by the benchmark's own evaluator.
"""

from __future__ import annotations

import random
from typing import Dict

from common import (Outcome, Speed, assignment_literals, cpu, mean,
                    model_satisfies)

BATCH = 12
BATCH_VARS = 100
NAMED = ("php-7", "rksat150-s4", "rksat150-s5", "miter-add64",
         "miter-mul5")


def make_solver(formula):
    from repro.solvers.cdcl import CDCLSolver
    from repro.solvers.heuristics import VSIDSHeuristic
    from repro.solvers.restarts import make_restart_policy
    return CDCLSolver(formula, heuristic=VSIDSHeuristic(seed=0),
                      restart_policy=make_restart_policy("luby", 64),
                      phase_saving=True)


def setup(seed: int, expected: Dict) -> Dict:
    """Generate the instances; miter encoding time is kept for the
    ``tseitin`` layer."""
    from repro.circuits.generators import (array_multiplier,
                                           carry_select_adder,
                                           ripple_carry_adder)
    from repro.circuits.tseitin import encode_miter
    from repro.cnf.generators import pigeonhole, random_ksat_at_ratio

    encode_s = []

    def miter(a, b):
        start = cpu()
        formula = encode_miter(a, b).formula
        encode_s.append(cpu() - start)
        return formula

    named = [
        ("php-7", pigeonhole(7)),
        ("rksat150-s4", random_ksat_at_ratio(150, 4.26, 3, seed=4)),
        ("rksat150-s5", random_ksat_at_ratio(150, 4.26, 3, seed=5)),
        ("miter-add64", miter(ripple_carry_adder(64),
                              carry_select_adder(64))),
        ("miter-mul5", miter(array_multiplier(5), array_multiplier(5))),
    ]
    rng = random.Random(f"engine-hard-{seed}")
    batch = [random_ksat_at_ratio(BATCH_VARS, 4.26, 3,
                                  seed=rng.randrange(1 << 30))
             for _ in range(BATCH)]
    return {"named": named, "batch": batch, "encode_s": encode_s}


def _plain(name: str, formula, out: Outcome, expected: Dict[str, str],
           speed: Speed) -> Dict:
    out.attempted += 1
    start = speed.begin()
    solver = make_solver(formula)
    ctor = speed.cpu_since(start)
    result = solver.solve()
    op = {"name": name, "formula": formula, "ctor": ctor,
          "timing": speed.end(start), "stats": result.stats,
          "unsat": False}
    status = result.status.name
    if name in expected and expected[name] != status:
        out.fail(f"{name}: {status}, expected {expected[name]}")
    elif status == "SATISFIABLE":
        if not model_satisfies(formula.clauses, assignment_literals(
                result.assignment, formula.num_vars)):
            out.fail(f"{name}: SAT model fails the audit")
    elif status == "UNSATISFIABLE":
        op["unsat"] = True
    else:
        out.fail(f"{name}: {status}")
    return op


def _certified(plain: Dict, out: Outcome, speed: Speed) -> Dict:
    from repro.verify.checker import check_proof_steps
    from repro.verify.drat import MemoryProofSink, attach_proof_stream

    out.attempted += 1
    name, formula = plain["name"], plain["formula"]
    start = speed.begin()
    solver = make_solver(formula)
    sink = attach_proof_stream(solver, MemoryProofSink())
    result = solver.solve()
    sink.close()
    solved = speed.end(start)
    start = speed.begin()
    outcome = check_proof_steps(formula, sink.events)
    checked = speed.end(start)
    if result.status.name != "UNSATISFIABLE":
        out.fail(f"{name}: proof-streamed solve says "
                 f"{result.status.name}, plain solve UNSAT")
    elif not outcome.valid:
        out.fail(f"{name}: proof rejected: {outcome.reason}")
    return {"name": name, "plain": plain, "solve": solved,
            "check": checked, "steps": len(sink.events)}


def one_pass(inst: Dict, out: Outcome, expected: Dict[str, str]) -> Dict:
    """Solve everything once.  Every reported time is speed-scaled
    (see :class:`common.Speed`) and covers the named instances."""
    items = list(inst["named"]) + \
        [(f"batch-{i}", f) for i, f in enumerate(inst["batch"])]
    with Speed() as speed:
        plain = [_plain(name, f, out, expected, speed)
                 for name, f in items]
        cert = [_certified(op, out, speed) for op in plain if op["unsat"]]
    for op in plain:
        op["s"] = speed.scaled(op["timing"])
    for op in cert:
        op["solve_s"] = speed.scaled(op["solve"])
        op["check_s"] = speed.scaled(op["check"])
    named = [op for op in plain if op["name"] in NAMED]
    proofs = [op for op in cert if op["name"] in NAMED]
    return {"named": named, "proofs": proofs,
            "kernel_s": speed.mean_kernel(),
            "main_s": sum(op["s"] for op in named),
            "alt_s": sum(op["solve_s"] + op["check_s"] for op in proofs),
            "ops_ms": [op["s"] * 1e3 for op in named]}


def layers(inst: Dict, rec: Dict, out: Outcome) -> Dict[str, float]:
    """Per-layer readings of the named instances in one pass.
    engine-hard needs no extra work for them: the pass already times
    each stage."""
    named, proofs = rec["named"], rec["proofs"]
    res: Dict[str, float] = {}
    for op in named:
        res[f"cdcl.solve_s.{op['name']}"] = op["s"]
        for key in ("conflicts", "decisions", "propagations"):
            res[f"cdcl.{key}.{op['name']}"] = getattr(op["stats"], key)
    res["cdcl.propagations_per_s"] = \
        sum(op["stats"].propagations for op in named) / rec["main_s"]
    res["cdcl.conflicts_per_s"] = \
        sum(op["stats"].conflicts for op in named) / rec["main_s"]
    res["cdcl.ctor_ms"] = mean([op["ctor"] for op in named]) * 1e3
    res["tseitin.encode_ms"] = mean(inst["encode_s"]) * 1e3
    res["drat.emit_overhead"] = (sum(op["solve_s"] for op in proofs)
                                 / sum(op["plain"]["s"] for op in proofs))
    res["drat.proof_steps"] = sum(op["steps"] for op in proofs)
    res["checker.check_s"] = sum(op["check_s"] for op in proofs)
    res["checker.steps_per_s"] = (res["drat.proof_steps"]
                                  / res["checker.check_s"])
    # Shares of the pass, plain and certified; a proof-streamed solve
    # counts as the plain solve it repeats plus DRUP emission.
    total = rec["main_s"] + rec["alt_s"]
    raw_main = sum(op["timing"].seconds for op in named)
    res["share.setup"] = (sum(op["ctor"] for op in named)
                          + sum(inst["encode_s"])) / raw_main
    res["share.drat"] = sum(op["solve_s"] - op["plain"]["s"]
                            for op in proofs) / total
    res["share.checker"] = res["checker.check_s"] / total
    res["share.cdcl"] = 1.0 - res["share.drat"] - res["share.checker"]
    res["speed.kernel_ms"] = rec["kernel_s"] * 1e3
    return res
