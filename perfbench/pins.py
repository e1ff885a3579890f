"""Expected answers the benchmark checks the program against.

Each pin is a property of the instance, not of the search: a verdict
or an ATPG outcome count.  All pinned instances are fixed for every
workload seed (see the workload modules), so the pins hold on every
seed; seed-drawn instances are checked by model audit and proof.
Verdicts of generated families are true by construction (pigeonhole,
miters of equivalent circuits); the random ones were decided once with
the repository's CDCL engine and cross-checked with a certified,
proof-checked solve.
"""

SAT, UNSAT = "SATISFIABLE", "UNSATISFIABLE"

ENGINE_HARD = {
    "php-7": UNSAT,
    "rksat150-s4": UNSAT,
    "rksat150-s5": SAT,
    "miter-add64": UNSAT,
    "miter-mul5": UNSAT,
}

ATPG_FLOW = {
    "alu6.detected": 197,
    "alu6.redundant": 1,
    "mul3.detected": 99,
    "mul3.redundant": 3,
}

_RKSAT120_UNSAT = (120002, 120003, 120007, 120010, 120011, 120014,
                   120021)
SERVICE_MIX = {f"rksat120-{seed}": UNSAT if seed in _RKSAT120_UNSAT
               else SAT for seed in range(120000, 120024)}

BY_WORKLOAD = {"engine-hard": ENGINE_HARD, "atpg-flow": ATPG_FLOW,
               "service-mix": SERVICE_MIX}
