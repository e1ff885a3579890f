"""Experiment C8 -- Section 6: iterative/incremental SAT pays off when
"SAT solvers tend to be used iteratively and/or incrementally".

ATPG is the paper's canonical iterative consumer [25]: one SAT
instance per fault, all sharing the good-circuit logic.  Compares a
fresh solver per fault (on the cone-restricted miter, which copies
only the fault's fanout cone) against the persistent incremental
engine (clauses learned on earlier faults prune later ones).
Expected shape: identical outcomes, fewer total conflicts for the
incremental engine (117 vs 150 on rca4) and about the fresh path's
CPU time.  Each fault's cone is guarded by an activation literal and
retired after its call, so a call carries only the good circuit and
its own cone; the clauses learned from a retired cone leave with it,
which is why rca4 needs more conflicts than the 66 of an engine that
kept every cone (EXPERIMENTS.md, C8).
"""

import time

from repro.apps.atpg import ATPGEngine, IncrementalATPG, TestOutcome
from repro.circuits.faults import full_fault_list
from repro.circuits.generators import ripple_carry_adder
from repro.experiments.tables import format_table


def run_oneshot(circuit, faults):
    engine = ATPGEngine(circuit, fault_dropping=False)
    started = time.perf_counter()
    report = engine.run(faults)
    elapsed = time.perf_counter() - started
    conflicts = sum(r.stats.conflicts for r in report.results)
    decisions = sum(r.stats.decisions for r in report.results)
    return report, conflicts, decisions, elapsed


def run_incremental(circuit, faults):
    engine = IncrementalATPG(circuit)
    started = time.perf_counter()
    report = engine.run(faults)
    elapsed = time.perf_counter() - started
    stats = engine.solver.total_stats
    return report, stats.conflicts, stats.decisions, elapsed


def test_claim_incremental(benchmark, show):
    circuit = ripple_carry_adder(4)
    faults = full_fault_list(circuit)

    one_report, one_conf, one_dec, one_time = run_oneshot(circuit,
                                                          faults)
    inc_report, inc_conf, inc_dec, inc_time = run_incremental(circuit,
                                                              faults)

    rows = [
        ["fresh solver per fault", len(faults),
         one_report.count(TestOutcome.DETECTED), one_conf, one_dec,
         round(one_time, 3)],
        ["incremental (shared solver)", len(faults),
         inc_report.count(TestOutcome.DETECTED), inc_conf, inc_dec,
         round(inc_time, 3)],
    ]
    show(format_table(
        ["mode", "faults", "detected", "total conflicts",
         "total decisions", "seconds"], rows,
        title="C8 -- iterative ATPG, fresh vs incremental solver "
              "(Section 6, [25]) on rca4"))

    # Identical verdict per fault.
    for left, right in zip(one_report.results, inc_report.results):
        assert left.outcome == right.outcome, left.fault
    # Shape: shared learning does not increase search effort.
    assert inc_conf <= max(one_conf, 1) * 2

    small = ripple_carry_adder(2)
    small_faults = full_fault_list(small)
    report = benchmark(lambda: IncrementalATPG(small).run(small_faults))
    assert report.fault_coverage == 1.0
