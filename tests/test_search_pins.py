"""Exact pins on the engine's search path and DRUP proof stream.

The CDCL engine is deterministic: for a fixed formula and
configuration every solve walks the same decisions, conflicts and
propagations and emits the same proof lines.  These tests pin both, so
a refactor of the propagation loop, the clause arena or the proof sink
that silently changes what the engine does fails here instead of
surfacing as a drifting benchmark.

If a change is *meant* to alter the search (a new heuristic default,
a different propagation order), re-capture the pinned values and say
why in the commit message.
"""

import hashlib

import pytest

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import VSIDSHeuristic
from repro.solvers.incremental import IncrementalSolver
from repro.solvers.inprocess import InprocessConfig
from repro.solvers.restarts import make_restart_policy
from repro.solvers.result import Status
from repro.verify import (
    MemoryProofSink,
    attach_proof_stream,
    check_proof_steps,
)

DELETION = dict(deletion="size", deletion_bound=4, deletion_interval=100)


def _seeded(**kw):
    """The seeded VSIDS + Luby + phase-saving configuration."""
    return dict(heuristic=VSIDSHeuristic(seed=0),
                restart_policy=make_restart_policy("luby", 64),
                phase_saving=True, **kw)


def _path(stats):
    return (stats.decisions, stats.conflicts, stats.propagations,
            stats.learned_clauses, stats.restarts, stats.backtracks,
            stats.gc_runs)


def _digest(sink):
    return hashlib.sha256(repr(sink.events).encode()).hexdigest()[:16]


# -- search path -------------------------------------------------------

def _plain_default():
    result = CDCLSolver(pigeonhole(6)).solve()
    assert result.status is Status.UNSATISFIABLE
    return result.stats


def _plain_seeded():
    formula = random_ksat_at_ratio(90, 4.27, 3, seed=7)
    return CDCLSolver(formula, **_seeded()).solve().stats


def _plain_sat():
    formula = random_ksat_at_ratio(120, 4.2, 3, seed=105)
    result = CDCLSolver(formula, **_seeded()).solve()
    assert result.status is Status.SATISFIABLE
    assert formula.is_satisfied_by(result.assignment)
    return result.stats


def _forced_gc():
    result = CDCLSolver(pigeonhole(6), **_seeded(**DELETION)).solve()
    assert result.status is Status.UNSATISFIABLE
    assert result.stats.gc_runs >= 1, "no mid-solve compaction"
    return result.stats


def _incremental_compactions():
    base = pigeonhole(6)
    clauses = [list(c) for c in base.clauses]
    split = len(clauses) - 6
    inc = IncrementalSolver(**_seeded(**DELETION))
    while inc.num_vars < base.num_vars:
        inc.new_var()
    inc.add_clauses(clauses[:split])
    assert inc.solve().status is Status.SATISFIABLE
    inc.add_clauses(clauses[split:])
    assert inc.solve().status is Status.UNSATISFIABLE
    assert inc.total_stats.gc_runs >= 2, "fewer than two compactions"
    return inc.total_stats


def _assumptions():
    result = CDCLSolver(pigeonhole(5), **_seeded()).solve([1, -2])
    assert result.status is Status.UNSATISFIABLE
    return result.stats


#: case -> (run, pinned (decisions, conflicts, propagations,
#: learned_clauses, restarts, backtracks, gc_runs)).
SEARCH_CASES = {
    "plain-default-php-6": (_plain_default,
        (402, 371, 5481, 370, 0, 370, 0)),
    "plain-seeded-rksat-90": (_plain_seeded,
        (672, 461, 12981, 460, 14, 460, 0)),
    "plain-seeded-rksat-sat-120": (_plain_sat,
        (877, 549, 18530, 549, 17, 549, 0)),
    "size-deletion-gc-php-6": (_forced_gc,
        (1508, 975, 14474, 974, 29, 974, 9)),
    "incremental-compactions-php-6": (_incremental_compactions,
        (1422, 897, 13065, 896, 29, 896, 8)),
    "assumptions-php-5": (_assumptions,
        (46, 29, 388, 28, 1, 28, 0)),
}


class TestSearchPath:
    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_pinned(self, name):
        run, expected = SEARCH_CASES[name]
        assert _path(run()) == expected


# -- DRUP stream -------------------------------------------------------

def _stream(formula, **kw):
    solver = CDCLSolver(formula, **kw)
    sink = attach_proof_stream(solver, MemoryProofSink())
    result = solver.solve()
    assert result.status is Status.UNSATISFIABLE
    return formula, solver, sink


def _drup_plain():
    return _stream(pigeonhole(5))


def _drup_deletion():
    formula, solver, sink = _stream(pigeonhole(5), deletion="size",
                                    deletion_bound=3,
                                    deletion_interval=20)
    assert sink.deletes > 0, "no GC deletion lines"
    return formula, solver, sink


def _drup_inprocess():
    formula, solver, sink = _stream(pigeonhole(5),
                                    inprocess=InprocessConfig(interval=20))
    stats = solver.stats
    assert stats.inprocess_runs > 0
    assert stats.inprocess_units > 0, "no inprocessing root units"
    assert stats.inprocess_strengthened_clauses > 0, \
        "inprocessing strengthened nothing"
    return formula, solver, sink


def _drup_warm_resume():
    formula = pigeonhole(5)
    first = CDCLSolver(formula, max_conflicts=40)
    assert first.solve().status is Status.UNKNOWN
    checkpoint = first.export_checkpoint()
    formula, solver, sink = _stream(formula, resume_from=checkpoint)
    assert solver.stats.warm_resumes == 1
    return formula, solver, sink


def _drup_assumptions_then_plain():
    formula = pigeonhole(5)
    solver = CDCLSolver(formula)
    sink = attach_proof_stream(solver, MemoryProofSink())
    assert solver.solve([1, -2]).status is Status.UNSATISFIABLE
    assert not sink.concluded, "assumption UNSAT concluded the proof"
    assert solver.solve().status is Status.UNSATISFIABLE
    assert sink.concluded
    return formula, solver, sink


#: case -> (run, pinned (adds, deletes, digest of the event list)).
DRUP_CASES = {
    "php-5-plain": (_drup_plain,
        (97, 0, "47badba460865892")),
    "php-5-deletion": (_drup_deletion,
        (217, 183, "194ca145cc1c0e9b")),
    "php-5-inprocess": (_drup_inprocess,
        (338, 283, "fe8c9e014067ceda")),
    "php-5-warm-resume": (_drup_warm_resume,
        (106, 0, "c77795900b5256f7")),
    "php-5-assumptions-then-plain": (_drup_assumptions_then_plain,
        (94, 0, "f43c4e3a67d45e42")),
}


class TestDrupStream:
    @pytest.mark.parametrize("name", sorted(DRUP_CASES))
    def test_pinned(self, name):
        run, expected = DRUP_CASES[name]
        formula, _, sink = run()
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
        assert sum(1 for kind, lits in sink.events
                   if kind == "a" and not lits) == 1
        assert (sink.adds, sink.deletes, _digest(sink)) == expected
