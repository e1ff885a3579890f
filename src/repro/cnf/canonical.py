"""Canonical formula form: compacting renumbering + stable hashing.

Two CNF files that differ only in clause order, in the order of
literals inside a clause, or in gaps left by a sparse variable
numbering describe the same constraint problem.  A shared solver
service that caches results (and the fuzzer's shrunk reproducers,
which want small, dense variable spaces) both need one *canonical*
spelling of a formula:

* :func:`renumber` compacts the variable space to ``1..k`` while
  preserving the relative order of the surviving variables -- the
  transformation the differential fuzzer historically applied inline
  to its reproducers;
* :func:`clauses_normal_form` (and :func:`normal_form` for a
  :class:`CNFFormula`) compacts the variables the same way, then sorts
  literals inside each clause and the clauses themselves
  (deduplicating literal repeats inside a clause, keeping clause
  multiplicity);
* :func:`clauses_key` (and :func:`canonical_key` for a
  :class:`CNFFormula`) hashes that normal form into a stable hex
  digest -- the service-cache key.

The normal form is computed on plain int tuples, never on
:class:`~repro.cnf.clause.Clause` objects: the service hashes every
submission, cache hits included, on its event loop, where the cost
is linear in the formula plus one sort of its clauses.

The key is invariant under clause reordering, literal reordering,
duplicate literals inside a clause, DIMACS formatting noise, and
variable-numbering *gaps*.  It is deliberately **not** invariant under
arbitrary variable permutations or polarity flips: full isomorphism
detection is graph canonization, far too heavy for a path every
submission takes.  Two textually independent encodings of the same
circuit therefore hash differently -- a cache miss, never a wrong
answer.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.cnf.formula import CNFFormula

#: Hash-format version: bump when the normal form changes so stale
#: persisted keys can never alias fresh ones.
_KEY_VERSION = b"repro-cnf-v1"


def used_variables(clauses: Sequence[Sequence[int]]) -> List[int]:
    """The variables that occur in *clauses*, ascending.  Two formulas
    with equal :func:`canonical_key` pair their used variables up
    position by position."""
    return sorted({abs(lit) for clause in clauses for lit in clause})


def renumber(formula: CNFFormula) -> Tuple[CNFFormula, Dict[int, int]]:
    """Compact *formula*'s variable space to ``1..k``.

    Variables that occur in no clause are dropped; the survivors keep
    their relative order (old var 3 stays below old var 7).  Returns
    ``(renumbered_formula, mapping)`` where ``mapping[old] == new``.
    A formula that is already dense maps through identity (but a new
    formula object is still returned).
    """
    used = used_variables(formula.clauses)
    mapping = {var: new for new, var in enumerate(used, start=1)}
    renamed = CNFFormula(
        num_vars=len(used),
        clauses=[tuple(mapping[abs(lit)] * (1 if lit > 0 else -1)
                       for lit in clause)
                 for clause in formula.clauses])
    return renamed, mapping


def clauses_normal_form(
        clauses: Iterable[Iterable[int]]) -> List[Tuple[int, ...]]:
    """The sorted-clause normal form of raw clause lists.

    Variables are compact-renumbered to ``1..k`` (the survivors keep
    their relative order, as in :func:`renumber`), literals are
    deduplicated and sorted inside each clause (by variable, negative
    literal first) and the clauses are sorted lexicographically.  The
    renumbering preserves the order of signed literals, so it does not
    matter that it happens before the sorting: the numbering is a pure
    function of the clause structure, not of the input's gaps.

    Works on the int tuples directly -- no :class:`Clause` objects --
    because the service computes it for every submission.
    """
    clauses = list(clauses)
    # Each literal's code is 2 * new_var + (lit > 0): sorting codes
    # sorts by variable, negative first.
    code: Dict[int, int] = {}
    literal = [0, 0]
    for new, var in enumerate(used_variables(clauses), start=1):
        code[-var] = 2 * new
        code[var] = 2 * new + 1
        literal += (-new, new)
    normal = [tuple([literal[c] for c in sorted({code[lit]
                                                for lit in clause})])
              for clause in clauses]
    normal.sort()
    return normal


def normal_form(formula: CNFFormula) -> List[Tuple[int, ...]]:
    """:func:`clauses_normal_form` of *formula*'s clauses."""
    return clauses_normal_form(formula.clauses)


def clauses_key(clauses: Iterable[Iterable[int]],
                num_vars: int = 0) -> str:
    """Stable hex digest of the normal form of raw clause lists
    (protocol payloads that were never a :class:`CNFFormula`).

    Equal keys imply identical normal forms (up to SHA-256 collision),
    so a result cached under this key may be replayed for any formula
    that hashes to it.  *num_vars* does not enter the key: unused
    variables are compacted away.
    """
    normal = clauses_normal_form(clauses)
    digest = hashlib.sha256(_KEY_VERSION)
    digest.update(str(len(normal)).encode("ascii"))
    digest.update("".join("\n" + " ".join(map(str, clause))
                          for clause in normal).encode("ascii"))
    return digest.hexdigest()


def canonical_key(formula: CNFFormula) -> str:
    """:func:`clauses_key` of *formula* -- the service-cache key."""
    return clauses_key(formula.clauses)
