"""Flat clause-database arena for the CDCL core (memory layout).

The paper makes clause recording *plus deletion* the engine of
practical SAT, which makes the clause database the hottest data
structure in the solver.  Storing every clause as its own Python
object with its own literal list means each BCP visit pays an
attribute load (``ref.lits``) and a list-header indirection before it
can read a single literal.  The :class:`ClauseArena` removes both:

* **one flat literal buffer** -- every clause's literals live
  contiguously in a single Python list of ints;
* **integer clause ids** -- a clause is an index into parallel
  ``off``/``end`` arrays bracketing its slice of the buffer, so watch
  lists and antecedent slots hold plain ints;
* **parallel metadata arrays** -- ``learned`` flag, ``activity`` and
  ``lbd`` are indexed by the same id, never attached to an object;
* **compacting garbage collection** -- deletion copies the survivors
  to the front of a fresh buffer and returns an old-id -> new-id remap
  for the solver to rewrite its watch lists, bins and antecedents.
  After a collection there is *no* dead space and therefore no
  ``deleted`` flag to test anywhere on the hot path.

Watched-literal normalization becomes two element swaps inside the
buffer (``lits[off] <-> lits[off+1]``): the watch state of a clause is
encoded purely by the order of its slice.

A plain Python ``list`` is deliberately preferred over ``array('i')``:
CPython unboxes small ints for free from a list (they are cached
objects), while ``array`` re-boxes on every read -- measurably slower
in the BCP loop.  The flat layout still wins on locality and, above
all, on removing per-clause object overhead.

See DESIGN.md ("Clause-DB memory layout") for the GC remap protocol.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set


class ClauseArena:
    """All clause literals in one flat buffer, addressed by int ids."""

    __slots__ = ("lits", "off", "end", "learned", "activity", "lbd",
                 "peak_lits")

    def __init__(self) -> None:
        #: The flat literal buffer.  Clause *cid* owns
        #: ``lits[off[cid]:end[cid]]``.
        self.lits: List[int] = []
        self.off: List[int] = []
        self.end: List[int] = []
        #: Parallel metadata, indexed by clause id.
        self.learned: List[bool] = []
        self.activity: List[float] = []
        self.lbd: List[int] = []
        #: High-water mark of the buffer (ints), across collections.
        self.peak_lits: int = 0

    # -- construction ---------------------------------------------------

    def add(self, literals: Sequence[int], learned: bool = False,
            lbd: int = 0) -> int:
        """Append a clause; returns its id (stable until the next
        :meth:`compact`)."""
        cid = len(self.off)
        base = len(self.lits)
        self.lits.extend(literals)
        self.off.append(base)
        self.end.append(len(self.lits))
        self.learned.append(learned)
        self.activity.append(0.0)
        self.lbd.append(lbd)
        if len(self.lits) > self.peak_lits:
            self.peak_lits = len(self.lits)
        return cid

    # -- reading --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.off)

    def size(self, cid: int) -> int:
        """Number of literals of clause *cid*."""
        return self.end[cid] - self.off[cid]

    def lits_of(self, cid: int) -> List[int]:
        """The literals of clause *cid* (a fresh list)."""
        return self.lits[self.off[cid]:self.end[cid]]

    def iter_ids(self) -> Iterable[int]:
        """All live clause ids, in id order."""
        return range(len(self.off))

    # -- occupancy ------------------------------------------------------

    def live_ints(self) -> int:
        """Ints currently held by live clauses (== buffer length: the
        arena is always fully compacted between collections)."""
        return len(self.lits)

    def fill_ratio(self) -> float:
        """Live ints over the buffer's high-water mark (1.0 until the
        first collection reclaims anything)."""
        if self.peak_lits == 0:
            return 1.0
        return len(self.lits) / self.peak_lits

    def occupancy(self) -> Dict[str, float]:
        """Snapshot of the arena's memory state (JSON-scalar values)."""
        return {
            "clauses": len(self.off),
            "live_ints": len(self.lits),
            "peak_ints": self.peak_lits,
            "fill_ratio": round(self.fill_ratio(), 4),
        }

    # -- compacting GC --------------------------------------------------

    def compact(self, drop: Set[int]) -> List[int]:
        """Delete the clauses in *drop*; survivors are copied to the
        front of a fresh buffer in id order.

        Returns the remap table: ``remap[old_cid]`` is the survivor's
        new id, or ``-1`` for a dropped clause.  The caller must
        rewrite every stored id (watch lists, binary-implication
        pairs, antecedent slots, clause registries) through the remap
        -- ids not rewritten are dangling after this call.
        """
        old_lits = self.lits
        old_off = self.off
        old_end = self.end
        old_learned = self.learned
        old_activity = self.activity
        old_lbd = self.lbd

        # Clauses before the first dropped one keep their ids and
        # their place in the (gap-free) buffer: copy them wholesale.
        first = min(drop, default=len(old_off))
        new_lits: List[int] = old_lits[:old_off[first]] \
            if first < len(old_off) else list(old_lits)
        new_off: List[int] = old_off[:first]
        new_end: List[int] = old_end[:first]
        new_learned: List[bool] = old_learned[:first]
        new_activity: List[float] = old_activity[:first]
        new_lbd: List[int] = old_lbd[:first]
        remap: List[int] = list(range(first))
        remap.extend([-1] * (len(old_off) - first))

        next_id = first
        for cid in range(first, len(old_off)):
            if cid in drop:
                continue
            remap[cid] = next_id
            next_id += 1
            base = len(new_lits)
            new_lits.extend(old_lits[old_off[cid]:old_end[cid]])
            new_off.append(base)
            new_end.append(len(new_lits))
            new_learned.append(old_learned[cid])
            new_activity.append(old_activity[cid])
            new_lbd.append(old_lbd[cid])

        self.lits = new_lits
        self.off = new_off
        self.end = new_end
        self.learned = new_learned
        self.activity = new_activity
        self.lbd = new_lbd
        return remap
