"""Result cache keyed by the canonical formula hash.

EDA clients are repetitive: an ATPG loop re-proves the same redundant
fault after a netlist no-op, a CEC regression re-submits yesterday's
miters.  The cache keys on
:func:`repro.cnf.canonical.canonical_key` -- clause order, literal
order, duplicate literals and variable-numbering gaps all hash
identically -- joined with the ``certify`` flag, because a certified
answer and an uncertified one are different products even for the
same formula.

The cached unit is the response *body* dict exactly as first
computed, with the sorted variables its clauses use.  The key is
invariant only under order-preserving renumbering, so a hit maps the
model onto the submitter's variables position by position (exact),
and a SAT body must then pass the model audit against the
submitter's clauses, or the hit is a miss (counted in ``rejected``).
An exact repeat replays a byte-identical body.  Only decisive,
non-degraded bodies are stored: caching an UNKNOWN would freeze a
transient budget exhaustion into a permanent answer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cnf.canonical import used_variables
from repro.runtime.worker import model_satisfies

Key = Tuple[str, bool]
#: (the sorted variables the body's clauses use, the body)
Entry = Tuple[List[int], Dict[str, Any]]


class ResultCache:
    """A small LRU of terminal result bodies."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[Key, Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Hits withheld because the body failed the model audit.
        self.rejected = 0

    def get(self, key: Key, clause_lits: Sequence[Sequence[int]] = ()
            ) -> Optional[Dict[str, Any]]:
        """The stored body for *key*, in the variable numbering of
        *clause_lits* and audited against them, or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stored, body = entry
        variables = used_variables(clause_lits)
        if variables != stored and body.get("model") is not None:
            rename = dict(zip(stored, variables))
            body = dict(body, model=[
                rename[abs(lit)] if lit > 0 else -rename[abs(lit)]
                for lit in body["model"] if abs(lit) in rename])
        if body.get("status") == "SATISFIABLE" and not model_satisfies(
                clause_lits,
                {abs(lit): lit > 0 for lit in body.get("model") or ()}):
            self.misses += 1
            self.rejected += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return body

    def put(self, key: Key, body: Dict[str, Any],
            clause_lits: Sequence[Sequence[int]] = ()) -> None:
        """Store *body*, the answer for *clause_lits*, under *key*,
        evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (used_variables(clause_lits), body)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-shaped snapshot for STATUS responses."""
        return {"size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4)}
