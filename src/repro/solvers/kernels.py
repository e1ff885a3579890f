"""Optional numpy kernels for simplification hot loops.

The :class:`~repro.solvers.clause_arena.ClauseArena` stores every
literal in one flat int buffer, which is exactly the layout a
vectorized runtime can chew on: per-clause 64-bit signatures are one
``bitwise_or.reduceat`` over the buffer, occurrence counting is one
``bincount``, and subsumption candidate filtering is one masked
compare over a signature array.  This module provides those three
kernels twice -- a numpy implementation and a pure-Python fallback
with identical semantics -- and selects between them at import time,
so the package keeps working with stdlib only (``pip install
repro[fast]`` adds the accelerated path).

Signature semantics (shared contract, covered by the parity tests in
``tests/test_inprocess.py``): bit ``lit & 63`` of a 64-bit word is set
for every literal of the clause.  ``lit & 63`` is identical between
Python ints and two's-complement int64 for negative literals, so both
kernels hash a literal to the same bit.  A clause C can only subsume D
when ``sig(C) & ~sig(D) == 0`` -- the signature test never rejects a
real subsumption, it only prunes candidates before the exact set
inclusion check.

Every public function takes ``kernel="auto"|"numpy"|"python"``;
``"auto"`` resolves to numpy when it is importable.  Callers that must
report which kernel actually ran (the perf harness, ``repro
profile``) use :func:`resolve_kernel` / :func:`kernels_available`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via kernels_available()
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Kernel names accepted everywhere a ``kernel=`` option appears.
KERNEL_NAMES = ("auto", "numpy", "python")


def kernels_available() -> bool:
    """True when the numpy kernel path can run in this interpreter."""
    return _np is not None


def numpy_version() -> Optional[str]:
    """The numpy version the kernels would use (None without numpy)."""
    return None if _np is None else getattr(_np, "__version__", "?")


def resolve_kernel(kernel: str = "auto") -> str:
    """Normalize a kernel request to the implementation that will run.

    ``"auto"`` picks numpy when available; asking for ``"numpy"``
    without numpy installed raises (the caller asked for something the
    environment cannot deliver -- silently degrading would make
    benchmark records lie).
    """
    if kernel not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel {kernel!r}; "
                         f"expected one of {KERNEL_NAMES}")
    if kernel == "auto":
        return "numpy" if _np is not None else "python"
    if kernel == "numpy" and _np is None:
        raise RuntimeError("numpy kernel requested but numpy is not "
                           "installed (pip install repro[fast])")
    return kernel


def capability() -> dict:
    """JSON-ready capability probe (perf harness / ``repro profile`` /
    service ``STATUS``): simplification kernel selection."""
    return {
        "numpy": kernels_available(),
        "numpy_version": numpy_version(),
        "default_kernel": resolve_kernel("auto"),
    }


# ----------------------------------------------------------------------
# Clause signatures
# ----------------------------------------------------------------------

def clause_signature(literals: Sequence[int]) -> int:
    """The 64-bit membership signature of one clause."""
    sig = 0
    for lit in literals:
        sig |= 1 << (lit & 63)
    return sig


def bulk_signatures_flat(flat: Sequence[int], off: Sequence[int],
                         end: Sequence[int],
                         kernel: str = "auto") -> List[int]:
    """Signatures for every clause of a flat arena-style buffer.

    ``flat[off[i]:end[i]]`` is clause *i*; offsets must be ascending
    and contiguous-friendly (the arena guarantees both).  Returns
    plain Python ints in clause order.
    """
    if not off:
        return []
    if resolve_kernel(kernel) == "numpy":
        arr = _np.asarray(flat, dtype=_np.int64)
        vals = _np.left_shift(_np.uint64(1),
                              (arr & 63).astype(_np.uint64))
        sigs = _np.bitwise_or.reduceat(
            vals, _np.asarray(off, dtype=_np.intp))
        return sigs.tolist()
    return [clause_signature(flat[off[i]:end[i]])
            for i in range(len(off))]


def bulk_signatures(clauses: Sequence[Sequence[int]],
                    kernel: str = "auto") -> List[int]:
    """Signatures for a list of literal sequences (flattens internally
    so the numpy path still runs one ``reduceat``)."""
    if not clauses:
        return []
    if resolve_kernel(kernel) == "numpy":
        flat: List[int] = []
        off: List[int] = []
        end: List[int] = []
        for lits in clauses:
            off.append(len(flat))
            flat.extend(lits)
            end.append(len(flat))
        if not flat:        # only empty clauses: no bits set anywhere
            return [0] * len(clauses)
        # reduceat cannot express zero-length slices; empty clauses do
        # not occur in the solver DB, so fall back for that edge.
        if any(not c for c in clauses):
            return [clause_signature(c) for c in clauses]
        return bulk_signatures_flat(flat, off, end, kernel="numpy")
    return [clause_signature(c) for c in clauses]


# ----------------------------------------------------------------------
# Occurrence counting
# ----------------------------------------------------------------------

def occurrence_counts(flat: Sequence[int], num_vars: int,
                      kernel: str = "auto") -> List[int]:
    """Literal occurrence counts over a flat buffer.

    Returns a flat table indexed like the solver's watch slots:
    ``2*var`` counts positive occurrences of ``var``, ``2*var + 1``
    negative ones (length ``2*(num_vars+1)``).
    """
    size = 2 * (num_vars + 1)
    if resolve_kernel(kernel) == "numpy" and flat:
        arr = _np.asarray(flat, dtype=_np.int64)
        idx = _np.where(arr > 0, arr + arr, 1 - arr - arr)
        return _np.bincount(idx, minlength=size).tolist()
    counts = [0] * size
    for lit in flat:
        counts[lit + lit if lit > 0 else 1 - lit - lit] += 1
    return counts


# ----------------------------------------------------------------------
# Subsumption candidate filtering
# ----------------------------------------------------------------------

def as_sig_array(sigs: Sequence[int], kernel: str = "auto"):
    """Prepare a signature list for repeated :func:`filter_supersets`
    calls (numpy: one uint64 conversion up front)."""
    if resolve_kernel(kernel) == "numpy":
        return _np.asarray(sigs, dtype=_np.uint64)
    return list(sigs)


def filter_supersets(sig: int, candidates: Sequence[int], sig_array,
                     kernel: str = "auto") -> List[int]:
    """The *candidates* (indices into *sig_array*) whose signature is
    a bit-superset of *sig* -- the cheap pre-filter before an exact
    set-inclusion check."""
    if not candidates:
        return []
    if resolve_kernel(kernel) == "numpy":
        cand = _np.asarray(candidates, dtype=_np.intp)
        vals = sig_array[cand]
        mask = (_np.uint64(sig) & ~vals) == 0
        return cand[mask].tolist()
    return [i for i in candidates if sig & ~sig_array[i] == 0]


def filter_subsets(sig: int, candidates: Sequence[int], sig_array,
                   kernel: str = "auto") -> List[int]:
    """The *candidates* (indices into *sig_array*) whose signature is
    a bit-subset of *sig* -- the pre-filter for "which of these could
    subsume a clause with signature *sig*" (the mirror of
    :func:`filter_supersets`)."""
    if not candidates:
        return []
    if resolve_kernel(kernel) == "numpy":
        cand = _np.asarray(candidates, dtype=_np.intp)
        vals = sig_array[cand]
        mask = (vals & ~_np.uint64(sig)) == 0
        return cand[mask].tolist()
    return [i for i in candidates if sig_array[i] & ~sig == 0]


# ----------------------------------------------------------------------
# Signature-based subsumption sweep (shared by cnf.simplify and the
# inprocessing engine -- one implementation, two call sites)
# ----------------------------------------------------------------------

def subsumption_pairs(clauses: Sequence[Sequence[int]],
                      kernel: str = "auto",
                      spend: Optional[Callable[[int], None]] = None
                      ) -> List[Tuple[int, int]]:
    """Find subsumed clauses: ``(subsumed_index, subsuming_index)``.

    Clauses are processed shortest-first; a clause subsumed by an
    earlier-kept one is reported (at most once) and never itself kept
    as a subsumer -- its subsumer already covers anything it would.
    Exact duplicates therefore report the later copy as subsumed by
    the earlier.  Candidate generation walks the occurrence lists of
    the clause's literals (any subset shares every literal), pruned by
    the 64-bit signature filter; *spend* (when given) is charged one
    unit per candidate signature examined, so callers can meter the
    sweep against a budget.
    """
    n = len(clauses)
    if n < 2:
        return []
    impl = resolve_kernel(kernel)
    sigs = bulk_signatures(clauses, kernel=impl)
    sig_array = as_sig_array(sigs, kernel=impl)
    order = sorted(range(n), key=lambda i: (len(clauses[i]), i))
    occurrences = {}
    pairs: List[Tuple[int, int]] = []
    for idx in order:
        lits = clauses[idx]
        candidates = set()
        for lit in lits:
            candidates.update(occurrences.get(lit, ()))
        winner = -1
        if candidates:
            if spend is not None:
                spend(len(candidates))
            litset = set(lits)
            for j in filter_subsets(sigs[idx], sorted(candidates),
                                    sig_array, kernel=impl):
                if all(q in litset for q in clauses[j]):
                    winner = j
                    break
        if winner >= 0:
            pairs.append((idx, winner))
            continue
        for lit in lits:
            occurrences.setdefault(lit, []).append(idx)
    return pairs
