"""Shared pieces of the benchmark: locating the program under test,
clocks, quantiles, and the independent answer oracle.

The oracle deliberately shares no code with ``repro``: a SAT model is
checked clause by clause against the literals the benchmark itself
generated, and an ATPG test vector is checked by a small gate-level
simulator written here.  Reading the program's data structures
(``Circuit`` nodes, ``Assignment`` values) is fine; trusting its
verdict-checking helpers is not.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space the benchmark (and the server it starts) may write;
#: removed again at the end of every run.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: CPU clock of the calling thread: measured work runs in one thread
#: while :class:`Speed` samples in another.
cpu = time.thread_time
wall = time.perf_counter

#: Seconds one calibration kernel run takes at the nominal speed: about
#: its median between solver operations on a 2-core x86-64 cloud VM
#: under Python 3.11, so scaled seconds read close to raw ones there.
NOMINAL_KERNEL_S = 0.0065
KERNEL_ROUNDS = 12000
#: Seconds (CPU seconds for in-process work) between kernel samples.
SAMPLE_EVERY = 0.1
_TABLE = list(range(1 << 18))


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Exits non-zero without a result when the source is missing, so a
    directory holding only the benchmark cannot report numbers.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from "
                         f"{repro.__file__}, not from {SRC}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``attempted``/``failed`` count operations (solves, fault targets,
    jobs).  ``unexpected`` lists failures the benchmark cannot explain
    by a known, attributed defect; any entry makes the run incorrect.
    ``known`` names the failures that are attributed (counted in
    ``failed`` all the same).  ``metrics`` holds end-to-end values,
    ``layers`` per-layer values (traced runs only).
    """

    attempted: int = 0
    failed: int = 0
    passes: int = 0
    unexpected: List[str] = field(default_factory=list)
    known: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, what: str, known: bool = False) -> None:
        self.failed += 1
        (self.known if known else self.unexpected).append(what)


# -- machine speed ---------------------------------------------------------

def kernel() -> float:
    """Thread-CPU seconds of one fixed pure-Python calibration kernel:
    integer work and scattered reads over a table of a few megabytes,
    so it feels cache and memory contention the way the solver's
    clause and watch lists do."""
    start = time.thread_time()
    table, mask = _TABLE, len(_TABLE) - 1
    acc, index = 0, 12345
    for i in range(KERNEL_ROUNDS):
        index = (index * 1103515245 + 12345) & mask
        value = table[index]
        if value & 1:
            acc += value
        else:
            acc ^= i
    return time.thread_time() - start


class Timing(NamedTuple):
    """One measured operation: its seconds and its wall-clock window."""

    seconds: float
    start: float
    end: float


class Speed:
    """Scales measured seconds to the nominal machine speed.

    On a shared machine the same computation takes 20-40% more or less
    time from one minute to the next, mostly from cache and memory
    contention with other tenants.  While a ``with Speed()`` block
    runs, the calibration kernel is timed every ``SAMPLE_EVERY``
    seconds; an operation's seconds are then multiplied by
    ``NOMINAL_KERNEL_S`` over the mean kernel time of the samples taken
    during it and the one on either side.  The kernel is fixed code of
    the benchmark, so no change to the program can move it directly;
    but it shares the core and its caches with the measured code, so a
    change that only grows the program's cache footprint slows the
    kernel too and is partly scaled away (``speed.kernel_ms`` shows the
    kernel's mean time in a traced run).

    In-process work (the default) is sampled from a CPU-time interval
    timer, so the kernel runs in the measuring thread itself, on its
    core, between two bytecodes; its own CPU time is subtracted from
    the operations it interrupts.  ``in_thread=False`` samples from a
    background thread instead, for a measuring thread that only waits
    (the service clients).
    """

    def __init__(self, in_thread: bool = True):
        self.in_thread = in_thread
        self.times: List[float] = []
        self.kernels: List[float] = []
        self._kernel_cpu = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped)

    def __enter__(self) -> "Speed":
        self._sample()
        if self.in_thread:
            signal.signal(signal.SIGPROF, lambda *_: self._sample())
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY,
                             SAMPLE_EVERY)
        else:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.in_thread:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        else:
            self._stop.set()
            self._thread.join()
        self._sample()

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY):
            self._sample()

    def _sample(self) -> None:
        at = wall()
        seconds = kernel()
        # Appended in time order: one sampler at a time.
        self.times.append(at)
        self.kernels.append(seconds)
        self._kernel_cpu += seconds

    def begin(self) -> Tuple[float, float, float]:
        return cpu(), wall(), self._kernel_cpu

    def cpu_since(self, start: Tuple[float, float, float]) -> float:
        """CPU seconds since *start*, the kernel's own excluded."""
        return cpu() - start[0] - (self._kernel_cpu - start[2])

    def end(self, start: Tuple[float, float, float]) -> Timing:
        return Timing(self.cpu_since(start), start[1], wall())

    def scaled(self, timing: Timing) -> float:
        low = max(0, bisect.bisect_left(self.times, timing.start) - 1)
        high = bisect.bisect_right(self.times, timing.end) + 1
        window = self.kernels[low:high]
        return timing.seconds * NOMINAL_KERNEL_S * len(window) / sum(window)

    def mean_kernel(self) -> float:
        return mean(self.kernels)


# -- independent answer oracle ------------------------------------------

def model_satisfies(clauses: Iterable[Sequence[int]],
                    true_literals: Iterable[int]) -> bool:
    """True when the literal set is consistent and hits every clause."""
    model = set(true_literals)
    if any(-lit in model for lit in model):
        return False
    return all(any(lit in model for lit in clause) for clause in clauses)


def assignment_literals(assignment, num_vars: int) -> List[int]:
    """The true literals of a ``repro`` assignment over ``1..num_vars``
    (unassigned variables contribute nothing)."""
    literals = []
    for var in range(1, num_vars + 1):
        value = assignment.value_of(var)
        if value is not None:
            literals.append(var if value else -var)
    return literals


def _gate(kind: str, ins: List[bool]) -> bool:
    if kind == "AND":
        return all(ins)
    if kind == "NAND":
        return not all(ins)
    if kind == "OR":
        return any(ins)
    if kind == "NOR":
        return not any(ins)
    if kind == "XOR":
        return sum(ins) % 2 == 1
    if kind == "XNOR":
        return sum(ins) % 2 == 0
    if kind == "NOT":
        return not ins[0]
    if kind == "BUFFER":
        return ins[0]
    raise ValueError(f"oracle cannot simulate gate {kind}")


def simulate_outputs(circuit, vector: Dict[str, bool],
                     stuck: Optional[tuple] = None) -> List[bool]:
    """Primary-output values of *circuit* under *vector*, optionally
    with node ``stuck[0]`` forced to ``stuck[1]``."""
    values: Dict[str, bool] = {}

    def value(name: str) -> bool:
        if name in values:
            return values[name]
        node = circuit.node(name)
        kind = node.gate_type.value
        if stuck is not None and name == stuck[0]:
            result = bool(stuck[1])
        elif kind == "INPUT":
            result = bool(vector[name])
        elif kind in ("CONST0", "CONST1"):
            result = kind == "CONST1"
        else:
            result = _gate(kind, [value(f) for f in node.fanins])
        values[name] = result
        return result

    return [value(out) for out in circuit.outputs]


def vector_detects(circuit, node: str, stuck_value: bool,
                   vector: Dict[str, bool]) -> bool:
    """True when *vector* tells the good circuit from the faulty one."""
    return (simulate_outputs(circuit, vector)
            != simulate_outputs(circuit, vector, (node, stuck_value)))


def dimacs_text(num_vars: int, clauses: Sequence[Sequence[int]]) -> str:
    """DIMACS CNF text, written here rather than by the program."""
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"

