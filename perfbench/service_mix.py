"""``service-mix``: the end-to-end request path, client -> ``repro serve``
-> worker -> verdict.

The run starts ``python -m repro serve --port 0 --workers 2`` and
drives it with two closed-loop TCP ``ServiceClient`` connections from
one process -- the way an EDA flow waits for each verdict before it
asks the next query.  Each set-up starts a fresh server (cold cache)
and the stream of 200 jobs is sent to it:

* fresh jobs (140), each a formula the server has not seen:
  - ``php``: pigeonhole 5 and 6, each uncertified and certified;
  - ``miter``: ripple-carry vs carry-select adder miters, widths 16-24
    with carry-select blocks 2-4 (27 formulas);
  - ``rksat120``: a fixed catalogue of 24 random 3-SAT instances at
    120 variables and ratio 4.26 (generator seeds 120000-120023).
    They are the large jobs that set the latency tail; a fixed
    catalogue keeps ``p95_ms`` a property of the program rather than
    of which hard draws a seed happened to make;
  - ``easy``: random 3-SAT at 400 variables and ratio 2.5, drawn
    fresh from the workload seed (85 jobs, per-job overhead bound);
* resubmissions (60), each sent only after its original completed:
  30 exact repeats and 30 variable-renumbered repeats (an
  order-preserving renumbering with gaps, which the canonical cache
  key treats as the same formula).

About a quarter of the jobs ask ``certify: true``; half of each class
travels as DIMACS text, the rest as clause lists.  The seed decides the order,
the transport, the easy draws, which originals are resubmitted and
the renumbering maps; the per-class counts are fixed, and so is the
number of renumbered repeats of SAT originals, so the stream's make-up
is the same for every seed.

Known defect (ROADMAP item 1): a renumbered repeat of a SAT job is
answered from the result cache with the original's model, which does
not satisfy the renumbered clauses.  The 17 such jobs count in
``failed`` as the known defect; the stream keeps them on purpose.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (ROOT, SRC, WORK_DIR, Outcome, Speed, Timing,
                    dimacs_text, mean, model_satisfies, percentile, wall)

CLIENTS = 2
RKSAT120_SEEDS = tuple(range(120000, 120024))
EASY_JOBS = 85
#: (class, exact repeats, renumbered repeats) per run.  Renumbered
#: rksat120 repeats are split evenly between SAT and UNSAT originals
#: (by pinned verdict).
RESUBMIT = (("php", 3, 3), ("miter", 7, 7), ("rksat120", 6, 6),
            ("easy", 14, 14))
START_TIMEOUT = 60.0


@dataclass(eq=False)
class Job:
    index: int
    cls: str
    kind: str                   # fresh | exact | renumbered
    num_vars: int
    clauses: List[List[int]]
    certify: bool
    dimacs: bool
    expected: Optional[str]     # SATISFIABLE | UNSATISFIABLE | None
    original: Optional[int] = None
    payload: Optional[Dict] = None

    def make_payload(self, seed: int) -> None:
        body = {"op": "submit", "id": f"s{seed}-j{self.index}",
                "tenant": "bench", "certify": self.certify}
        if self.dimacs:
            body["dimacs"] = dimacs_text(self.num_vars, self.clauses)
        else:
            body["clauses"] = self.clauses
            body["num_vars"] = self.num_vars
        self.payload = body


def _fresh_formulas(seed: int, rng: random.Random,
                    pinned: Dict[str, str]):
    from repro.circuits.generators import (carry_select_adder,
                                           ripple_carry_adder)
    from repro.circuits.tseitin import encode_miter
    from repro.cnf.generators import pigeonhole, random_ksat_at_ratio

    unsat = "UNSATISFIABLE"
    for holes in (5, 6):
        for certify in (False, True):
            yield "php", pigeonhole(holes), certify, unsat
    index = 0
    for width in range(16, 25):
        for block in (2, 3, 4):
            formula = encode_miter(ripple_carry_adder(width),
                                   carry_select_adder(width, block)
                                   ).formula
            yield "miter", formula, index % 4 == 0, unsat
            index += 1
    for index, gen_seed in enumerate(RKSAT120_SEEDS):
        formula = random_ksat_at_ratio(120, 4.26, 3, seed=gen_seed)
        yield ("rksat120", formula, index % 4 == 0,
               pinned.get(f"rksat120-{gen_seed}"))
    certified = set(rng.sample(range(EASY_JOBS), EASY_JOBS // 4))
    for index in range(EASY_JOBS):
        formula = random_ksat_at_ratio(400, 2.5, 3,
                                       seed=rng.randrange(1 << 30))
        yield "easy", formula, index in certified, "SATISFIABLE"


def _renumber(job: Job, rng: random.Random) -> Tuple[int, List[List[int]]]:
    """An order-preserving renumbering with random gaps."""
    mapping, new = {}, rng.randrange(1, 8)
    for var in range(1, job.num_vars + 1):
        mapping[var] = new
        new += 1 + rng.randrange(3)
    clauses = [[mapping[abs(lit)] * (1 if lit > 0 else -1)
                for lit in clause] for clause in job.clauses]
    return new - 1, clauses


def build_stream(seed: int, pinned: Dict[str, str]) -> List[Job]:
    rng = random.Random(f"service-mix-{seed}")
    fresh = []
    for cls, formula, certify, expected in _fresh_formulas(seed, rng,
                                                           pinned):
        fresh.append(Job(0, cls, "fresh", formula.num_vars,
                         [list(c) for c in formula.clauses], certify,
                         False, expected))
    for cls in {job.cls for job in fresh}:
        members = [job for job in fresh if job.cls == cls]
        for job in rng.sample(members, len(members) // 2):
            job.dimacs = True
    rng.shuffle(fresh)
    order: List[Job] = list(fresh)
    resubmits = []
    for cls, exact, renumbered in RESUBMIT:
        pool = [job for job in fresh if job.cls == cls]
        for job in _pick(pool, exact, rng):
            resubmits.append(("exact", job))
        if cls == "rksat120":
            picks = []
            for verdict in ("SATISFIABLE", "UNSATISFIABLE"):
                picks += _pick([j for j in pool if j.expected == verdict],
                               renumbered // 2, rng)
        else:
            picks = _pick(pool, renumbered, rng)
        resubmits += [("renumbered", job) for job in picks]
    rng.shuffle(resubmits)
    for kind, original in resubmits:
        if kind == "exact":
            num_vars, clauses = original.num_vars, original.clauses
        else:
            num_vars, clauses = _renumber(original, rng)
        job = Job(0, original.cls, kind, num_vars, clauses,
                  original.certify, original.dimacs, original.expected)
        job.original = id(original)
        at = order.index(original) + 4
        order.insert(rng.randint(min(at, len(order)), len(order)), job)
    by_identity = {}
    for index, job in enumerate(order):
        by_identity[id(job)] = index
    for index, job in enumerate(order):
        job.index = index
        if job.original is not None:
            job.original = by_identity[job.original]
        job.make_payload(seed)
    return order


def _pick(pool: List[Job], count: int, rng: random.Random) -> List[Job]:
    if count <= len(pool):
        return rng.sample(pool, count)
    return [rng.choice(pool) for _ in range(count)]


# -- server lifecycle --------------------------------------------------

def start_server():
    """Start ``repro serve`` on an ephemeral port; returns
    ``(process, port, stderr_path)``.  The server's temporary files
    (proofs of certified jobs) go to a directory of its own."""
    tmp = tempfile.mkdtemp(prefix="server-", dir=WORK_DIR)
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmp,
               PYTHONDONTWRITEBYTECODE="1")
    stderr_path = os.path.join(tmp, "stderr.txt")
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(CLIENTS)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr)
    line: List[bytes] = []
    reader = threading.Thread(
        target=lambda: line.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(START_TIMEOUT)
    text = line[0].decode() if line else ""
    if not text.startswith("listening on "):
        stop_process(proc)
        raise RuntimeError(f"server did not start: {text!r}")
    port = int(text.rsplit(":", 1)[1])
    from repro.service.client import ServiceClient
    with ServiceClient(port=port) as client:
        client.ping()
    return proc, port, stderr_path


def stop_process(proc) -> None:
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def shutdown_server(server) -> List[str]:
    """Drain and stop the server; returns notes on its stderr."""
    from repro.service.client import ServiceClient
    proc, port, stderr_path = server
    try:
        with ServiceClient(port=port) as client:
            client.shutdown(grace=10.0)
    finally:
        stop_process(proc)
    with open(stderr_path, "rb") as handle:
        err = handle.read().decode(errors="replace")
    if "Traceback" in err:
        return ["server printed a traceback at shutdown: "
                + err.strip().splitlines()[-1]]
    return []


def setup(seed: int, pinned: Dict[str, str]) -> Dict:
    """Build the job stream and start a server for it."""
    return {"stream": build_stream(seed, pinned),
            "server": start_server()}


def teardown(inst: Dict) -> List[str]:
    server, inst["server"] = inst.get("server"), None
    return shutdown_server(server) if server is not None else []


# -- the stream ----------------------------------------------------------

def _audit(job: Job, response: Dict, out: Outcome) -> bool:
    """Check one answer; returns True for a cached answer that fails
    the audit (a bad cache hit)."""
    label = f"job {job.index} ({job.cls}, {job.kind})"
    if response.get("kind") != "result":
        out.fail(f"{label}: {response.get('kind')} "
                 f"{response.get('code')}")
        return False
    body = response["body"]
    status = body["status"]
    if status not in ("SATISFIABLE", "UNSATISFIABLE"):
        out.fail(f"{label}: {status} ({body.get('degraded_reason')})")
        return False
    if job.expected is not None and status != job.expected:
        out.fail(f"{label}: {status}, expected {job.expected}")
        return bool(response.get("cached"))
    if status == "SATISFIABLE" and not model_satisfies(
            job.clauses, body.get("model") or []):
        known = bool(response.get("cached")) and job.kind == "renumbered"
        out.fail(f"{label}: SAT model fails the audit"
                 + (f" (cached model of job {job.original}; ROADMAP "
                    f"item 1)" if known else ""), known=known)
        return bool(response.get("cached"))
    if job.certify and not (body.get("certificate") or {}).get("valid"):
        out.fail(f"{label}: certify requested, certificate "
                 f"{body.get('certificate')}")
    return False


def one_pass(inst: Dict, out: Outcome, expected) -> Dict:
    from repro.service.client import ServiceClient

    stream = inst["stream"]
    port = inst["server"][1]
    done = [threading.Event() for _ in stream]
    timings: List[Optional[Timing]] = [None] * len(stream)
    responses: List[Optional[Dict]] = [None] * len(stream)
    lock = threading.Lock()
    cursor = [0]
    errors: List[str] = []

    def client_loop() -> None:
        try:
            with ServiceClient(port=port) as client:
                while True:
                    with lock:
                        index = cursor[0]
                        cursor[0] += 1
                    if index >= len(stream):
                        return
                    job = stream[index]
                    try:
                        if job.original is not None:
                            done[job.original].wait(120)
                        start = wall()
                        responses[index] = client.request(job.payload)
                        end = wall()
                        timings[index] = Timing(end - start, start, end)
                    finally:
                        done[index].set()
        except Exception as exc:          # reported, never swallowed
            errors.append(f"client: {exc!r}")

    threads = [threading.Thread(target=client_loop)
               for _ in range(CLIENTS)]
    with Speed(in_thread=False) as speed:
        start = wall()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = wall() - start
    for error in errors:
        out.fail(error)
    bad_hits = 0
    for job, response in zip(stream, responses):
        out.attempted += 1
        if response is None:
            out.fail(f"job {job.index}: no response")
            continue
        bad_hits += _audit(job, response, out)
    done_timings = [t for t in timings if t is not None]
    whole = Timing(elapsed, start, start + elapsed)
    return {"main_s": speed.scaled(whole),
            "alt_s": sum(speed.scaled(timings[job.index]) for job in stream
                         if job.kind != "fresh" and timings[job.index]),
            "ops_ms": [speed.scaled(t) * 1e3 for t in done_timings],
            "latency": [t.seconds if t else 0.0 for t in timings],
            "responses": responses, "bad_hits": bad_hits,
            "kernel_s": speed.mean_kernel()}


# -- per-layer attribution -------------------------------------------------

def _histogram_quantile(text: str, family: str, q: float) -> float:
    """Prometheus-style quantile of a histogram summed over labels."""
    buckets: Dict[float, float] = {}
    for line in text.splitlines():
        if not line.startswith(family + "_bucket{"):
            continue
        labels, value = line.rsplit(" ", 1)
        le = labels.split('le="', 1)[1].split('"', 1)[0]
        bound = float("inf") if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + float(value)
    bounds = sorted(buckets)
    if not bounds or buckets[bounds[-1]] == 0:
        return 0.0
    rank = q * buckets[bounds[-1]]
    lower, below = 0.0, 0.0
    for bound in bounds:
        if buckets[bound] >= rank:
            if bound == float("inf"):
                return lower
            share = (rank - below) / max(buckets[bound] - below, 1e-12)
            return lower + (bound - lower) * share
        lower, below = bound, buckets[bound]
    return lower


def layers(inst: Dict, rec: Dict, out: Outcome) -> Dict[str, float]:
    """Read the server's ``status`` and ``metrics`` ops, then time each
    fresh job's stages standalone, in process, through the public entry
    points the server calls."""
    from repro.cnf.canonical import clauses_key
    from repro.cnf.formula import CNFFormula
    from repro.service.protocol import encode_message, parse_submit
    from repro.solvers.portfolio import PortfolioConfig
    from repro.verify.checker import check_proof_steps
    from repro.verify.drat import MemoryProofSink, attach_proof_stream

    from repro.service.client import ServiceClient

    with ServiceClient(port=inst["server"][1]) as client:
        status = client.status()
        text = client.metrics()["text"]
    config = PortfolioConfig(name="service-cdcl")
    stages = {"parse": [], "key": [], "solve": [], "check": [],
              "encode": [], "rest": []}
    fresh_latency = []
    for job in inst["stream"]:
        response = rec["responses"][job.index]
        if job.kind != "fresh" or response is None \
                or response.get("kind") != "result":
            continue
        start = wall()
        request = parse_submit(job.payload)
        parsed = wall()
        clauses_key(request.clause_lits, request.num_vars)
        keyed = wall()
        formula = CNFFormula(num_vars=request.num_vars,
                             clauses=request.clause_lits)
        solver = config.build_solver(formula)
        sink = None
        if job.certify:
            sink = attach_proof_stream(solver, MemoryProofSink())
        result = solver.solve()
        solved = wall()
        if sink is not None:
            sink.close()
            if result.status.name == "UNSATISFIABLE":
                check_proof_steps(formula, sink.events)
        checked = wall()
        encode_message(response)
        encoded = wall()
        parts = {"parse": parsed - start, "key": keyed - parsed,
                 "solve": solved - keyed, "check": checked - solved,
                 "encode": encoded - checked}
        for name, value in parts.items():
            stages[name].append(value)
        lat = rec["latency"][job.index]
        fresh_latency.append(lat)
        stages["rest"].append(lat - sum(parts.values()))
    cache = status["cache"]
    total = sum(fresh_latency)
    res: Dict[str, float] = {
        "protocol.parse_ms": mean(stages["parse"]) * 1e3,
        "protocol.encode_ms": mean(stages["encode"]) * 1e3,
        "canonical.key_ms": mean(stages["key"]) * 1e3,
        "cache.hit_ratio": cache["hits"] / max(1, cache["hits"]
                                               + cache["misses"]),
        "cache.bad_hits": rec["bad_hits"],
        "admission.queue_wait_ms.p50": 1e3 * _histogram_quantile(
            text, "service_queue_wait_seconds", 0.50),
        "admission.queue_wait_ms.p95": 1e3 * _histogram_quantile(
            text, "service_queue_wait_seconds", 0.95),
        "service.unattributed_ms.p50": percentile(stages["rest"], 50)
        * 1e3,
        "service.retries": status["jobs"]["retries"],
        "share.protocol": (sum(stages["parse"]) + sum(stages["encode"]))
        / total,
        "share.canonical": sum(stages["key"]) / total,
        "share.cdcl": sum(stages["solve"]) / total,
        "share.checker": sum(stages["check"]) / total,
        "share.unattributed": sum(stages["rest"]) / total,
        "speed.kernel_ms": rec["kernel_s"] * 1e3,
    }
    return res
