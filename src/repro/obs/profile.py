"""Replay recorded JSONL traces into a per-phase effort report.

This is the consumer half of :mod:`repro.obs.trace`: given a trace
file, aggregate the spans into where-did-the-time-go totals, fold the
progress snapshots into per-source effort rates (conflicts/s,
decisions/s, propagations/s) and peaks (decision level, learned-DB
size, RSS), summarize the clause-DB lifecycle (learned-clause and
arena-occupancy peaks from progress snapshots, reclaim totals from
``cdcl.gc`` events), and count the point events (restarts, ATPG
faults, BMC depths).  The ``repro profile`` CLI subcommand prints
:func:`render_report`'s text and exits non-zero when the trace
violates the documented schema.

Given *several* traces -- the server's plus the per-attempt worker
files it points at -- :func:`read_traces` merges them onto one time
axis (rebasing each trace's relative timestamps by the wall-clock
epoch its ``trace.meta`` event recorded) and :func:`build_report`
correlates them into per-job timelines: every event carrying a
``job`` attr (server-side ``service.*`` events, worker-side spans
stamped by the tracer's *context*) lands in that job's timeline, so
the report shows queue wait, each solve attempt, retries, streamed
progress and the reply as one story per job.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import validate_event

#: Progress attrs treated as monotonically increasing totals, for
#: which the report derives average rates.
_RATE_ATTRS = ("decisions", "conflicts", "propagations", "flips")

#: Progress attrs treated as instantaneous readings, for which the
#: report keeps the observed peak.
_PEAK_ATTRS = ("decision_level", "learned_db", "trail", "rss_mb",
               "unsat", "arena_lits", "arena_fill")


def read_trace(path: str) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Parse and validate a JSONL trace file.

    Returns ``(events, problems)``: every successfully decoded event
    (schema-invalid ones included, so a report can still be built from
    an imperfect trace) and the list of line-prefixed schema problems.
    """
    events: List[Dict[str, Any]] = []
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not JSON ({exc.msg})")
                continue
            for problem in validate_event(event):
                problems.append(f"line {lineno}: {problem}")
            if isinstance(event, dict):
                events.append(event)
    return events, problems


def _trace_epoch(events: List[Dict[str, Any]]) -> Optional[float]:
    """The wall-clock instant of ``ts == 0``, from ``trace.meta``."""
    for event in events:
        if event.get("kind") == "event" \
                and event.get("name") == "trace.meta":
            attrs = event.get("attrs")
            if isinstance(attrs, dict):
                epoch = attrs.get("epoch_unix")
                if isinstance(epoch, (int, float)) \
                        and not isinstance(epoch, bool):
                    return float(epoch)
    return None


def read_traces(paths: List[str]
                ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Read several trace files onto one merged time axis.

    Each file is parsed and schema-validated exactly like
    :func:`read_trace` (problems are prefixed with the file name when
    more than one file is given).  Events are then rebased: a trace
    whose ``trace.meta`` event recorded ``epoch_unix`` has that offset
    (relative to the earliest epoch across the set) added to every
    ``ts``, so server and worker events interleave in true wall-clock
    order.  After validation -- the top-level schema is closed -- each
    event's attrs gain a ``source`` entry naming the originating file,
    and the merged list is sorted by ``ts``.

    With a single path this is :func:`read_trace` plus the ``source``
    annotation; timestamps are never shifted.
    """
    per_file: List[Tuple[str, List[Dict[str, Any]],
                         Optional[float]]] = []
    problems: List[str] = []
    for path in paths:
        events, file_problems = read_trace(path)
        label = os.path.basename(path)
        if len(paths) > 1:
            problems.extend(f"{label}: {p}" for p in file_problems)
        else:
            problems.extend(file_problems)
        per_file.append((label, events, _trace_epoch(events)))

    epochs = [epoch for _, _, epoch in per_file if epoch is not None]
    base = min(epochs) if epochs else None
    if len(per_file) > 1:
        for label, events, epoch in per_file:
            if epoch is None and events:
                problems.append(
                    f"{label}: no trace.meta event; timestamps "
                    f"merged without rebasing")

    merged: List[Dict[str, Any]] = []
    for label, events, epoch in per_file:
        offset = (epoch - base) if (len(per_file) > 1
                                    and epoch is not None
                                    and base is not None) else 0.0
        for event in events:
            ts = event.get("ts")
            if offset and isinstance(ts, (int, float)) \
                    and not isinstance(ts, bool):
                event["ts"] = round(float(ts) + offset, 6)
            attrs = event.get("attrs")
            if isinstance(attrs, dict):
                attrs.setdefault("source", label)
            merged.append(event)
    merged.sort(key=lambda e: e.get("ts")
                if isinstance(e.get("ts"), (int, float))
                and not isinstance(e.get("ts"), bool) else 0.0)
    return merged, problems


def _num(value: Any) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def build_job_timelines(events: List[Dict[str, Any]]
                        ) -> Dict[str, Dict[str, Any]]:
    """Correlate merged server+worker events into per-job timelines.

    Any event whose attrs carry a string ``job`` contributes:
    server-side ``service.submit``/``dispatch``/``retry``/
    ``progress``/``result``/``reject`` events fill the lifecycle
    fields, and worker-side ``cdcl.solve`` ``span_end`` events (which
    carry ``job``/``attempt`` via the worker tracer's context) become
    the per-attempt solve entries.  Jobs are returned in first-seen
    (submission) order; callers iterate the dict directly.
    """
    jobs: Dict[str, Dict[str, Any]] = {}

    def timeline(job: str) -> Dict[str, Any]:
        return jobs.setdefault(job, {
            "tenant": None, "submitted_ts": None,
            "queued_seconds": None, "dispatched_ts": None,
            "retries": [], "progress_frames": 0,
            "last_progress": None, "attempts": [],
            "result": None, "rejected": None})

    for event in events:
        attrs = event.get("attrs")
        if not isinstance(attrs, dict):
            continue
        job = attrs.get("job")
        if not isinstance(job, str):
            continue
        name = event.get("name")
        kind = event.get("kind")
        ts = _num(event.get("ts"))
        entry = timeline(job)
        tenant = attrs.get("tenant")
        if isinstance(tenant, str):
            entry["tenant"] = tenant
        if kind == "event" and name == "service.submit":
            if entry["submitted_ts"] is None:
                entry["submitted_ts"] = ts
        elif kind == "event" and name == "service.dispatch":
            entry["dispatched_ts"] = ts
            queued = _num(attrs.get("queued_seconds"))
            if queued is not None:
                entry["queued_seconds"] = queued
        elif kind == "event" and name == "service.retry":
            entry["retries"].append({
                "attempt": attrs.get("attempt"),
                "failure": attrs.get("failure"),
                "backoff_seconds": _num(attrs.get("backoff_seconds")),
            })
        elif kind == "event" and name == "service.progress":
            entry["progress_frames"] += 1
            entry["last_progress"] = {
                key: attrs.get(key) for key in
                ("attempt", "seq", "elapsed", "conflicts",
                 "propagations") if key in attrs}
        elif kind == "event" and name == "service.result":
            entry["result"] = {
                "ts": ts, "status": attrs.get("status"),
                "attempts": attrs.get("attempts"),
                "cached": attrs.get("cached"),
                "degraded": attrs.get("degraded"),
                "wall_seconds": _num(attrs.get("wall_seconds")),
            }
        elif kind == "event" and name == "service.reject":
            entry["rejected"] = {"code": attrs.get("code"),
                                 "reason": attrs.get("reason")}
        elif kind == "span_end" and name == "cdcl.solve":
            entry["attempts"].append({
                "attempt": attrs.get("attempt"),
                "ts": ts,
                "duration": _num(attrs.get("duration")),
                "status": attrs.get("status"),
                "conflicts": attrs.get("conflicts"),
                "source": attrs.get("source"),
            })
    return jobs


def build_report(events: List[Dict[str, Any]],
                 problems: List[str]) -> Dict[str, Any]:
    """Aggregate decoded trace events into a report dict.

    The report has keys ``num_events``, ``problems``, ``wall``
    (trace extent in seconds), ``spans`` (per-name count / total /
    max duration), ``progress`` (per-name sample count, span of
    samples, per-attr totals with rates, per-attr peaks) and
    ``events`` (per-name point-event counts).
    """
    spans: Dict[str, Dict[str, Any]] = {}
    progress: Dict[str, Dict[str, Any]] = {}
    counts: Dict[str, int] = {}
    gc: Dict[str, Any] = {"collections": 0, "reclaimed_ints": 0,
                          "collected_clauses": 0, "min_fill": None,
                          "last": None}
    verify: Dict[str, Any] = {"checks": 0, "valid": 0, "invalid": 0,
                              "steps": 0, "bytes": 0,
                              "check_seconds": 0.0}
    inprocess: Dict[str, Any] = {"runs": 0, "removed": 0,
                                 "strengthened": 0, "reclaimed_lits": 0,
                                 "eliminated": 0, "units": 0,
                                 "seconds": 0.0}
    service: Dict[str, Any] = {"results": 0, "statuses": {},
                               "cached": 0, "degraded": 0,
                               "attempts": 0, "retries": 0,
                               "wall_seconds": 0.0, "rejects": {}}
    last_ts = 0.0

    for event in events:
        kind = event.get("kind")
        name = event.get("name")
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            last_ts = max(last_ts, float(ts))
        if not isinstance(name, str):
            continue
        if kind == "span_end":
            attrs = event.get("attrs")
            duration = attrs.get("duration") \
                if isinstance(attrs, dict) else None
            if not isinstance(duration, (int, float)) \
                    or isinstance(duration, bool):
                continue
            agg = spans.setdefault(
                name, {"count": 0, "total": 0.0, "max": 0.0})
            agg["count"] += 1
            agg["total"] += float(duration)
            agg["max"] = max(agg["max"], float(duration))
        elif kind == "progress":
            attrs = event.get("attrs")
            if not isinstance(attrs, dict):
                continue
            agg = progress.setdefault(
                name, {"samples": 0, "first_ts": None, "last_ts": None,
                       "totals": {}, "peaks": {}})
            agg["samples"] += 1
            if isinstance(ts, (int, float)) \
                    and not isinstance(ts, bool):
                if agg["first_ts"] is None:
                    agg["first_ts"] = float(ts)
                agg["last_ts"] = float(ts)
            for attr in _RATE_ATTRS:
                value = attrs.get(attr)
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    agg["totals"][attr] = \
                        agg["totals"].get(attr, 0) + value
            for attr in _PEAK_ATTRS:
                value = attrs.get(attr)
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    prev = agg["peaks"].get(attr)
                    if prev is None or value > prev:
                        agg["peaks"][attr] = value
        elif kind == "event":
            counts[name] = counts.get(name, 0) + 1
            if name == "cdcl.gc":
                attrs = event.get("attrs")
                if isinstance(attrs, dict):
                    gc["collections"] += 1
                    for src, dst in (("reclaimed_ints",
                                      "reclaimed_ints"),
                                     ("collected",
                                      "collected_clauses")):
                        value = attrs.get(src)
                        if isinstance(value, int) \
                                and not isinstance(value, bool):
                            gc[dst] += value
                    fill = attrs.get("fill")
                    if isinstance(fill, (int, float)) \
                            and not isinstance(fill, bool):
                        if gc["min_fill"] is None \
                                or fill < gc["min_fill"]:
                            gc["min_fill"] = fill
                    gc["last"] = {k: attrs[k] for k
                                  in ("live_ints", "clauses",
                                      "learned_db")
                                  if k in attrs}
            elif name == "cdcl.inprocess":
                attrs = event.get("attrs")
                if isinstance(attrs, dict):
                    inprocess["runs"] += 1
                    for attr in ("removed", "strengthened",
                                 "reclaimed_lits", "eliminated",
                                 "units"):
                        value = attrs.get(attr)
                        if isinstance(value, int) \
                                and not isinstance(value, bool):
                            inprocess[attr] += value
                    seconds = attrs.get("seconds")
                    if isinstance(seconds, (int, float)) \
                            and not isinstance(seconds, bool):
                        inprocess["seconds"] += float(seconds)
            elif name == "service.result":
                attrs = event.get("attrs")
                if isinstance(attrs, dict):
                    service["results"] += 1
                    status = attrs.get("status")
                    if isinstance(status, str):
                        service["statuses"][status] = \
                            service["statuses"].get(status, 0) + 1
                    for src, dst in (("cached", "cached"),
                                     ("degraded", "degraded"),
                                     ("attempts", "attempts")):
                        value = attrs.get(src)
                        if isinstance(value, int) \
                                and not isinstance(value, bool):
                            service[dst] += value
                    wall = attrs.get("wall_seconds")
                    if isinstance(wall, (int, float)) \
                            and not isinstance(wall, bool):
                        service["wall_seconds"] += float(wall)
            elif name == "service.reject":
                attrs = event.get("attrs")
                if isinstance(attrs, dict):
                    code = attrs.get("code")
                    if isinstance(code, str):
                        service["rejects"][code] = \
                            service["rejects"].get(code, 0) + 1
            elif name == "service.retry":
                service["retries"] += 1
            elif name == "verify.check":
                attrs = event.get("attrs")
                if isinstance(attrs, dict):
                    verify["checks"] += 1
                    if attrs.get("valid") == 1:
                        verify["valid"] += 1
                    else:
                        verify["invalid"] += 1
                    for attr in ("steps", "bytes"):
                        value = attrs.get(attr)
                        if isinstance(value, int) \
                                and not isinstance(value, bool):
                            verify[attr] += value
                    seconds = attrs.get("check_seconds")
                    if isinstance(seconds, (int, float)) \
                            and not isinstance(seconds, bool):
                        verify["check_seconds"] += float(seconds)

    for agg in progress.values():
        first, last = agg["first_ts"], agg["last_ts"]
        window = (last - first) if (first is not None
                                    and last is not None) else 0.0
        agg["window"] = window
        agg["rates"] = {}
        if window > 0:
            for attr, total in agg["totals"].items():
                agg["rates"][attr] = total / window

    return {"num_events": len(events), "problems": list(problems),
            "wall": last_ts, "spans": spans, "progress": progress,
            "events": counts, "clause_db": gc, "certification": verify,
            "inprocessing": inprocess, "service": service,
            "jobs": build_job_timelines(events)}


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def render_report(report: Dict[str, Any]) -> str:
    """A human-readable effort report for :func:`build_report`'s dict."""
    lines: List[str] = []
    lines.append(f"trace: {report['num_events']} events over "
                 f"{_fmt(report['wall'])}s"
                 + (f", {len(report['problems'])} schema problem(s)"
                    if report["problems"] else ""))

    spans = report["spans"]
    if spans:
        lines.append("")
        lines.append("spans (where the time went):")
        grand = sum(agg["total"] for agg in spans.values())
        width = max(len(name) for name in spans)
        for name, agg in sorted(spans.items(),
                                key=lambda kv: -kv[1]["total"]):
            share = (100.0 * agg["total"] / grand) if grand > 0 else 0.0
            lines.append(
                f"  {name:<{width}}  x{agg['count']:<4d} "
                f"total {_fmt(agg['total'])}s  "
                f"max {_fmt(agg['max'])}s  ({share:.0f}%)")

    progress = report["progress"]
    if progress:
        lines.append("")
        lines.append("effort (from progress snapshots):")
        for name, agg in sorted(progress.items()):
            lines.append(f"  {name}: {agg['samples']} sample(s) over "
                         f"{_fmt(agg['window'])}s")
            for attr in _RATE_ATTRS:
                if attr in agg["totals"]:
                    total = agg["totals"][attr]
                    rate = agg["rates"].get(attr)
                    suffix = f" ({_fmt(rate)}/s)" if rate else ""
                    lines.append(
                        f"    {attr:<13} {_fmt(float(total))}{suffix}")
            for attr in _PEAK_ATTRS:
                if attr in agg["peaks"]:
                    lines.append(f"    peak {attr:<8} "
                                 f"{_fmt(float(agg['peaks'][attr]))}")

    gc = report.get("clause_db") or {}
    arena_seen = any("arena_lits" in agg.get("peaks", {})
                     for agg in progress.values())
    if gc.get("collections") or arena_seen:
        lines.append("")
        lines.append("clause DB (arena occupancy and GC):")
        for name, agg in sorted(progress.items()):
            peaks = agg.get("peaks", {})
            if "arena_lits" not in peaks and "learned_db" not in peaks:
                continue
            parts = []
            if "learned_db" in peaks:
                parts.append(
                    f"peak learned {_fmt(float(peaks['learned_db']))}")
            if "arena_lits" in peaks:
                parts.append(
                    f"peak arena {_fmt(float(peaks['arena_lits']))} "
                    f"lits")
            if "arena_fill" in peaks:
                parts.append(f"fill <= {peaks['arena_fill']:.2f}")
            lines.append(f"  {name}: " + ", ".join(parts))
        if gc.get("collections"):
            reclaim = (f", reclaimed {gc['reclaimed_ints']:,} ints / "
                       f"{gc['collected_clauses']:,} clauses"
                       if gc.get("reclaimed_ints") is not None else "")
            lines.append(f"  gc: {gc['collections']} collection(s)"
                         + reclaim)
            if gc.get("min_fill") is not None:
                lines.append(f"  gc: min fill {gc['min_fill']:.2f}")
            last = gc.get("last")
            if last:
                lines.append(
                    "  gc: after last collection "
                    + ", ".join(f"{k}={last[k]:,}" for k in
                                ("live_ints", "clauses", "learned_db")
                                if k in last))

    inprocess = report.get("inprocessing") or {}
    if inprocess.get("runs"):
        lines.append("")
        lines.append("inprocessing (in-search simplification):")
        lines.append(f"  runs: {inprocess['runs']} "
                     f"({_fmt(inprocess['seconds'])}s total)")
        lines.append(f"  clauses: {inprocess['removed']:,} removed, "
                     f"{inprocess['strengthened']:,} strengthened, "
                     f"{inprocess['reclaimed_lits']:,} literal slots "
                     f"reclaimed")
        lines.append(f"  variables: {inprocess['eliminated']:,} "
                     f"eliminated, {inprocess['units']:,} root units "
                     f"derived")

    service = report.get("service") or {}
    if service.get("results") or service.get("rejects"):
        lines.append("")
        lines.append("service (solve jobs):")
        if service.get("results"):
            statuses = ", ".join(
                f"{count} {status}" for status, count in
                sorted(service["statuses"].items()))
            lines.append(f"  answered: {service['results']} "
                         f"({statuses})")
            avg = service["wall_seconds"] / service["results"]
            lines.append(
                f"  latency: {_fmt(avg)}s avg; "
                f"{service['cached']} cache hit(s), "
                f"{service['degraded']} degraded, "
                f"{service['retries']} retried attempt(s)")
        for code, count in sorted(service.get("rejects", {}).items()):
            lines.append(f"  shed: {count} x {code}")

    jobs = report.get("jobs") or {}
    if jobs:
        lines.append("")
        lines.append("job timelines (server/worker correlated):")
        for job, entry in jobs.items():
            lines.extend(_render_job(job, entry))

    verify = report.get("certification") or {}
    if verify.get("checks"):
        lines.append("")
        lines.append("certification (independent proof/model checks):")
        lines.append(f"  checks: {verify['checks']} "
                     f"({verify['valid']} valid, "
                     f"{verify['invalid']} rejected)")
        lines.append(f"  proof volume: {verify['steps']:,} steps / "
                     f"{verify['bytes']:,} bytes")
        lines.append(f"  checker time: "
                     f"{_fmt(verify['check_seconds'])}s total"
                     + (f", {_fmt(verify['check_seconds'] / verify['checks'])}s"
                        f" avg" if verify["checks"] else ""))
        if verify["invalid"]:
            lines.append("  WARNING: rejected checks present -- some "
                         "answer was demoted")

    counts = report["events"]
    if counts:
        lines.append("")
        lines.append("events:")
        for name, count in sorted(counts.items()):
            lines.append(f"  {name}: {count}")

    if report["problems"]:
        lines.append("")
        lines.append("schema problems:")
        for problem in report["problems"][:20]:
            lines.append(f"  {problem}")
        hidden = len(report["problems"]) - 20
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")

    return "\n".join(lines)


def _render_job(job: str, entry: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    tenant = entry.get("tenant")
    head = f"  {job}" + (f" [{tenant}]" if tenant else "")
    submitted = entry.get("submitted_ts")
    if submitted is not None:
        head += f": submitted t={_fmt(submitted)}s"
    lines.append(head)
    if entry.get("rejected"):
        rej = entry["rejected"]
        lines.append(f"    rejected: {rej.get('code')} "
                     f"({rej.get('reason')})")
        return lines
    if entry.get("dispatched_ts") is not None:
        queued = entry.get("queued_seconds")
        wait = f"queued {_fmt(queued)}s -> " if queued is not None \
            else ""
        lines.append(f"    {wait}dispatched "
                     f"t={_fmt(entry['dispatched_ts'])}s")
    retries = {r.get("attempt"): r for r in entry.get("retries", [])}
    for attempt in entry.get("attempts", []):
        num = attempt.get("attempt")
        desc = f"    attempt {num}" if num is not None \
            else "    solve"
        if attempt.get("duration") is not None:
            desc += f": solve {_fmt(attempt['duration'])}s"
        if attempt.get("status"):
            desc += f" -> {attempt['status']}"
        conflicts = attempt.get("conflicts")
        if isinstance(conflicts, int) \
                and not isinstance(conflicts, bool):
            desc += f" ({conflicts:,} conflicts)"
        if attempt.get("source"):
            desc += f" [{attempt['source']}]"
        lines.append(desc)
        # service.retry carries the 1-based number of the attempt
        # that just failed; render it between that attempt and the
        # next one.
        retry = retries.get(num)
        if retry:
            backoff = retry.get("backoff_seconds")
            lines.append(
                f"    retry after {retry.get('failure')}"
                + (f" (backoff {_fmt(backoff)}s)"
                   if backoff is not None else ""))
    if not entry.get("attempts"):
        for retry in entry.get("retries", []):
            lines.append(
                f"    retry after {retry.get('failure')} "
                f"(attempt {retry.get('attempt')})")
    if entry.get("progress_frames"):
        last = entry.get("last_progress") or {}
        tail = ""
        conflicts = last.get("conflicts")
        if isinstance(conflicts, int) \
                and not isinstance(conflicts, bool):
            tail = f" (last at {conflicts:,} conflicts)"
        lines.append(f"    {entry['progress_frames']} progress "
                     f"frame(s) streamed{tail}")
    result = entry.get("result")
    if result:
        desc = f"    result {result.get('status')}"
        if result.get("ts") is not None:
            desc += f" t={_fmt(result['ts'])}s"
        extras = []
        if result.get("wall_seconds") is not None:
            extras.append(f"wall {_fmt(result['wall_seconds'])}s")
        attempts = result.get("attempts")
        if isinstance(attempts, int) \
                and not isinstance(attempts, bool):
            extras.append(f"{attempts} attempt(s)")
        if result.get("cached"):
            extras.append("cache hit")
        if result.get("degraded"):
            extras.append("degraded")
        if extras:
            desc += " (" + ", ".join(extras) + ")"
        lines.append(desc)
    return lines


def profile_trace(path: str) -> Tuple[str, List[str]]:
    """Read, aggregate and render *path*; returns ``(text, problems)``."""
    return profile_traces([path])


def profile_traces(paths: List[str]) -> Tuple[str, List[str]]:
    """Merge, aggregate and render several trace files.

    The multi-file form of :func:`profile_trace`: server and worker
    traces are merged onto one time axis (see :func:`read_traces`)
    before aggregation, so the rendered report's job timelines
    correlate both sides.  Returns ``(text, problems)``.
    """
    events, problems = read_traces(paths)
    report = build_report(events, problems)
    return render_report(report), problems
