"""The durable job journal and service crash recovery (PR 10).

Covers :mod:`repro.service.journal` replay semantics (write-ahead
records, first-result-wins, corrupt-line tolerance), the server's
journal integration (accepted submissions and terminal results logged
write-ahead, pending jobs re-enqueued on restart, terminal responses
re-served idempotently, cache re-seeded byte-identically), the
``query``/reattach protocol op, and warm service retries seeded from
piggybacked worker checkpoints -- including the corrupt-checkpoint
demotion to a cold restart that must never lose the job.
"""

from __future__ import annotations

import json

import pytest

from repro.cnf.generators import pigeonhole
from repro.runtime.faults import ServiceFaultPlan
from repro.service import (
    InProcessClient,
    JobJournal,
    NOT_FOUND,
    ServiceConfig,
    replay_journal,
)


def clause_payload(formula):
    return {"clauses": [list(c) for c in formula.clauses],
            "num_vars": formula.num_vars}


def fast_config(**overrides) -> ServiceConfig:
    defaults = dict(max_workers=2, queue_depth=8, hang_timeout=0.6,
                    default_deadline=30.0, backoff_seconds=0.01,
                    poll_interval=0.01, progress_interval=0.05,
                    worker_check_interval=16, grace_seconds=5.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ----------------------------------------------------------------------
# Journal file semantics
# ----------------------------------------------------------------------

class TestReplayJournal:
    def test_missing_file_is_empty(self, tmp_path):
        replay = replay_journal(str(tmp_path / "nope.jsonl"))
        assert replay.terminal == {} and replay.pending == {}
        assert replay.records == 0 and replay.corrupt == 0

    def test_submitted_without_result_is_pending(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.record_submitted("a", {"op": "submit", "id": "a"})
        journal.close()
        replay = replay_journal(journal.path)
        assert list(replay.pending) == ["a"]
        assert replay.terminal == {}

    def test_result_makes_job_terminal(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.record_submitted("a", {"op": "submit", "id": "a"})
        journal.record_result("a", {"kind": "result", "id": "a"})
        journal.close()
        replay = replay_journal(journal.path)
        assert replay.pending == {}
        assert replay.terminal["a"]["kind"] == "result"
        assert replay.requests["a"]["id"] == "a"

    def test_first_result_wins_no_verdict_flips(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        journal.record_result("a", {"verdict": "first"})
        journal.record_result("a", {"verdict": "second"})
        journal.close()
        replay = replay_journal(path)
        assert replay.terminal["a"]["verdict"] == "first"

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = JobJournal(path)
        journal.record_submitted("a", {"op": "submit", "id": "a"})
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "result", "id": "a", "respo')
        replay = replay_journal(path)
        assert replay.corrupt == 1
        assert list(replay.pending) == ["a"]   # not flipped terminal

    def test_malformed_records_are_counted_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1, 2, 3]\n")                        # not a dict
            fh.write('{"kind": "submitted", "id": 5}\n')   # bad id
            fh.write('{"kind": "weird", "id": "a"}\n')     # bad kind
            fh.write(json.dumps({"kind": "submitted", "id": "ok",
                                 "request": {}}) + "\n")
        replay = replay_journal(path)
        assert replay.corrupt == 3
        assert replay.records == 1 and list(replay.pending) == ["ok"]

    def test_write_errors_counted_never_raised(self, tmp_path):
        journal = JobJournal(str(tmp_path))    # a directory: open fails
        journal.record_submitted("a", {})
        assert journal.write_errors == 1
        assert journal.records_written == 0


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestServerJournal:
    def test_submissions_and_results_journaled_write_ahead(
            self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        formula = pigeonhole(3)
        with InProcessClient(fast_config(), journal=path) as client:
            response = client.submit("job-1",
                                     **clause_payload(formula))
            assert response["body"]["status"] == "UNSATISFIABLE"
            status = client.status()
            assert status["journal"]["enabled"] is True
            assert status["journal"]["records_written"] == 2
            assert status["journal"]["terminal"] == 1
        records = [json.loads(line) for line in open(path)]
        assert [r["kind"] for r in records] == ["submitted", "result"]
        assert records[0]["request"]["id"] == "job-1"
        assert records[1]["response"]["body"]["status"] \
            == "UNSATISFIABLE"

    def test_restart_reserves_terminal_and_reseeds_cache(
            self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        formula = pigeonhole(3)
        with InProcessClient(fast_config(), journal=path) as client:
            first = client.submit("job-1", **clause_payload(formula))
        records = [json.loads(line) for line in open(path)]

        with InProcessClient(fast_config(), journal=path) as client:
            # query finds the journaled verdict without re-running.
            replayed = client.query("job-1")
            assert replayed["kind"] == "result"
            assert replayed["body"] == first["body"]
            # Same formula, new id: answered from the re-seeded cache
            # with a body byte-identical to the journaled one.
            cached = client.submit("job-2", **clause_payload(formula))
            assert cached["cached"] is True
            assert cached["body"] == records[1]["response"]["body"]
            # Re-submitting the terminal id is idempotent.
            again = client.submit("job-1", **clause_payload(formula))
            assert again["body"] == first["body"]
            assert client.status()["jobs"]["done"] == 0   # no re-run

    def test_reseeded_cache_maps_renumbered_models(self, tmp_path):
        # Journal replay re-seeds the cache through the same audited
        # path as a fresh answer: a renumbered resubmission after a
        # restart gets a model over its own variables.
        path = str(tmp_path / "journal.jsonl")
        with InProcessClient(fast_config(), journal=path) as client:
            first = client.submit("job-1", clauses=[[1, 2], [-1, 2]],
                                  num_vars=2)
        with InProcessClient(fast_config(), journal=path) as client:
            cached = client.submit("job-2", clauses=[[3, 8], [-3, 8]],
                                   num_vars=8)
        assert first["body"]["status"] == "SATISFIABLE"
        assert cached["cached"] is True
        model = {abs(lit): lit > 0 for lit in cached["body"]["model"]}
        assert model[8] is True
        assert set(model) <= {3, 8}

    def test_restart_reenqueues_pending_job(self, tmp_path):
        # A server killed between admission and verdict leaves only a
        # "submitted" record; the restarted server must finish the job.
        path = str(tmp_path / "journal.jsonl")
        formula = pigeonhole(3)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "kind": "submitted", "id": "job-lost",
                "request": {"op": "submit", "id": "job-lost",
                            **clause_payload(formula)}}) + "\n")
        with InProcessClient(fast_config(), journal=path) as client:
            status = client.status()
            assert status["journal"]["recovered"] == 1
            response = client.query("job-lost")
            assert response["kind"] == "result"
            assert response["body"]["status"] == "UNSATISFIABLE"
        # The recovered run journaled its own terminal record, so a
        # second restart re-serves instead of re-running.
        replay = replay_journal(path)
        assert replay.pending == {}
        assert "job-lost" in replay.terminal

    def test_query_unknown_job_is_not_found(self):
        with InProcessClient(fast_config()) as client:
            response = client.query("never-heard-of-it")
            assert response["kind"] == "error"
            assert response["code"] == NOT_FOUND

    def test_unjournaled_server_still_answers_query(self):
        with InProcessClient(fast_config()) as client:
            formula = pigeonhole(3)
            client.submit("job-1", **clause_payload(formula))
            response = client.query("job-1")
            assert response["body"]["status"] == "UNSATISFIABLE"


# ----------------------------------------------------------------------
# Warm service retries (checkpoint piggyback)
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestWarmServiceRetry:
    def test_killed_attempt_retries_warm(self):
        plan = ServiceFaultPlan(kills={"job-w": 1},
                                kill_after_checkpoints=2)
        formula = pigeonhole(6)
        with InProcessClient(fast_config(), fault_plan=plan) as client:
            response = client.submit("job-w", **clause_payload(formula))
            body = response["body"]
            assert body["status"] == "UNSATISFIABLE"
            assert body["attempts"] == 2
            assert body["stats"]["warm_resumes"] >= 1
            metrics = client.metrics()["text"]
            assert 'service_warm_retries_total{tenant="default"} 1' \
                in metrics
            assert "service_checkpoints_received_total" in metrics

    def test_corrupt_checkpoint_demotes_to_cold_without_losing_job(
            self):
        plan = ServiceFaultPlan(kills={"job-c": 1},
                                corrupt_checkpoints={"job-c": 3},
                                kill_after_checkpoints=2)
        formula = pigeonhole(6)
        with InProcessClient(fast_config(), fault_plan=plan) as client:
            response = client.submit("job-c", **clause_payload(formula))
            body = response["body"]
            # The job completes; the retry just could not warm-start.
            assert body["status"] == "UNSATISFIABLE"
            assert body["attempts"] == 2
            assert body["stats"]["warm_resumes"] == 0

    def test_warm_retry_unsat_remains_certifiable(self):
        # Certification after a warm restart: the resumed worker's
        # DRUP proof (imported prefix + new derivations) must pass
        # the server's independent checker, not be demoted.
        plan = ServiceFaultPlan(kills={"job-cert": 1},
                                kill_after_checkpoints=4)
        formula = pigeonhole(5)
        with InProcessClient(fast_config(), fault_plan=plan) as client:
            response = client.submit("job-cert", certify=True,
                                     **clause_payload(formula))
            body = response["body"]
            assert body["status"] == "UNSATISFIABLE"
            assert body["degraded"] is False
            assert body["certificate"]["valid"] is True
            assert body["certificate"]["kind"] == "proof"
