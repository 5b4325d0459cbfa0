"""Tests for the `pres` command-line interface."""

import json

import pytest

from repro.cli import main


class TestBugs:
    def test_lists_all_thirteen(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 13
        assert "mysql-atom-log" in out
        assert "deadlock" in out


class TestFindSeed:
    def test_prints_a_seed(self, capsys):
        assert main(["find-seed", "openldap-deadlock"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.isdigit()

    def test_unknown_bug_is_an_error(self, capsys):
        assert main(["find-seed", "no-such-bug"]) == 2
        assert "known bugs" in capsys.readouterr().err


class TestRecord:
    def test_record_reports_stats(self, capsys):
        assert main(["record", "fft-order-sync", "--seed", "43"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "entries" in out

    def test_record_writes_sketch_json(self, capsys, tmp_path):
        out_file = tmp_path / "sketch.json"
        assert main(
            ["record", "fft-order-sync", "--seed", "43", "--out", str(out_file)]
        ) == 0
        payload = json.loads(out_file.read_text())
        assert payload["sketch"] == "sync"
        assert payload["entries"]

    def test_sketch_flag_selects_mechanism(self, capsys, tmp_path):
        out_file = tmp_path / "sketch.json"
        assert main(
            ["record", "fft-order-sync", "--seed", "43", "--sketch", "rw",
             "--out", str(out_file)]
        ) == 0
        assert json.loads(out_file.read_text())["sketch"] == "rw"


class TestReproduce:
    def test_full_pipeline_and_replay(self, capsys, tmp_path):
        log_file = tmp_path / "complete.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--out", str(log_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced in" in out
        assert log_file.exists()

        code = main(["replay", "pbzip2-order-free", "--log", str(log_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced:" in out

    def test_clean_seed_is_rejected(self, capsys):
        # seed 0 of fft does not fail
        code = main(["reproduce", "fft-order-sync", "--seed", "0"])
        assert code == 1
        assert "did not fail" in capsys.readouterr().err

    def test_no_feedback_flag_accepted(self, capsys):
        code = main(
            ["reproduce", "openldap-deadlock", "--seed", "0", "--no-feedback",
             "--max-attempts", "50"]
        )
        assert code == 0

    def test_jobs_flag_reproduces_on_a_pool(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--jobs", "2", "--max-attempts", "40"]
        )
        assert code == 0
        assert "reproduced in" in capsys.readouterr().out


class TestDiagnose:
    def test_diagnose_prints_report(self, capsys):
        code = main(["diagnose", "openldap-deadlock", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "failure: deadlock" in out
        assert "wait-for cycle" in out


class TestBench:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "t1" in out

    def test_bench_renders_a_table(self, capsys):
        assert main(["bench", "e6"]) == 0
        out = capsys.readouterr().out
        assert "sketch log size" in out
        assert "mysql-atom-log" in out

    def test_bench_unknown_experiment(self, capsys):
        assert main(["bench", "e99"]) == 2
        assert "available" in capsys.readouterr().err

    def test_bench_json_writes_machine_readable_results(self, capsys, tmp_path):
        assert main(["bench", "t1", "--json", "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results written to" in out
        payload = json.loads((tmp_path / "BENCH_t1.json").read_text())
        assert payload["experiment"] == "t1"
        assert len(payload["records"]) == 13
        assert all("failure_rate" in record for record in payload["records"])


class TestExecOut:
    def test_reproduce_saves_execution(self, capsys, tmp_path):
        exec_file = tmp_path / "repro.jsonl"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--exec-out", str(exec_file)]
        )
        assert code == 0
        from repro.sim.persist import read_trace

        trace = read_trace(str(exec_file))
        assert trace.failed
        assert trace.failure.kind.value == "crash"


class TestObservability:
    def test_reproduce_writes_chrome_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--trace-out", str(trace_file)]
        )
        assert code == 0
        assert "observability trace written" in capsys.readouterr().out
        payload = json.loads(trace_file.read_text())
        assert payload["traceEvents"]
        names = {e["name"] for e in payload["traceEvents"]}
        assert "reproduce" in names and "attempt" in names

    def test_reproduce_writes_metrics_snapshot(self, capsys, tmp_path):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--metrics-out", str(metrics_file)]
        )
        assert code == 0
        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["counters"]["attempts"] >= 1
        assert snapshot["counters"]["attempts_matched"] == 1
        assert "attempt_steps" in snapshot["histograms"]

    def test_artifacts_written_even_on_failed_reproduction(
        self, capsys, tmp_path
    ):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--max-attempts", "1", "--metrics-out", str(metrics_file)]
        )
        assert code == 1  # not reproduced within 1 attempt
        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["counters"]["attempts"] == 1

    def test_inspect_renders_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--trace-out", str(trace_file)]
        ) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "attempt timeline" in out
        assert "<- matched" in out

    def test_inspect_rejects_non_trace_json(self, capsys, tmp_path):
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text('{"schedule": [1, 2, 3]}')
        assert main(["inspect", str(bogus)]) == 2
        assert capsys.readouterr().err

    def test_bench_embeds_metrics_in_json(self, capsys, tmp_path):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["bench", "e12", "--json", "--json-dir", str(tmp_path),
             "--metrics-out", str(metrics_file)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_e12.json").read_text())
        assert payload["meta"]["metrics"]["counters"]["attempts"] > 0
        assert json.loads(metrics_file.read_text()) == payload["meta"]["metrics"]


class TestStats:
    def test_stats_prints_summary_and_hazards(self, capsys):
        assert main(["stats", "openldap-deadlock", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "sync density" in out
        assert "lock-order graph" in out

    def test_stats_sketch_flag_reports_visible_events(self, capsys):
        assert main(
            ["stats", "openldap-deadlock", "--seed", "5", "--sketch", "sync"]
        ) == 0
        out = capsys.readouterr().out
        assert "sync sketch would record" in out

    def test_stats_rejects_unknown_sketch_by_name(self, capsys):
        assert main(
            ["stats", "openldap-deadlock", "--seed", "5", "--sketch", "bogus"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown sketch kind 'bogus'" in err
        assert "sync" in err  # the error names the valid kinds


class TestStore:
    def _reproduce_into(self, store, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--store", str(store)]
        )
        out = capsys.readouterr().out
        assert code == 0
        return out

    def test_reproduce_store_round_trip_and_maintenance(self, capsys, tmp_path):
        store = tmp_path / "store"
        cold = self._reproduce_into(store, capsys)
        assert "0 attempt(s) answered from the store" in cold

        assert main(["store", "stats", str(store)]) == 0
        assert "attempt record(s)" in capsys.readouterr().out

        assert main(["store", "verify", str(store)]) == 0
        assert "store: ok" in capsys.readouterr().out

        warm = self._reproduce_into(store, capsys)
        assert "0 replayed live" in warm

        assert main(["store", "gc", str(store), "--max-records", "1"]) == 0
        assert "evicted" in capsys.readouterr().out

    def test_verify_reports_a_torn_tail(self, capsys, tmp_path):
        from repro.robust.inject import truncate_file

        store = tmp_path / "store"
        self._reproduce_into(store, capsys)
        shard = sorted(store.rglob("attempts.jsonl"))[0]
        truncate_file(str(shard), -3)

        assert main(["store", "verify", str(store)]) == 1
        out = capsys.readouterr().out
        assert "torn" in out


class TestResilience:
    def test_chaos_flag_reproduces_identically(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3", "--jobs", "2",
             "--chaos", "crash=0.2,hang=0.1,seed=7", "--max-attempts", "40"]
        )
        assert code == 0
        assert "reproduced in" in capsys.readouterr().out

    def test_bad_chaos_spec_is_a_usage_error(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--chaos", "explode=0.5"]
        )
        assert code == 2
        assert "bad chaos spec" in capsys.readouterr().err

    def test_supervision_flags_are_accepted(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3", "--jobs", "2",
             "--attempt-timeout", "60", "--max-retries", "1",
             "--max-attempts", "40"]
        )
        assert code == 0
        assert "reproduced in" in capsys.readouterr().out

    def test_run_journal_round_trip(self, capsys, tmp_path):
        runs = str(tmp_path / "runs")
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--runs", runs, "--run-id", "demo"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "run journal:" in out
        assert "--resume demo" in out

        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--runs", runs, "--resume", "demo"]
        )
        resumed = capsys.readouterr().out
        assert code == 0
        assert "resuming run 'demo'" in resumed
        assert "run already completed" in resumed

    def test_run_id_and_resume_are_mutually_exclusive(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--run-id", "a", "--resume", "b"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_resuming_an_unknown_run_is_a_usage_error(self, capsys, tmp_path):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--runs", str(tmp_path / "runs"), "--resume", "nope"]
        )
        assert code == 2
        assert "no run journal" in capsys.readouterr().err

    def test_interrupt_mid_exploration_exits_130(self, capsys, monkeypatch):
        from repro.core.parallel import ParallelExplorer

        def boom(self, supervisor):
            raise KeyboardInterrupt

        monkeypatch.setattr(ParallelExplorer, "_explore_feedback", boom)
        code = main(["reproduce", "pbzip2-order-free", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 130
        assert "interrupted: true" in out

    def test_doctor_triages_and_cleans_a_store_directory(
        self, capsys, tmp_path
    ):
        store = tmp_path / "store"
        assert main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(["doctor", str(store)]) == 0
        assert "store: ok" in capsys.readouterr().out

        (store / "leftover.gc").write_text("")
        assert main(["doctor", str(store)]) == 1
        out = capsys.readouterr().out
        assert "stale" in out
        assert "--clean" in out  # the hint

        assert main(["doctor", str(store), "--clean"]) == 0
        assert "cleaned:" in capsys.readouterr().out
        assert main(["doctor", str(store)]) == 0
        assert "DAMAGED" in out
