"""write_text_atomic: torn writes are impossible, by test."""

import pytest

from repro import faults
from repro.faults import FaultPlan, InjectedIOError, write_text_atomic


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        path = tmp_path / "artifact.csv"
        assert write_text_atomic(path, "a,b\n1,2\n") == path
        assert path.read_text() == "a,b\n1,2\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "artifact.csv"
        path.write_text("old")
        write_text_atomic(path, "new")
        assert path.read_text() == "new"

    def test_no_tmp_residue_on_success(self, tmp_path):
        write_text_atomic(tmp_path / "a.csv", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_concurrent_writers_of_one_path_never_collide(self, tmp_path):
        """Two store processes compacting one index write the same path."""
        import threading

        path = tmp_path / "index.log"
        errors = []

        def write(worker):
            for i in range(200):
                try:
                    write_text_atomic(path, f"{worker} {i}\n" * 20)
                except OSError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == ["index.log"]
        lines = path.read_text().splitlines()
        assert len(lines) == 20 and len(set(lines)) == 1  # one whole write

    def test_injected_crash_preserves_old_content(self, tmp_path):
        """The headline property: a crash mid-write never truncates."""
        path = tmp_path / "table6.csv"
        write_text_atomic(path, "complete,old,table\n")
        faults.install(FaultPlan(seed=1, io_rate=1.0, max_failures=1))
        with pytest.raises(InjectedIOError):
            write_text_atomic(path, "half-written new conte")
        # Old artifact intact, no temporary residue.
        assert path.read_text() == "complete,old,table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table6.csv"]
        # The fault schedule is capped: the retried write succeeds.
        write_text_atomic(path, "complete,new,table\n")
        assert path.read_text() == "complete,new,table\n"

    def test_injected_crash_with_no_previous_file(self, tmp_path):
        path = tmp_path / "fresh.csv"
        faults.install(FaultPlan(seed=1, io_rate=1.0, max_failures=1))
        with pytest.raises(InjectedIOError):
            write_text_atomic(path, "data")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestExportGoesThroughAtomicWrites:
    def test_export_survives_injected_io_crash(self, tmp_path):
        """An export interrupted mid-artifact leaves no torn CSVs behind."""
        from repro.harness.export import export_all

        baseline_dir = tmp_path / "clean"
        export_all(baseline_dir, tables=(2,), figures=())
        baseline = (baseline_dir / "table2.csv").read_bytes()

        out = tmp_path / "faulted"
        out.mkdir()
        stale = out / "table2.csv"
        stale.write_text("stale,but,complete\n")
        faults.install(FaultPlan(seed=1, io_rate=1.0, max_failures=1))
        with pytest.raises(InjectedIOError):
            export_all(out, tables=(2,), figures=())
        assert stale.read_text() == "stale,but,complete\n"
        assert not list(out.glob("*.tmp"))

        # Restarting the export (the crash is over) converges to the
        # uninterrupted bytes.
        faults.disable()
        export_all(out, tables=(2,), figures=())
        assert stale.read_bytes() == baseline

    def test_telemetry_report_written_atomically(self, tmp_path):
        from repro import obs
        from repro.obs.export import render_json, write_report

        rec = obs.install()
        obs.incr("x", 3)
        obs.disable()
        path = tmp_path / "report.json"
        write_report(path, rec)
        assert path.read_text() == render_json(rec)
        faults.install(FaultPlan(seed=1, io_rate=1.0, max_failures=1))
        with pytest.raises(InjectedIOError):
            write_report(path, rec)
        assert path.read_text() == render_json(rec)
