"""The `repro lint` subcommand: exit codes, formats, rule selection."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "analysis" / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


class TestLintCommand:
    def test_repo_source_is_clean(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_fixture_exits_nonzero(self, capsys):
        rc = main(["lint", str(FIXTURES / "r003_bad.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "R003" in out

    def test_json_format_parses(self, capsys):
        assert main(["lint", "--format", "json", str(SRC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["exit_code"] == 0

    def test_rule_selection(self, capsys):
        rc = main(["lint", "--rules", "R001", str(FIXTURES / "r003_bad.py")])
        assert rc == 0  # R003 violations are invisible to an R001-only run
        rc = main(["lint", "--rules", "R001,R003", str(FIXTURES / "r003_bad.py")])
        assert rc == 1

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--rules", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R002", "R003", "R004", "R005"):
            assert code in out

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "--format", "yaml"])


class TestLintCache:
    """CLI wiring for the incremental engine: cache flags, --jobs, --stats."""

    def _project(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.py").write_text("import time\nt = time.time()\n")
        return tmp_path

    def test_cache_written_in_cwd_by_default(self, tmp_path, monkeypatch, capsys):
        root = self._project(tmp_path, monkeypatch)
        assert main(["lint", "."]) == 1
        assert (root / ".repro-lint-cache.json").exists()

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        root = self._project(tmp_path, monkeypatch)
        main(["lint", "--no-cache", "."])
        assert not (root / ".repro-lint-cache.json").exists()

    def test_cache_flag_overrides_location(self, tmp_path, monkeypatch, capsys):
        root = self._project(tmp_path, monkeypatch)
        main(["lint", "--cache", "elsewhere.json", "."])
        assert (root / "elsewhere.json").exists()
        assert not (root / ".repro-lint-cache.json").exists()

    def test_stats_on_stderr_keeps_json_stdout_clean(
        self, tmp_path, monkeypatch, capsys
    ):
        self._project(tmp_path, monkeypatch)
        main(["lint", "--stats", "--format", "json", "."])
        cap = capsys.readouterr()
        doc = json.loads(cap.out)  # would raise if stats leaked into stdout
        assert doc["version"] == 1
        assert "stats:" in cap.err
        main(["lint", "--stats", "--format", "json", "."])
        assert "(1 cached, 0 analyzed)" in capsys.readouterr().err

    def test_jobs_output_matches_serial(self, tmp_path, monkeypatch, capsys):
        self._project(tmp_path, monkeypatch)
        main(["lint", "--no-cache", "--format", "json", "."])
        serial = capsys.readouterr().out
        main(["lint", "--no-cache", "--jobs", "2", "--format", "json", "."])
        assert capsys.readouterr().out == serial


class TestLintHelp:
    def test_rule_span_derived_from_registry(self, capsys):
        from repro.analysis.registry import registered_codes
        from repro.cli import _lint_help

        text = _lint_help()
        listed = []
        for span in text[text.index("(") + 1 : text.index(")")].split(", "):
            lo, _, hi = span.partition("-")
            listed += [f"R{n:03d}" for n in range(int(lo[1:]), int((hi or lo)[1:]) + 1)]
        assert listed == registered_codes()
        assert "R013" in listed  # the newest rule is covered
        assert "R008" not in listed and "R011" not in listed  # retired codes

    def test_top_level_help_lists_the_lint_rules(self, capsys):
        from repro.cli import _lint_help, main

        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert " ".join(_lint_help().split()) in help_text

    def test_table_command_never_imports_the_lint_engine(self):
        """A fresh interpreter: this one imported the rules long ago."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['table', '4', '--csv']) == 0\n"
            "assert 'repro.analysis' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.analysis')\n"
            ")\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
