"""The CI guard over ``perfbench/run.py`` reports (``scripts/check_perfbench.py``).

The script lives outside ``src`` (stdlib only, no repro import), so it
is loaded here by file path.
"""

import importlib.util
import json
from pathlib import Path

_SCRIPT = (Path(__file__).resolve().parent.parent
           / "scripts" / "check_perfbench.py")
_spec = importlib.util.spec_from_file_location("check_perfbench", _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def _report(**result):
    return ("workload=boot-mmap seed=1 seconds=2 trace=0\n"
            "  check ok   mmap == ram\n" + json.dumps(result) + "\n")


class TestVerdict:
    def test_correct_with_no_failures_passes(self):
        assert check.verdict(_report(correct=True, attempted=9, failed=0,
                                     metrics={})) is None

    def test_incorrect_run_fails(self):
        assert "correct=False" in check.verdict(
            _report(correct=False, attempted=9, failed=0))

    def test_failed_operations_fail(self):
        assert "failed=2" in check.verdict(
            _report(correct=True, attempted=9, failed=2))

    def test_missing_or_garbled_json_fails(self):
        assert check.verdict("") == "empty report"
        assert "not JSON" in check.verdict("perfbench: no program source\n")
        assert "not a JSON object" in check.verdict("[1, 2]\n")
        assert "correct=None" in check.verdict(_report(failed=0))
