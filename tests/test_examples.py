"""Smoke tests: the example scripts must run and produce their key output.

Only the fast examples run here (the long ones are exercised by the CLI and
experiment tests that share their code paths).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv, capsys):
    old_argv = sys.argv
    sys.argv = [name] + list(argv)
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestTheftMechanics:
    def test_narrates_both_parts(self, capsys):
        out = run_example("theft_mechanics.py", [], capsys)
        assert "THEFT" in out
        assert "PInTE trigger" in out
        assert "thefts experienced" in out

    def test_real_part_shows_both_cores_stealing(self, capsys):
        out = run_example("theft_mechanics.py", [], capsys)
        assert "core 0: thefts experienced=1" in out
        assert "core 1: thefts experienced=1" in out


class TestContentionTopology:
    def test_counts_thefts_under_both_contexts(self, capsys):
        out = run_example("contention_topology.py", [], capsys)
        assert "PInTE p=0.3 thefts of 450.soplex" in out
        assert "2nd-Trace (470.lbm) thefts of 450.soplex" in out
        totals = [int(line.split(":")[1]) for line in out.splitlines()
                  if line.strip().startswith("thefts recorded")]
        assert len(totals) == 2 and all(totals)


class TestExampleFiles:
    def test_all_examples_present(self):
        names = {path.name for path in EXAMPLES.glob("*.py")}
        assert {"quickstart.py", "sensitivity_curve.py",
                "theft_mechanics.py", "design_under_contention.py",
                "characterize_suite.py", "contention_topology.py",
                "batch_campaign.py"} <= names

    @pytest.mark.parametrize("name", [
        "quickstart.py", "sensitivity_curve.py", "theft_mechanics.py",
        "design_under_contention.py", "characterize_suite.py",
        "contention_topology.py", "batch_campaign.py",
    ])
    def test_examples_compile(self, name):
        source = (EXAMPLES / name).read_text()
        compile(source, name, "exec")

    @pytest.mark.parametrize("name", [
        "quickstart.py", "sensitivity_curve.py", "theft_mechanics.py",
        "design_under_contention.py", "characterize_suite.py",
        "contention_topology.py", "batch_campaign.py",
    ])
    def test_examples_have_usage_docs(self, name):
        source = (EXAMPLES / name).read_text()
        assert source.startswith("#!/usr/bin/env python3")
        assert '"""' in source
