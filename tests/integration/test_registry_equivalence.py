"""Artifact goldens: every registry report byte-identical to its pinned text.

``tests/golden/artifact_reports.json`` holds all thirteen artifact reports
rendered at a tiny scale (:mod:`repro.goldens`). They were captured when
the registry and the serial runners it replaced still rendered
byte-identical texts, so they pin what the pre-registry reproduction
printed. These tests render the same artifacts through the registry's plan
→ execute → aggregate → render pipeline and through ``run_reproduction``,
and assert the texts have not moved.

Table I and the n-core study render wall-clock seconds, so both renderings
run under :func:`repro.goldens.fake_clock`: a duration becomes a fixed step
times the number of clock reads inside it, which is identical for identical
simulations whatever the host load. Regenerate the file (intentional
changes only) with ``scripts/capture_goldens.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import goldens
from repro.experiments.registry import artifact_names
from repro.experiments.reproduce import run_reproduction

GOLDEN_FILE = (Path(__file__).resolve().parent.parent / "golden"
               / "artifact_reports.json")
GOLDEN = json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def registry_texts(artifact_run):
    """Every artifact through plan -> execute -> aggregate -> render."""
    return goldens.render_artifacts(*artifact_run)


def test_golden_covers_every_artifact():
    assert sorted(GOLDEN) == sorted(artifact_names())


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_artifact_byte_identical(registry_texts, artifact):
    assert registry_texts[artifact] == GOLDEN[artifact]


def test_run_reproduction_matches_seed_bundle_reports():
    """The public reproduce loop renders the same bundle reports."""
    with goldens.fake_clock():
        reports = run_reproduction(scale=goldens.ARTIFACT_SCALE,
                                   suite=goldens.ARTIFACT_SUITE,
                                   p_values=goldens.ARTIFACT_P_VALUES,
                                   panel_size=goldens.ARTIFACT_PANEL)
    assert reports
    for artifact, text in reports.items():
        assert text == GOLDEN[artifact], artifact
