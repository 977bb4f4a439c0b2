"""The committed docs/CLI.md must match the live argparse tree.

``scripts/gen_cli_docs.py`` derives the CLI reference from
``repro.cli.build_parser``; this test runs its ``--check`` mode in a
subprocess (the generator pins ``COLUMNS`` for deterministic wrapping,
which must not leak into the test process). A failure means someone
changed the CLI without regenerating — the assertion message carries the
diff the script printed.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
GENERATOR = REPO_ROOT / "scripts" / "gen_cli_docs.py"


def test_cli_reference_is_current():
    """`gen_cli_docs.py --check` passes against the committed docs/CLI.md."""
    proc = subprocess.run(
        [sys.executable, str(GENERATOR), "--check"],
        capture_output=True, text=True)
    assert proc.returncode == 0, (
        "docs/CLI.md is stale — regenerate with "
        f"`python scripts/gen_cli_docs.py`\n{proc.stdout}{proc.stderr}")


def test_generator_writes_what_check_checks(monkeypatch):
    """Write mode and check mode agree on the same document."""
    monkeypatch.setenv("COLUMNS", "80")  # generate() mutates it; undo after
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import gen_cli_docs
    finally:
        sys.path.pop(0)
    document = gen_cli_docs.generate()
    committed = (REPO_ROOT / "docs" / "CLI.md").read_text()
    assert document == committed
    assert document.startswith("# CLI reference")
    assert "## `repro campaign run`" in document
    assert "--executor" not in document
