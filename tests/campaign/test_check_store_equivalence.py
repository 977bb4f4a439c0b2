"""``scripts/check_store_equivalence.py`` refuses paths that hold no store."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

sys.path.insert(0, str(REPO_ROOT / "scripts"))
try:
    import check_store_equivalence
finally:
    sys.path.pop(0)


def test_missing_stores_are_refused(tmp_path, capsys):
    left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert check_store_equivalence.main([str(left), str(right)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(left) in err and str(right) in err


def test_an_empty_store_is_refused(tmp_path, capsys):
    from repro.campaign import ResultStore

    written, empty = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ResultStore(written).ensure_header()
    empty.touch()
    assert check_store_equivalence.main([str(written), str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"no campaign store at {empty}"


def test_equal_stores_pass(tmp_path, capsys):
    from repro.campaign import ResultStore

    left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ResultStore(left).ensure_header()
    ResultStore(right).ensure_header()
    assert check_store_equivalence.main([str(left), str(right)]) == 0
    assert "stores equivalent: 0 result(s)" in capsys.readouterr().out
