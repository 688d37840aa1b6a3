"""The sources stay within the Python version pyproject.toml declares."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/**/*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
