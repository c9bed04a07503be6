"""Package metadata: numpy is the one runtime dependency."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_numpy_is_the_only_dependency():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    hard = {dep.split(">")[0].split("=")[0] for dep in project["dependencies"]}
    assert hard == {"numpy"}
    assert "fast" not in project.get("optional-dependencies", {})
