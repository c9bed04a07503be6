"""Package metadata: the accelerators are optional extras, not hard
dependencies, because each import has a tested fallback."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_accelerators_are_an_optional_extra():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    hard = {dep.split(">")[0].split("=")[0] for dep in project["dependencies"]}
    assert hard == {"numpy"}
    fast = {dep.split(">")[0] for dep in project["optional-dependencies"]["fast"]}
    assert fast == {"numba", "gmpy2"}
