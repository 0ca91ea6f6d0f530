"""Packaging: the source tree ships the package and no dangling entry point."""

from pathlib import Path

import pytest
from setuptools import find_packages

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent


def test_find_packages_sees_mahlerdyn():
    assert find_packages(where=str(ROOT / "src")) == ["mahlerdyn"]


def test_scripts_name_existing_modules():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for target in project.get("scripts", {}).values():
        module = target.split(":")[0]
        path = ROOT / "src" / Path(*module.split("."))
        assert path.with_suffix(".py").is_file() or (path / "__init__.py").is_file(), target
