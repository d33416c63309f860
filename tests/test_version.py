import pathlib

import pytest

import wtrv

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11


def test_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert wtrv.__version__ == tomllib.load(fh)["project"]["version"]
