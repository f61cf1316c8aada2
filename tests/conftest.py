"""Fixtures shared by the test modules."""

import os
from pathlib import Path
from types import MappingProxyType

import pytest

import cavityvdw


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child interpreter that imports the cavityvdw
    these tests import: its src directory first on PYTHONPATH. Read-only;
    dict(child_env, NAME=value) makes a copy to change."""
    path = [str(Path(cavityvdw.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return MappingProxyType(dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
