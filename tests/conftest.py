"""Child processes of the tests (`python -m bartgrid` workers, the bench
harness's cells) import the package from this checkout's `src/`, as the tests
themselves do through `pythonpath` in pyproject.toml, so the suite also runs
where the package is not installed."""
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def _children_import_src():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
