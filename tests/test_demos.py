"""The scripts under ``demos/`` run to the end, in process, under the suite's warning filter.

Each demo is a worked example of the paper's claims.  Running it as ``__main__`` with its
printout captured keeps it in step with the package: a demo that raises, or meets a
RuntimeWarning (an error under the suite's filter), fails here.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_to_the_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
