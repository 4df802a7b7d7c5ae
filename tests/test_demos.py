"""The scripts in demos/ run to the end, in-process, with RuntimeWarning
an error as everywhere in the suite."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [d.name for d in DEMOS] == [
        "distribution_family_tour.py", "harvested_power_outage.py", "sum_mixture_weights.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
