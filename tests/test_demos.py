"""The scripts in demos/ run to the end, in-process, with RuntimeWarning
an error as everywhere in the suite; the Python examples of README.md give
the values their comments show."""

import ast
import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [d.name for d in DEMOS] == [
        "distribution_family_tour.py", "harvested_power_outage.py", "sum_mixture_weights.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_examples_give_their_values():
    # the ```python blocks run in order in one namespace; an expression with
    # a "# value" comment must have that repr, each "..." standing for more digits
    readme = ROOT / "README.md"
    namespace, checked = {}, 0
    for block in re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].partition("#")[2].strip()
            if not comment:
                exec(compile(ast.Module([stmt], []), str(readme), "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), str(readme), "eval"), namespace)
            assert re.fullmatch(r"\d*".join(map(re.escape, comment.split("..."))), repr(value)), (
                f"README shows {comment}, the code gives {value!r}")
            checked += 1
    assert checked == 3
