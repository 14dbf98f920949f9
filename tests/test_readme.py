"""The README's python examples run as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_namespace_table_matches_the_scenario_table():
    from vlcasim import cli

    text = README.read_text()
    table = text[text.index("| scenario | namespaces |"):].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        scenario, namespaces = (c.strip() for c in row.strip("|").split("|"))
        documented[scenario.strip("`")] = tuple(
            n.strip(" `") for n in namespaces.split(",") if n != "none")
    assert documented == {name: tuple(sc.reads)
                          for name, sc in cli._SCENARIOS.items()}
