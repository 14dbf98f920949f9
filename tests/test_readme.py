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


def test_readme_names_of_package_modules_resolve():
    # a backticked `module.name` whose module is a vlcasim module names an
    # attribute of that module, or a config key that a scenario declares
    import importlib
    import pkgutil
    from dataclasses import fields

    import vlcasim
    from vlcasim import cli

    modules = {m.name: importlib.import_module(f"vlcasim.{m.name}")
               for m in pkgutil.iter_modules(vlcasim.__path__)}
    modules["vlcasim"] = vlcasim
    keys = {f"{name}.{knob}" for name, sc in cli._SCENARIOS.items()
            for knob in sc.extras}
    keys |= {f"{ns}.{f.name}" for sc in cli._SCENARIOS.values()
             for ns, base in sc.reads.items() for f in fields(base)}

    def resolves(ref):
        head, *path = ref.split(".")
        obj = modules[head]
        for name in path:
            if not hasattr(obj, name):
                return ref in keys
            obj = getattr(obj, name)
        return True

    refs = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text()))
    refs = {r for r in refs if r.split(".")[0] in modules}
    assert refs
    assert [r for r in sorted(refs) if not resolves(r)] == []
