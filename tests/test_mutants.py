"""Every mutant of tools/mutants.py still applies to the source it mutates
and leaves a module that compiles.

The mutation harness itself takes minutes and stays out of the test suite;
this check is cheap and catches a refactor that leaves a mutant stale.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name,module,old,new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_text_occurs_once(name, module, old, new):
    source = (ROOT / "src" / "capmac" / module).read_text()
    assert source.count(old) == 1, f"{name}: its text occurs {source.count(old)} times in {module}"
    # A mutant that does not compile fails every test and would be reported as killed.
    compile(source.replace(old, new), module, "exec")


def test_raise_mutants_cover_each_raise_and_compile():
    derived = mutants.raise_mutants()
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "capmac").glob("*.py")}
    assert len(derived) == sum(len(re.findall(r"^\s*raise\b", text, re.M))
                               for text in sources.values())
    for name, module, old, new in derived:
        assert sources[module].count(old) == 1, name
        assert "raise" not in new.splitlines()[-1], name
        compile(sources[module].replace(old, new), module, "exec")
