"""What `import fpcert` and a problem load bring into the interpreter.

`fpcert/__init__.py` serves its public names lazily (PEP 562), and `problems`
imports `greens`, `rootfind` and `estimate` only where an integral problem, a
root problem or an estimate block resolves.  Which modules a load imports is
only visible in a process that has imported nothing else, so those tests run
a fresh interpreter each.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fpcert

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = {"fpcert.greens", "fpcert.rootfind", "fpcert.estimate"}

_LOAD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fpcert.problems import load_problem
resolved = load_problem(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("fpcert."))))
"""


def modules_after_load(path) -> set:
    """The fpcert modules a fresh interpreter holds after load_problem(path)."""
    done = subprocess.run([sys.executable, "-c", _LOAD, str(SRC), str(path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def write(tmp_path, text):
    path = tmp_path / "p.yaml"
    path.write_text(text)
    return path


def test_newton_problem_loads_no_module_it_does_not_use(tmp_path):
    path = write(tmp_path, "operator: ['0.1*cos(x2)', '0.1*sin(x3)', '0.1*x1']\n"
                           "derivative: [['0', '-0.1*sin(x2)', '0'], ['0', '0', '0.1*cos(x3)'],"
                           " ['0.1', '0', '0']]\n"
                           "x0: [0.0, 0.0, 0.0]\nscheme: newton\n"
                           "constants: {M: 0.1, K: 0.1}\n")
    loaded = modules_after_load(path)
    assert not loaded & (LAZY | {"fpcert.cli"}), sorted(loaded)
    assert {"fpcert.problems", "fpcert.core", "fpcert.exprparse"} <= loaded


@pytest.mark.parametrize("text, needed", [
    ("kind: integral\noperator: x1 + 1\nx0: 0.0\n"
     "integral: {kernel: volterra_unit, T_end: 1.0, m: 10}\n", "fpcert.greens"),
    ("kind: root\noperator: x1^2 - 2\nderivative: [['2*x1']]\nx0: 1.5\n", "fpcert.rootfind"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\nconstants: {estimate: {samples: 10}}\n",
     "fpcert.estimate"),
], ids=["integral", "root", "estimate"])
def test_each_kind_imports_exactly_the_module_it_needs(tmp_path, text, needed):
    loaded = modules_after_load(write(tmp_path, text))
    assert loaded & LAZY == {needed}
    assert "fpcert.cli" not in loaded


def test_import_fpcert_loads_no_submodule():
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import fpcert; "
         "print(sorted(m for m in sys.modules if m.startswith('fpcert.')))", str(SRC)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_public_name_is_its_defining_modules_object():
    for name in fpcert.__all__:
        if name == "__version__":
            continue
        module = sys.modules["fpcert." + fpcert._EXPORTS[name]]
        assert getattr(fpcert, name) is getattr(module, name), name
        assert module.__dict__[name] is fpcert.__dict__[name], name  # cached on first use


def test_star_import_and_dir():
    namespace = {}
    exec("from fpcert import *", namespace)
    assert set(fpcert.__all__) <= set(namespace)
    assert namespace["load_problem"] is fpcert.problems.load_problem
    assert namespace["__version__"] == fpcert.__version__
    assert set(fpcert.__all__) <= set(dir(fpcert))
    assert dir(fpcert) == sorted(dir(fpcert))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fpcert.no_such_name
    with pytest.raises(ImportError):
        exec("from fpcert import no_such_name", {})
