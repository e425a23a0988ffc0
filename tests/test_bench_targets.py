"""Every function the benchmark tracer wraps must exist under its traced name.

`bench/tracer.py` names its targets by qualified name and its `install()`
raises when one is gone, so a refactor that deletes or renames a traced
function would otherwise first show up as a failed benchmark run.
"""
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import fpcert

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists_and_uninstalls():
    modules = [importlib.import_module("fpcert." + info.name)
               for info in pkgutil.iter_modules(fpcert.__path__)]
    before = [dict(vars(m)) for m in modules]
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    # uninstall put every module-level name back
    for mod, names in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in names.items()), mod.__name__


# bench/run.py imports only fpcert.cli before it installs the tracer, and
# problems imports greens, rootfind and estimate lazily, so the tracer must
# find every traced module through cli alone.  While it is installed, each
# lazy module loads (a root, an integral and an estimate-block problem); after
# uninstall() no fpcert module may still hold a wrapper.
_CONTRACT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import fpcert.cli
import tracer
assert "fpcert.greens" in sys.modules
tr = tracer.Tracer()
tr.install()
try:
    from fpcert.problems import resolve_config
    resolve_config({"kind": "root", "operator": "x1^2 - 2", "derivative": [["2*x1"]],
                    "x0": 1.5})
    resolve_config({"kind": "integral", "operator": "x1 + 1", "x0": 0.0,
                    "integral": {"m": 10}})
    resolved = resolve_config({"operator": "0.5*x1 + 1", "x0": 0.0,
                               "constants": {"estimate": {"samples": 10}}})
    tr.take()
    resolved.constants()
    assert tr.take()[1]["core.norm_of"] > 0
finally:
    tr.uninstall()
resolved.constants()
assert "core.norm_of" not in tr.take()[1]
held = [(name, attr) for name, mod in sys.modules.items() if name.startswith("fpcert")
        for attr, value in vars(mod).items() if hasattr(value, "__wrapped__")]
assert not held, held
print("ok")
"""


def test_tracer_installs_after_importing_only_the_cli():
    done = subprocess.run([sys.executable, "-c", _CONTRACT, str(ROOT / "src"),
                           str(ROOT / "bench")], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
