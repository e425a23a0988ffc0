"""Every function the benchmark tracer wraps must exist under its traced name.

`bench/tracer.py` names its targets by qualified name and its `install()`
raises when one is gone, so a refactor that deletes or renames a traced
function would otherwise first show up as a failed benchmark run.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import fpcert

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
