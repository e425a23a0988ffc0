"""Inexact fixed-point iterations with certified convergence rates.

The package splits into three layers: operators and iteration schemes
(`core`, `schemes`, `exprparse`, `rootfind`, `greens`), the majorant
recurrence with its decay-regime certificates (`sequences`, `regimes`,
`majorant`, `estimate`), and the problem catalog plus CLI on top
(`problems`, `cli`).

`import fpcert` loads none of them.  Each public name is served on first use
from the module that defines it (PEP 562), which imports that module only
then; `import fpcert.problems` loads `core`, `exprparse`, `regimes`,
`schemes` and `sequences` with it.  `greens`, `rootfind` and `estimate` load
when an integral problem, a root problem or an estimate block resolves, and
`majorant` when a problem's constants are built.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BallDomain", "CoreError", "NormKind", "OperatorEvaluationError",
                     "OperatorSpec", "Vector"), "core"),
    **dict.fromkeys(("estimate_lipschitz_K", "estimate_lipschitz_M", "with_safety"),
                    "estimate"),
    **dict.fromkeys(("GreensError", "GridFunction", "IntegralTrace", "KernelSpec",
                     "apply_integral_operator", "bound_propagate", "build_volterra_kernel",
                     "kernel_from_expression", "run_integral_iteration"), "greens"),
    **dict.fromkeys(("Certificate", "MajorantError", "MajorantParams",
                     "NoValidMajorantError", "PrecheckReport", "ProblemConstants",
                     "RecurrenceOverflowError", "audit_step_inequalities", "certify",
                     "majorant_from_constants", "precheck", "search_witnesses",
                     "simulate_recurrence", "tail_bound"), "majorant"),
    **dict.fromkeys(("CATALOG", "ProblemError", "ResolvedProblem", "catalog_names",
                     "constants_for", "get_entry", "load_problem", "resolve_config",
                     "sequence_from_config"), "problems"),
    **dict.fromkeys(("GammaSpec", "RootfindError", "wrap_root_problem"), "rootfind"),
    **dict.fromkeys(("InjectionMode", "IterationTrace", "PerturbationPlan", "SchemeError",
                     "SchemeKind", "StepFailure", "StopRule", "run_outer"), "schemes"),
    **dict.fromkeys(("ScalarSequence", "SequenceError"), "sequences"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
