"""The record classes a problem load uses: constructor, checks, equality, hash,
immutability and repr, one parametrized case per class."""
import inspect
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fpcert.core import BallDomain, CoreError, NormKind, OperatorSpec, Vector
from fpcert.greens import BoundReport, GreensError, GridFunction, IntegralTrace, KernelSpec
from fpcert.problems import CatalogEntry, CertRequest, IntegralSetup, ResolvedProblem
from fpcert.schemes import (InjectionMode, IterationTrace, PerturbationPlan, SchemeError,
                            SchemeKind, StopRule)
from fpcert.sequences import ScalarSequence


def ident(x):
    return x


def other(x, h=None):
    return x


OMIT = object()  # a bad argument that is left out


ZERO = ("ScalarSequence(kind='zero', c=0.0, ratio=0.0, p=0.0, entries=(), base=None, "
        "scale=1.0, offset=0.0)")
_RESOLVED = dict(name="p", kind="fixed_point", operator=None, scheme=SchemeKind.NEWTON,
                 norm=NormKind.SUP, x0=Vector([0.0]), plan=None, stop=None, theta=None,
                 constants_cfg=None, cert_requests=[], integral=None, fixed_point=None,
                 digest="d", parse_derivative=list)

# cls: (args of an instance, defaults of the parameters args may leave out,
#       (bad args, error, message), args changed to an equal instance (fields that
#       equality skips), args changed to an unequal one, hash, frozen, repr).
# hash is True (equal instances hash alike), the type name of a field hash()
# refuses, or None (the class is unhashable).  The repr is formatted with args.
CASES = {
    Vector: (dict(coords=[1.0, 2.0]), {},
             (dict(coords=[]), CoreError, "vector must be one-dimensional with d >= 1"),
             None, dict(coords=[1.0, 3.0]), "numpy.ndarray", True, "Vector([1., 2.])"),
    BallDomain: (dict(center=Vector([0.0]), radius=1.0, norm=NormKind.SUP), {},
                 (dict(radius=-1.0), CoreError, "ball radius must be finite and >= 0, got -1.0"),
                 None, dict(radius=2.0), "numpy.ndarray", True,
                 "BallDomain(center=Vector([0.]), radius=1.0, norm=<NormKind.SUP: 'sup'>)"),
    OperatorSpec: (dict(dim=1, evaluator=ident, name="id"), dict(derivative=None, name=""),
                   (dict(dim=0), CoreError, "operator dim must be >= 1"),
                   dict(evaluator=other, derivative=other), dict(name="x"), True, True,
                   "OperatorSpec(dim=1, evaluator={evaluator!r}, derivative=None, name='id')"),
    ScalarSequence: (dict(kind="geometric", c=1.0, ratio=0.5),
                     dict(c=0.0, ratio=0.0, p=0.0, entries=(), base=None, scale=1.0,
                          offset=0.0),
                     (dict(kind=OMIT, c=OMIT, ratio=OMIT), TypeError,
                      "missing 1 required positional argument: 'kind'"),
                     None, dict(ratio=0.25), True, True,
                     "ScalarSequence(kind='geometric', c=1.0, ratio=0.5, p=0.0, entries=(), "
                     "base=None, scale=1.0, offset=0.0)"),
    PerturbationPlan: (dict(eps=ScalarSequence.zero(), seed=3),
                       dict(eps=ScalarSequence.zero(), sigma=ScalarSequence.zero(),
                            gamma=ScalarSequence.zero(), mode=InjectionMode.NONE, seed=0),
                       (dict(rate=1.0), TypeError, "unexpected keyword argument 'rate'"),
                       None, dict(seed=4), True, True,
                       "PerturbationPlan(eps=%s, sigma=%s, gamma=%s, "
                       "mode=<InjectionMode.NONE: 'none'>, seed=3)" % (ZERO, ZERO, ZERO)),
    StopRule: (dict(max_n=10, r_tol=1e-6), dict(max_n=50, r_tol=0.0, residual_tol=0.0),
               (dict(max_n=0), SchemeError, "max_n must be >= 1"),
               None, dict(r_tol=1e-7), True, True,
               "StopRule(max_n=10, r_tol=1e-06, residual_tol=0.0)"),
    IterationTrace: (dict(iterates=[], r=[1.0], r_tilde=[0.0], residual=[], inner_defect=[],
                          injected=[], stop_reason="max_n"), {},
                     (dict(stop_reason=OMIT), TypeError,
                      "missing 1 required positional argument: 'stop_reason'"),
                     None, dict(r=[2.0]), None, False,
                     "IterationTrace(iterates=[], r=[1.0], r_tilde=[0.0], residual=[], "
                     "inner_defect=[], injected=[], stop_reason='max_n')"),
    IntegralSetup: (dict(kernel_kind="volterra_unit", T_end=1.0, m=10,
                         spec=KernelSpec("volterra_unit", 1.0)), dict(exact=None),
                    (dict(rate=1.0), TypeError, "unexpected keyword argument 'rate'"),
                    dict(spec=KernelSpec("volterra_unit", 2.0), exact=np.exp), dict(m=20),
                    True, True,
                    "IntegralSetup(kernel_kind='volterra_unit', T_end=1.0, m=10, exact=None)"),
    CatalogEntry: (dict(summary="s", config={"x0": 0.0}),
                   dict(theta=None, fixed_point=None, exact=None),
                   (dict(config=OMIT), TypeError,
                    "missing 1 required positional argument: 'config'"),
                   None, dict(theta=0.5), "dict", True,
                   "CatalogEntry(summary='s', config={{'x0': 0.0}}, theta=None, "
                   "fixed_point=None, exact=None)"),
    CertRequest: (dict(regime="bounded"), dict(witnesses=None),
                  (dict(rate=1.0), TypeError, "unexpected keyword argument 'rate'"),
                  None, dict(witnesses={"C1": 0.5}), True, True,
                  "CertRequest(regime='bounded', witnesses=None)"),
    ResolvedProblem: (_RESOLVED, {},
                      (dict(digest=OMIT), TypeError,
                       "missing 1 required positional argument: 'digest'"),
                      None, dict(digest="e"), None, False,
                      "ResolvedProblem(name='p', kind='fixed_point', operator=None, "
                      "scheme=<SchemeKind.NEWTON: 'newton'>, norm=<NormKind.SUP: 'sup'>, "
                      "x0=Vector([0.]), plan=None, stop=None, theta=None, constants_cfg=None, "
                      "cert_requests=[], integral=None, fixed_point=None, digest='d', "
                      "parse_derivative=<class 'list'>)"),
    GridFunction: (dict(nodes=[0.0, 1.0], values=[2.0, 3.0]), {},
                   (dict(nodes=[1.0, 2.0]), GreensError, "grid must start at t = 0"),
                   None, dict(values=[2.0, 4.0]), "numpy.ndarray", True,
                   "GridFunction(nodes=array([0., 1.]), values=array([2., 3.]))"),
    KernelSpec: (dict(kind="volterra_unit", T_end=1.0), dict(expr=None),
                 (dict(kind="unit"), GreensError,
                  "kernel kind must be volterra_unit or expression"),
                 None, dict(T_end=2.0), True, True,
                 "KernelSpec(kind='volterra_unit', T_end=1.0, expr=None)"),
    IntegralTrace: (dict(grids=[], r=[], r_tilde=[0.0], residual=[], stop_reason="max_n"), {},
                    (dict(grids=OMIT), TypeError,
                     "missing 1 required positional argument: 'grids'"),
                    None, dict(stop_reason="diverged"), None, False,
                    "IntegralTrace(grids=[], r=[], r_tilde=[0.0], residual=[], "
                    "stop_reason='max_n')"),
    BoundReport: (dict(n=1, scheme=SchemeKind.CONTRACTION, margins=np.array([0.5]),
                       min_margin=0.5, slack=0.01, ok=True), {},
                  (dict(ok=OMIT), TypeError, "missing 1 required positional argument: 'ok'"),
                  None, dict(n=2), None, False,
                  "BoundReport(n=1, scheme=<SchemeKind.CONTRACTION: 'contraction'>, "
                  "margins=array([0.5]), min_margin=0.5, slack=0.01, ok=True)"),
}


@pytest.mark.parametrize("cls", list(CASES), ids=[c.__name__ for c in CASES])
def test_record_class_behaviour(cls):
    args, defaults, (bad, error, message), same, unequal, hashes, frozen, text = CASES[cls]
    # the constructor: every field a positional-or-keyword parameter, in order,
    # and a left-out one takes its default
    params = list(inspect.signature(cls).parameters.values())
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert [p.name for p in params if p.default is p.empty] == [
        p.name for p in params if p.name not in defaults]
    assert [p.name for p in params if p.default is not p.empty] == list(defaults)
    required = {p.name: args[p.name] for p in params if p.name not in defaults}
    bare = cls(**required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value, name
    if cls is PerturbationPlan:  # each left-out budget is a fresh sequence
        assert PerturbationPlan().eps is not PerturbationPlan().eps

    # a bad argument fails as before
    with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
        cls(**{k: v for k, v in dict(args, **bad).items() if v is not OMIT})

    # equality reads the compared fields only, and only between instances of the class
    a = cls(**args)
    assert a == cls(**args)
    if same is not None:
        assert a == cls(**dict(args, **same))
    assert a != cls(**dict(args, **unequal))
    assert a != object()

    if hashes is True:
        assert hash(a) == hash(cls(**dict(args, **(same or {}))))
    elif hashes is None:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable type: '%s'" % cls.__name__):
            hash(a)
    else:  # hashable in kind, but hash() refuses one of the fields
        with pytest.raises(TypeError, match="unhashable type: '%s'" % hashes):
            hash(a)

    field = params[0].name
    if frozen:
        with pytest.raises(FrozenInstanceError, match="cannot assign to field '%s'" % field):
            setattr(a, field, getattr(a, field))
        with pytest.raises(FrozenInstanceError, match="cannot delete field '%s'" % field):
            delattr(a, field)
    else:
        setattr(a, field, "changed")
        assert getattr(a, field) == "changed"

    assert repr(cls(**args)) == text.format(**args)
