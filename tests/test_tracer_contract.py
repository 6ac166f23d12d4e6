"""The benchmark tracer's patch points exist in the package.

``perfbench/tracer.py`` wraps functions in every module namespace its
``LAYERS`` table lists, and wraps ``TransitionSlice`` methods named in
``LEAF_METHODS``.  A rename or a dropped import in the package would
break the traced benchmark runs; this test catches it in the tier-1
suite.  The tracer module is loaded by path and never installed.
"""

import importlib
import importlib.util
import pathlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    InitialMeasure,
    ProductField,
    TransitionSlice,
    build_grid,
    build_transition_operator,
    discretize_generator,
    solve_vi,
    stopped_forward_measure,
)

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TR = _tracer()


@pytest.mark.parametrize("layer", sorted(TR.LAYERS))
def test_layer_resolves_in_every_namespace(layer):
    home, attr, namespaces = TR.LAYERS[layer]
    fn = getattr(importlib.import_module(home), attr)
    assert callable(fn)
    for ns in namespaces:
        assert getattr(importlib.import_module(ns), attr) is fn, f"{ns}.{attr}"


@pytest.mark.parametrize("method", sorted(TR.LEAF_METHODS.values()))
def test_leaf_method_exists_on_transition_slice(method):
    cls = importlib.import_module("mfgstop.model_core").TransitionSlice
    assert callable(cls.__dict__[method])


def _operators():
    """A homogeneous and a time-dependent operator of 9 steps, with the
    number of distinct slices each should hold."""
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=9, J=5)
    sigma = CoefficientFn.constant(0.4)
    for time, slices in [(None, 1), (CoefficientFn.affine(1.0, 0.5), 9)]:
        model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.0)),
                               sigma=ProductField(sigma, time=time))
        yield build_transition_operator(model, grid), slices


def test_batched_push_calls_each_distinct_slice_once(monkeypatch):
    # the tracer counts and times solves at TransitionSlice.apply and
    # apply_adjoint, so a whole-family push must go through them, once
    # per distinct slice
    calls = {"apply": [], "apply_adjoint": []}
    for method in calls:
        original = getattr(TransitionSlice, method)

        def counted(self, x, _original=original, _method=method):
            calls[_method].append(self)
            return _original(self, x)

        monkeypatch.setattr(TransitionSlice, method, counted)
    for P, slices in _operators():
        rows = np.ones((P.K, P.n))
        for method in calls.values():
            method.clear()
        list(P.adjoint_blocks(rows))
        P.apply_each(rows)
        for method in calls.values():
            assert len(method) == len(set(map(id, method))) == len(P.slices) == slices


def test_after_build_hook_counts_the_distinct_slices():
    # the traced benchmark reads the operator through this hook after
    # every build_transition_operator call
    for P, slices in _operators():
        tracer = SimpleNamespace(counts=Counter())
        TR._after_build(tracer, P)
        assert tracer.counts == {"model_core.slices": slices, "model_core.dense_bytes": 0}


@pytest.mark.parametrize("mu", [0.0, 0.3], ids=["ldlt", "lu"])
def test_every_step_solves_through_the_traced_methods(monkeypatch, mu):
    # perfbench's model_core.solves counts TransitionSlice.apply and
    # apply_adjoint calls: a backward sweep and a forward push must make
    # one per step, whichever factorization the slice holds
    calls = {"apply": 0, "apply_adjoint": 0}
    for method in calls:
        original = getattr(TransitionSlice, method)

        def counted(self, x, _original=original, _method=method):
            calls[_method] += 1
            return _original(self, x)

        monkeypatch.setattr(TransitionSlice, method, counted)
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=9, J=5)
    model = DiffusionModel(mu=ProductField(CoefficientFn.constant(mu)),
                           sigma=ProductField(CoefficientFn.constant(0.4)))
    P = build_transition_operator(model, grid)
    A = discretize_generator(model, grid, 0)
    assert np.array_equal(A.lower, A.upper) == (mu == 0.0)
    f = np.sin(np.arange(grid.K + 1)[:, None] + np.arange(grid.J)) - 0.2
    calls.update(apply=0, apply_adjoint=0)
    v = solve_vi(f, P)
    assert calls == {"apply": grid.K, "apply_adjoint": 0}
    calls.update(apply=0)
    stopped_forward_measure(v.stop_mask, InitialMeasure.uniform(grid), P)
    assert calls == {"apply": 0, "apply_adjoint": grid.K}
