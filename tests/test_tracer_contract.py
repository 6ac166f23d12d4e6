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

import pytest

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
