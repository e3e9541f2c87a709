"""Every function the benchmark's tracer wraps by name still exists.

perfbench/tracing.py patches its targets by module and attribute path when
a traced operation starts; a target renamed or deleted in the package
would fail only a traced benchmark run.  Here it fails the tests.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _tracing()
TARGETS = _tracer.SPANS + _tracer.COUNTED


@pytest.mark.parametrize("span,module_name,path", TARGETS,
                         ids=[f"{module}.{path}" for _, module, path in TARGETS])
def test_traced_target_resolves(span, module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # the tracer replaces a method in its class's own namespace
        owner = getattr(module, owner_name)
        assert attr in vars(owner), f"{span}: {owner_name} defines no {attr}"
        target = vars(owner)[attr]
        target = getattr(target, "__func__", target)
    else:
        target = getattr(module, attr, None)
    assert callable(target), f"{span}: {module_name}.{path} is not a function"
