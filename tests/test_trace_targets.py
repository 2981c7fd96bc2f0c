"""The benchmark tracer's class owners exist.

`perfbench/span_trace.py` wraps each `(span, module, attribute)` entry of
its TARGETS list. A plain function the program no longer has reads 0, but
for a "Class.method" entry the tracer looks the class up with no default,
so a renamed or deleted class crashes every traced run. This test reads
the list and checks each such class is still in its module.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _class_targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import span_trace
    finally:
        sys.path.remove(str(PERFBENCH))
    return sorted({(mod, attr.split(".")[0]) for _, mod, attr in span_trace.TARGETS
                   if "." in attr})


@pytest.mark.parametrize("module,owner", _class_targets())
def test_traced_class_exists(module, owner):
    assert isinstance(getattr(importlib.import_module(module), owner, None), type)
