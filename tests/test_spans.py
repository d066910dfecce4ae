"""The benchmark tracer's names still exist in the package.

``perfbench/spans.py`` wraps each name in its ``TRACED`` table: a module
attribute, or ``Class.method`` read from the class's own ``__dict__``.  A
name that moved or was deleted stops a traced benchmark run, so this reads
the table (and changes nothing under ``perfbench/``) and looks each name up
the same way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("modname, attr", [(m, a) for m, table in _traced().items()
                                           for a in table])
def test_traced_name_resolves(modname, attr):
    module = importlib.import_module(f"hhrec.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{attr} is not in the class dict"
    else:
        assert callable(getattr(module, attr, None)), f"hhrec.{modname} has no {attr}"
