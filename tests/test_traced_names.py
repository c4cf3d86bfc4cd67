"""The functions the benchmark traces exist in the package.

perfbench/spans.py looks up each (module, function) of its TRACED table with
getattr when a traced benchmark run installs its spans, so a traced name the
package loses fails only there, in a run these tests never make.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, func_names in spans.TRACED.items():
        module = importlib.import_module(f"scimetrics.{module_name}")
        for func_name in func_names:
            assert callable(getattr(module, func_name)), (module_name, func_name)
