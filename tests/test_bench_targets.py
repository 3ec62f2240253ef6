import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_span_targets_resolve():
    # The benchmark wraps each (module, attribute) of bench/spans.TARGETS
    # where callers look it up; a rename or a dropped import would leave a
    # layer untraced.
    spans = load_spans()
    missing = [f"{modname}.{attr}" for modname, attr, _ in spans.TARGETS
               if not hasattr(importlib.import_module(modname), attr)]
    assert spans.TARGETS and not missing, missing
