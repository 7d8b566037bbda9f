"""perfbench/tracing.py wraps package names by attribute lookup, and reads
a layer's metrics as 0 when a name is gone. This checks, without running
the benchmark, that every name it wraps still exists."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) > 0
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert missing == []
