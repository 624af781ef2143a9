"""The benchmark's tracer wraps diarkit functions by name (bench/tracing.py):
renaming or deleting one would zero its span silently, so Tier-1 checks them."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# spans the tracer still lists for functions the library has since deleted
DELETED = {"clustering.refine_chain"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name, None)


def test_every_span_target_resolves():
    spans = load_tracing().SPANS
    missing = {span for span, target in spans.items() if not callable(resolve(*target))}
    assert missing <= DELETED


def test_counted_arguments_keep_their_names():
    # the counters read these arguments by position, or by name when passed by keyword
    tracing = load_tracing()
    for span, (index, name) in [
        ("aggregation.aggregate", (1, "segments")),
        ("clustering.spectral_cluster", (0, "embeddings")),
    ]:
        assert span in tracing.COUNTERS
        parameters = list(inspect.signature(resolve(*tracing.SPANS[span])).parameters)
        assert parameters[index] == name
