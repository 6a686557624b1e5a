"""The benchmark's span tracer still finds every function it wraps.

``gapbench/spans.py`` patches gapcast functions by name; a rename or a
deletion would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import gapcast

SPANS_PATH = Path(__file__).resolve().parents[1] / "gapbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("gapbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_on_every_gapcast_module():
    modules = [
        importlib.import_module(f"gapcast.{info.name}")
        for info in pkgutil.iter_modules(gapcast.__path__)
    ]
    saved = [dict(vars(m)) for m in modules]

    def replaced():
        return [
            f"{module.__name__}.{name}"
            for module, names in zip(modules, saved)
            for name, value in names.items()
            if getattr(module, name) is not value
        ]

    tracer = load_spans().Tracer()
    tracer.install()  # raises SpanError when a traced function is gone
    try:
        assert "gapcast.model.nig_nll_values" in replaced()
        assert "gapcast.training.predict_full" in replaced()
    finally:
        tracer.uninstall()
    assert replaced() == []
