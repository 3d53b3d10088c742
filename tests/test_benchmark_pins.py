"""The names that the benchmark's tracer wraps must exist in the package.

`perfbench/tracer.py` resolves each `TARGETS` entry on `Tracer.install` and
reads `Scalar.is_exact` on every traced operation, so a pinned name that is
renamed or deleted would break only the traced benchmark run.  This test
reads the tracer by path and resolves each entry as `install` does."""

import importlib.util
from pathlib import Path

from fractalmra.scalars import Scalar

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for mod_name, path, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # install reads a method from the class itself, not from a base
        fn = owner.__dict__.get(attr) if outer else getattr(owner, attr, None)
        assert callable(fn), f"{mod_name}.{path}"


def test_scalar_is_exact_exists():
    # the tracer counts a demotion where an exact operand gives an inexact result
    assert Scalar(1).is_exact
