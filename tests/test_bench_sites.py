"""The benchmark tracer wraps functions by name; every name must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_site():
    tracing = load_tracing()
    sites = [(owner, attr) for owners in tracing._SITES.values() for owner, attr in owners]
    sites.append(tracing._BUILDS[:2])
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in sites}
    with tracing.Tracer().installed():
        for owner, attr in sites:
            assert owner.__dict__[attr] is not before[(id(owner), attr)], (owner, attr)
    for owner, attr in sites:
        assert owner.__dict__[attr] is before[(id(owner), attr)], (owner, attr)
