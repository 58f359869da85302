"""The benchmark's tracer (perfbench/tracer.py) wraps magtorus functions and
field methods by name: installing it finds every name, and uninstalling it
puts back every original."""

import importlib.util
import sys
from pathlib import Path

import magtorus as mt
import magtorus.cli  # noqa: F401  (the tracer wraps names in every module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every magtorus module and the two field classes the tracer wraps, by
    name, each with a copy of its namespace."""
    owners = {name: mod for name, mod in sys.modules.items()
              if name == "magtorus" or name.startswith("magtorus.")}
    owners.update(TrigField=mt.TrigField, AnalyticField=mt.AnalyticField)
    return {name: dict(vars(owner)) for name, owner in owners.items()}


def test_tracer_finds_every_name_and_restores_every_original(capsys):
    tracer_module = load_tracer()
    before = namespaces()
    tracer = tracer_module.Tracer()
    tracer.install(mt)
    try:
        assert capsys.readouterr().err == ""
        for cls in (mt.TrigField, mt.AnalyticField):
            for meth in tracer_module.FIELD_METHODS:
                assert vars(cls)[meth] is not before[cls.__name__][meth], (cls, meth)
        assert len(tracer._restore) > 2 * len(tracer_module.FIELD_METHODS)
    finally:
        tracer.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [key for key in namespace.keys() | after[name].keys()
                   if namespace.get(key) is not after[name].get(key)]
        assert changed == [], (name, changed)
