"""Records: each constructor refuses what is invalid and normalizes what it
keeps, and no record is a dataclass."""

import importlib
import math
import pkgutil

import pytest

import magtorus as mt


def _field(geometry=None):
    return mt.constant_field(1.0, geometry)


@pytest.mark.parametrize("build, outcome", [
    pytest.param(lambda: mt.TorusGeometry(0, 1), mt.FieldError, id="zero-period"),
    pytest.param(lambda: mt.TorusGeometry(math.inf, 1), mt.FieldError, id="infinite-period"),
    pytest.param(lambda: mt.StepControl(dt=0), ValueError, id="zero-dt"),
    pytest.param(lambda: mt.StepControl(atol=math.nan), ValueError, id="nan-atol"),
    pytest.param(lambda: mt.StepControl(sample_dt=-1), ValueError, id="negative-sample-dt"),
    pytest.param(lambda: mt.RescaledAnsatz(2, (_field(),), (_field(), _field()), _field()),
                 ValueError, id="too-few-f"),
    pytest.param(lambda: mt.StateVector([1.0, 2.0, 3.0]), ValueError, id="odd-state"),
    pytest.param(lambda: mt.StateVector([-1.0, 0.0]), mt.DomainError, id="negative-lambda"),
    pytest.param(lambda: mt.MagneticSystem(_field(), _field(mt.TorusGeometry(1.0, 1.0))),
                 mt.FieldError, id="two-tori"),
    pytest.param(lambda: mt.StepControl(sample_dt=None), lambda c: c.sample_dt is None,
                 id="no-sample-dt"),
    pytest.param(lambda: mt.TorusGeometry(period_y=3.0),
                 lambda g: (g.period_x, g.period_y) == (2.0 * math.pi, 3.0), id="keywords"),
    pytest.param(lambda: mt.PhaseState(0, 0, 7.0),
                 lambda s: s.phi == pytest.approx(7.0 - 2.0 * math.pi), id="wrapped-phi"),
    # _replace and _make go through the checks of the constructor
    pytest.param(lambda: mt.TorusGeometry()._replace(period_x=0.0), mt.FieldError,
                 id="replace-zero-period"),
    pytest.param(lambda: mt.TorusGeometry._make([1.0, -1.0]), mt.FieldError,
                 id="make-negative-period"),
    pytest.param(lambda: mt.StepControl()._replace(dt=-1.0), ValueError,
                 id="replace-negative-dt"),
    pytest.param(lambda: mt.PhaseState(0, 0, 7)._replace(phi=100.0),
                 lambda s: s.phi == mt.PhaseState(0, 0, 100.0).phi < 2.0 * math.pi,
                 id="replace-wrapped-phi"),
    pytest.param(lambda: mt.StateVector([1, 2])._replace(values=[-1, 2]), mt.DomainError,
                 id="replace-negative-lambda"),
    pytest.param(lambda: mt.MagneticSystem(_field(), _field())._replace(
                     omega=_field(mt.TorusGeometry(1.0, 1.0))), mt.FieldError,
                 id="replace-two-tori"),
    pytest.param(lambda: mt.RescaledAnsatz(1, (_field(),), (_field(),), _field())._replace(n=2),
                 ValueError, id="replace-too-few-f"),
])
def test_record_constructors_refuse_and_normalize(build, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            build()
    else:
        assert outcome(build())


def test_no_record_is_a_dataclass():
    # magtorus's own namespaces, not sys.modules: numpy may import dataclasses
    for info in pkgutil.iter_modules(mt.__path__):
        if info.name == "__main__":   # importing it runs the command line
            continue
        module = importlib.import_module(f"magtorus.{info.name}")
        for name, value in vars(module).items():
            assert getattr(value, "__name__", None) != "dataclasses", (info.name, name)
            assert getattr(value, "__module__", None) != "dataclasses", (info.name, name)
            if isinstance(value, type):
                assert not hasattr(value, "__dataclass_fields__"), (info.name, name)
