"""Record classes against the stdlib `dataclasses` as the reference."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import l0convex
from l0convex import ONE, Ball, CounterexampleFamily, Weighted
from l0convex._common import Ratio, record

STDLIB = dataclasses.dataclass(frozen=True)


def point(decorate):
    @decorate
    class Point:
        x: int
        y: object = "origin"

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x must be nonnegative")

    return Point


def no_fields(decorate):
    @decorate
    class Nothing:
        """No fields, like CounterexampleFamily."""

        def label(self):
            return "nothing"

    return Nothing


def both(define):
    """The same class body under the frozen stdlib decorator and under
    `record`; both classes have the same qualified name."""
    return define(STDLIB), define(record)


def observe(cls, *args, **kwargs):
    obj = cls(*args, **kwargs)
    try:
        h = hash(obj)
    except TypeError:
        h = "unhashable"
    return repr(obj), h


class TestParity:
    @pytest.mark.parametrize(
        "args, kwargs", [((3,), {}), ((3, (1, "a")), {}), ((), {"x": 0, "y": None}), ((2,), {"y": 2})]
    )
    def test_frozen_with_post_init(self, args, kwargs):
        ref, rec = both(point)
        assert observe(rec, *args, **kwargs) == observe(ref, *args, **kwargs)
        assert rec(*args, **kwargs) == rec(*args, **kwargs)
        assert rec(3) != rec(4) and rec(3, 1) != rec(3)
        assert rec(3) != ref(3)  # same fields, another class
        with pytest.raises(ValueError):
            rec(-1)

    def test_frozen_rejects_assignment_and_deletion(self):
        for cls in both(point):
            p = cls(1)
            for name in ("x", "y", "z"):
                with pytest.raises(AttributeError):
                    setattr(p, name, 5)
                with pytest.raises(AttributeError):
                    delattr(p, name)
            assert p == cls(1)

    def test_no_fields(self):
        ref, rec = both(no_fields)
        assert observe(rec) == observe(ref)
        assert repr(rec()) == repr(ref()) == "no_fields.<locals>.Nothing()"
        assert rec() == rec() and hash(rec()) == hash(rec())
        assert rec().label() == "nothing"
        with pytest.raises(AttributeError):
            rec().x = 1

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 1}), ((), {"y": 1})],
        ids=["missing", "too-many", "twice", "unknown", "missing-with-keyword"],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        for cls in both(point):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_package_records(self):
        ball = Ball((Weighted(ONE),), ONE)
        assert repr(ball) == "Ball(seminorms=(Weighted(weight={|1}),), radius={|1})"
        assert ball == Ball((Weighted(ONE),), ONE)
        assert hash(ball) == hash(((Weighted(ONE),), ONE))
        assert CounterexampleFamily() == CounterexampleFamily()
        for obj, name in ((ball, "radius"), (CounterexampleFamily(), "family")):
            with pytest.raises(AttributeError):
                setattr(obj, name, ONE)


def package_records() -> list[type]:
    """Every class any `l0convex` module defines through `record`: its
    `__init__` is the one closure `record` installs."""
    made_by_record = Ratio.__init__.__code__
    found = set()
    for info in pkgutil.iter_modules(l0convex.__path__):
        module = importlib.import_module(f"l0convex.{info.name}")
        for cls in vars(module).values():
            init = vars(cls).get("__init__") if isinstance(cls, type) else None
            if getattr(init, "__code__", None) is made_by_record:
                found.add(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


PACKAGE_RECORDS = package_records()


@pytest.mark.parametrize(
    "cls", PACKAGE_RECORDS, ids=lambda cls: f"{cls.__module__[9:]}.{cls.__qualname__}"
)
def test_every_package_record_is_immutable(cls):
    """Assigning or deleting any attribute of any record raises, and a
    record hashes: no record is a mutable value."""
    names = tuple(vars(cls).get("__annotations__", ()))
    obj = object.__new__(cls)  # the fields set without running `__post_init__`
    obj.__dict__.update(dict.fromkeys(names))
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert vars(obj) == dict.fromkeys(names)
    assert hash(obj) == hash((None,) * len(names))


def test_every_package_record_is_scanned():
    names = {cls.__qualname__ for cls in PACKAGE_RECORDS}
    assert {
        "EvidenceStep", "EvidenceReport", "Tally", "CcEntry", "CcReport", "SeparationWitness",
        "RunConfig", "Ratio", "EventSet", "Ball", "GaugeCertificate",
    } <= names


class TestUnsupported:
    def test_other_options_rejected(self):
        for options in ({"eq": False}, {"frozen": True}):
            with pytest.raises(TypeError):
                record(**options)

    def test_base_class_rejected(self):
        class Base:
            pass

        with pytest.raises(TypeError):
            @record
            class Child(Base):
                x: int

    def test_own_method_rejected(self):
        for name in ("__init__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
            body = {"__annotations__": {"x": "int"}, name: lambda self, *args: None}
            with pytest.raises(TypeError, match=name):
                record(type("Own", (), body))


def test_own_repr_kept():
    """A class that writes its own `__repr__` keeps it, as under `dataclasses`."""

    def shown(decorate):
        @decorate
        class Shown:
            x: int

            def __repr__(self):
                return f"<{self.x}>"

        return Shown

    for cls in both(shown):
        assert repr(cls(3)) == "<3>"
        assert cls(3) == cls(3) and hash(cls(3)) == hash(cls(3))


def test_cli_start_up_skips_dataclasses_and_inspect():
    src = str(Path(l0convex.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, l0convex.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert result.stdout.strip() == "[]"
