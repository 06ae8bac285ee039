"""Record classes against the stdlib `dataclasses` as the reference."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import l0convex
from l0convex import ONE, Ball, CounterexampleFamily, Weighted
from l0convex._record import field, record

STDLIB = (dataclasses.dataclass, dataclasses.field)
RECORD = (record, field)


def frozen_point(decorate, _field):
    @decorate(frozen=True)
    class Point:
        x: int
        y: object = "origin"

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x must be nonnegative")

    return Point


def mutable_log(decorate, _field):
    @decorate
    class Log:
        name: str
        entries: list = _field(default_factory=list)

    return Log


def no_fields(decorate, _field):
    @decorate(frozen=True)
    class Nothing:
        """No fields, like CounterexampleFamily."""

        def label(self):
            return "nothing"

    return Nothing


def both(define):
    """The same class body under the stdlib decorator and under `record`;
    both classes have the same qualified name."""
    return define(*STDLIB), define(*RECORD)


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
        ref, rec = both(frozen_point)
        assert observe(rec, *args, **kwargs) == observe(ref, *args, **kwargs)
        assert rec(*args, **kwargs) == rec(*args, **kwargs)
        assert rec(3) != rec(4) and rec(3, 1) != rec(3)
        assert rec(3) != ref(3)  # same fields, another class
        with pytest.raises(ValueError):
            rec(-1)

    def test_frozen_rejects_assignment_and_deletion(self):
        for cls in both(frozen_point):
            p = cls(1)
            for name in ("x", "y", "z"):
                with pytest.raises(AttributeError):
                    setattr(p, name, 5)
                with pytest.raises(AttributeError):
                    delattr(p, name)
            assert p == cls(1)

    def test_mutable_with_default_factory(self):
        ref, rec = both(mutable_log)
        assert observe(rec, "a") == observe(ref, "a")
        assert repr(rec("a")) == "mutable_log.<locals>.Log(name='a', entries=[])"
        assert observe(rec, "a")[1] == "unhashable"
        first, second = rec("a"), rec("a")
        first.entries.append(1)
        assert second.entries == []  # a fresh list per instance
        assert first != second and rec("b", [1]) == rec("b", [1])
        first.name = "renamed"
        assert repr(first) == repr(ref("renamed", [1]))
        assert "entries" not in vars(rec)  # the factory is no class attribute
        for cls in (ref, rec):
            with pytest.raises(TypeError):
                cls(entries=[])

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
        for cls in both(frozen_point):
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


class TestUnsupported:
    def test_other_options_rejected(self):
        with pytest.raises(TypeError):
            record(eq=False)

    def test_base_class_rejected(self):
        class Base:
            pass

        with pytest.raises(TypeError):
            @record
            class Child(Base):
                x: int

    def test_own_method_rejected(self):
        with pytest.raises(TypeError):
            @record
            class Shown:
                x: int

                def __repr__(self):
                    return "shown"


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
