"""Frozen value records: construction, equality, immutability, inheritance."""

from functools import cached_property

import pytest

from spectile.records import field, record


@record
class Point:
    x: int
    y: int = 0
    tags: list = field(default_factory=list)


@record
class Checked:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative")

    @cached_property
    def square(self) -> int:
        return self.n * self.n


@record
class Labelled(Point):
    label: str | None = field(default=None, compare=False)


def test_fields_positional_by_name_and_defaults():
    assert Point(1, 2).y == 2
    assert Point(y=3, x=1) == Point(1, 3)
    p, q = Point(1), Point(1)
    assert (p.y, p.tags) == (0, [])
    p.tags.append("a")
    assert q.tags == []  # a fresh default per instance
    assert list(Point.__record_fields__) == ["x", "y", "tags"]
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, 2, [], 4)
    with pytest.raises(TypeError):
        Point(1, x=2)
    with pytest.raises(TypeError):
        Point(1, z=2)


def test_value_equality_and_hash():
    assert Point(1, 2) == Point(1, 2) and Point(1, 2) != Point(2, 1)
    assert hash(Point(1, 2, ())) == hash(Point(1, 2, ()))
    assert len({Checked(3), Checked(3), Checked(4)}) == 2
    assert Point(1, 2) != (1, 2, [])
    assert Checked(1) != Point(1)


def test_frozen():
    p = Point(1)
    with pytest.raises(AttributeError):
        p.x = 2
    with pytest.raises(AttributeError):
        del p.x
    with pytest.raises(AttributeError):
        p.z = 1
    assert p.x == 1


def test_post_init_and_cached_property():
    with pytest.raises(ValueError):
        Checked(-1)
    c = Checked(5)
    assert c.square == 25 and c.square == 25
    assert c == Checked(5)  # a cached value is no field


def test_subclass_fields_follow_the_base_and_may_skip_comparison():
    a, b = Labelled(1, 2, (), "a"), Labelled(1, 2, (), "b")
    assert list(Labelled.__record_fields__) == ["x", "y", "tags", "label"]
    assert a == b and hash(a) == hash(b)
    assert a != Point(1, 2, ())  # records of two classes never compare equal
    assert Labelled(1).label is None
    assert repr(a) == "Labelled(x=1, y=2, tags=(), label='a')"


def test_a_field_without_default_after_one_with_is_refused():
    with pytest.raises(TypeError):

        @record
        class Bad:
            a: int = 0
            b: int
