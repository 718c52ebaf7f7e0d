"""The package's value records: named tuples, closed, and validated when built."""

import pytest

import circulant
from circulant import (
    CirculantGraph,
    FamilyClaim,
    FamilyInstance,
    ThetaParams,
    appended_jump_check,
    brute_force_isomorphic,
    census,
    classification_table,
    classify_steps,
    family_m2,
    family_verify,
    make_circulant,
    period_cycle_stats,
    t2_group,
    t2_set,
    theta_image,
    type1_group,
    v_set,
)
from circulant.cli import _json
from circulant.errors import (
    EmptyConnectionSet,
    InvalidFamilyParams,
    InvalidJump,
    InvalidThetaParams,
)


def test_a_graph_hashes_orders_and_prints_as_its_pair():
    # set and dict order, sorted members and every rendering depend on these
    g = CirculantGraph(16, (1, 2))
    assert hash(g) == hash((g.n, g.jumps))
    graphs = [CirculantGraph(16, (2, 3)), CirculantGraph(9, (4,)), g, CirculantGraph(16, (1, 3))]
    assert sorted(graphs) == sorted(graphs, key=lambda x: (x.n, x.jumps))
    assert [str(x) for x in sorted(graphs)] == ["C_9(4)", "C_16(1,2)", "C_16(1,3)", "C_16(2,3)"]
    assert str(g) == "C_16(1,2)"
    assert repr(g) == "CirculantGraph(n=16, jumps=(1, 2))"


def test_the_envelope_writer_refuses_a_graph():
    # it takes a tuple only by its exact type, so a record never becomes an array
    g = make_circulant(16, [1, 2])
    for value in (g, [g], {"graph": g}):
        with pytest.raises(TypeError, match="CirculantGraph"):
            _json(value)


def _one_of_each_record():
    g = make_circulant(16, [1, 2, 7])
    h = make_circulant(16, [2, 3, 5])
    s = t2_set(g, 2)
    result = census(16, 2, [3])
    family = family_m2(3, 1)
    return [
        g,
        period_cycle_stats(16, 2),
        type1_group(g).carrier,
        type1_group(g),
        ThetaParams(16, 2, 1),
        theta_image(ThetaParams(16, 2, 1), g),
        classify_steps(g, 2, range(8))[0],
        classification_table(g, 2, t_values=[1])[0],
        v_set(g, 2),
        s,
        t2_group(s),
        appended_jump_check(make_circulant(16, [1, 7]), 2, 2),
        result.records[0],
        result.summary,
        result,
        brute_force_isomorphic(g, h),
        family.relations[0],
        family,
        family_verify(family),
    ]


def test_every_record_is_closed_to_assignment():
    values = _one_of_each_record()
    exported = {
        v for v in vars(circulant).values() if isinstance(v, type) and issubclass(v, tuple)
    }
    assert {type(v) for v in values} == exported
    for value in values:
        field = type(value)._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1


G = make_circulant(16, [1, 2, 7])
H = make_circulant(16, [2, 3, 5])
G54 = make_circulant(54, [2, 3, 16, 20])
TYPE2 = FamilyClaim.TYPE2


@pytest.mark.parametrize(
    "record, fields, error, message",
    [
        (CirculantGraph, (2, (1,)), InvalidJump, "graph order must be at least 3, got 2"),
        (CirculantGraph, (16, ()), EmptyConnectionSet, "connection set is empty"),
        (CirculantGraph, (16, (9,)), InvalidJump, "jump 9 outside [1, 8] for order 16"),
        (CirculantGraph, (16, (1, 2.0)), InvalidJump, "jump 2.0 outside [1, 8] for order 16"),
        (CirculantGraph, (16, (2, 1)), InvalidJump, "jumps must be strictly increasing, got (2, 1)"),
        (ThetaParams, (16, 1, 0), InvalidThetaParams, "invalid rotation parameters n=16, m=1: MTooSmall"),
        (ThetaParams, (16, 4, 0), InvalidThetaParams, "invalid rotation parameters n=16, m=4: NoDivisorCubed"),
        (ThetaParams, (16, 2, 8), InvalidThetaParams, "step t=8 outside [0, 7]"),
        (ThetaParams, (16, 2, -1), InvalidThetaParams, "step t=-1 outside [0, 7]"),
        (FamilyInstance, (16, 2, (G, G54), (), TYPE2), InvalidFamilyParams, "member C_54(2,3,16,20) has order 54, not 16"),
        (FamilyInstance, (16, 2, (G, G), (), TYPE2), InvalidFamilyParams, "member C_16(1,2,7) appears more than once"),
        (FamilyInstance, (16, 2, (G, make_circulant(16, [2, 3])), (), TYPE2), InvalidFamilyParams, "member sizes differ: [2, 3]"),
        (FamilyInstance, (16, 2, (G, make_circulant(16, [1, 3, 5])), (), TYPE2), InvalidFamilyParams, "gcd signatures differ across members"),
        (FamilyInstance, (16, 3, (G, H), (), TYPE2), InvalidFamilyParams, "member (1, 2, 7) of order 16 inadmissible for m=3: NoDivisorCubed, NoAnchorJump"),
    ],
)
def test_every_construction_is_validated(record, fields, error, message):
    # the check sits in __new__, so it runs however the fields are passed
    with pytest.raises(error) as positional:
        record(*fields)
    with pytest.raises(error) as keyword:
        record(**dict(zip(record._fields, fields)))
    assert type(positional.value) is type(keyword.value) is error
    assert str(positional.value) == str(keyword.value) == message

