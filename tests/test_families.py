"""Parametric family generators and their from-scratch verification."""

import inspect

import pytest

from circulant import make_circulant
from circulant.errors import (
    DegenerateFamily,
    InvalidFamilyParams,
    VerificationFailure,
)
from circulant.families import (
    KINDS,
    FamilyClaim,
    FamilyInstance,
    ThetaRelation,
    anchor_swapped,
    family_general_p,
    family_m2,
    family_m2_general,
    family_m3,
    family_verify,
)
from circulant.groups import census
from circulant.theta import ThetaParams, Verdict, classify_t
from circulant.type1 import type1_set
from golden import SEVEN_SETS

# parameters of each kind, in its flags' order, that the tests below use
KIND_ARGS = {
    "m2": (3, 1),
    "m2-general": (5, 2, (3,), 3),
    "m3": (1,),
    "m3-general": (2, (2,)),
    "m5": (1,),
    "m5-general": (1, (2,)),
    "m7": (1,),
    "m7-general": (1, (2, 3)),
    "general-p": (7, 5, 3, 2),
}


def build(kind, *args):
    return KINDS[kind][0](*args)


def test_m2_smallest_instance():
    f = family_m2(3, 1)
    assert f.order == 24
    assert [s.jumps for s in f.sets] == [(1, 2, 11), (2, 5, 7)]
    assert f.claim is FamilyClaim.TYPE2
    # cross relations at t = n and 3n, self relations at t = 2n
    assert ThetaRelation(3, 0, 1) in f.relations
    assert ThetaRelation(9, 1, 0) in f.relations
    assert ThetaRelation(6, 0, 0) in f.relations


def test_m2_degenerate_when_sets_coincide():
    with pytest.raises(DegenerateFamily):
        family_m2(3, 2)


def test_m2_rejects_out_of_range_s():
    with pytest.raises(InvalidFamilyParams):
        family_m2(3, 0)
    with pytest.raises(InvalidFamilyParams):
        family_m2(3, 5)


def test_m3_instances():
    expected = {
        1: [(1, 3, 8, 10), (3, 4, 5, 13), (2, 3, 7, 11)],
        2: [(1, 3, 17, 19), (3, 7, 11, 25), (3, 5, 13, 23)],
        3: [(1, 3, 26, 28), (3, 10, 17, 37), (3, 8, 19, 35)],
        4: [(1, 3, 35, 37), (3, 13, 23, 49), (3, 11, 25, 47)],
    }
    for n, sets in expected.items():
        f = family_m3(n)
        assert f.order == 27 * n
        assert [s.jumps for s in f.sets] == sets
        # one 3-cycle of rotations at step n
        assert set(f.relations) == {
            ThetaRelation(n, 0, 1),
            ThetaRelation(n, 1, 2),
            ThetaRelation(n, 2, 0),
        }


@pytest.mark.parametrize("n", range(1, 31))
def test_m3_is_general_p_at_3_with_its_set_formulas(n):
    # the m = 3 formulas, written out apart from family_general_p
    formulas = [
        [1, 3, 9 * n - 1, 9 * n + 1],
        [3, 3 * n + 1, 6 * n - 1, 12 * n + 1],
        [3, 3 * n - 1, 6 * n + 1, 12 * n - 1],
    ]
    f = family_m3(n)
    assert (f.order, f.m, f.claim) == (27 * n, 3, FamilyClaim.TYPE2)
    assert f.sets == tuple(make_circulant(27 * n, v) for v in formulas)
    assert f.relations == tuple(ThetaRelation(n, i, (i + 1) % 3) for i in range(3))


@pytest.mark.parametrize("n", [0, -1, -5])
def test_m3_rejects_a_non_positive_n(n):
    with pytest.raises(InvalidFamilyParams, match=f"n must be positive, got {n}"):
        family_m3(n)


def test_m3_general_with_a_coprime_multiplier():
    f = anchor_swapped(family_m3(2), (2,))
    assert [s.jumps for s in f.sets] == [(1, 6, 17, 19), (6, 7, 11, 25), (5, 6, 13, 23)]
    assert f.claim is FamilyClaim.TYPE1_OR_TYPE2
    v = family_verify(f)
    assert v.resolved == "type2"
    assert len(v.t2_members) == 3
    assert v.group_order == 3


def test_m3_general_can_collapse_to_multipliers():
    f = anchor_swapped(family_m3(2), (6,))
    assert [s.jumps for s in f.sets] == [
        (1, 17, 18, 19),
        (7, 11, 18, 25),
        (5, 13, 18, 23),
    ]
    v = family_verify(f)
    assert v.resolved == "type1"
    assert len(v.t1_witness_pairs) == 3
    assert len(v.t2_members) == 1
    assert v.group_order == 1


def test_m2_general_reduces_to_m2():
    assert family_m2_general(3, 1, (1,), 1).sets == family_m2(3, 1).sets


def test_m5_smallest_instance_verifies():
    f = build("m5", 1)
    assert f.order == 125
    assert f.sets[0].jumps == (1, 5, 24, 26, 49, 51)
    v = family_verify(f)
    assert v.resolved == "type2"
    assert v.group_order == 5


def test_m7_smallest_instance_verifies():
    f = build("m7", 1)
    assert f.order == 343
    assert len(f.sets) == 7
    v = family_verify(f)
    assert v.resolved == "type2"
    assert v.group_order == 7


def test_general_variants_reduce_to_their_bases():
    assert build("m5-general", 1, (1,)).sets == family_general_p(5, 1, 1, 0).sets
    assert build("m7-general", 1, (1,)).sets == family_general_p(7, 1, 1, 0).sets
    # each *-general kind is its base with the anchor m swapped for m*p_i
    cases = [
        (build("m2-general", 5, 2, (3,), 3), family_m2(5, 2), (3,)),
        (build("m2-general", 6, 1, (1, 5), 5), family_m2(6, 1), (1, 5)),
        (build("m3-general", 2, (2,)), family_m3(2), (2,)),
        (build("m3-general", 3, (4, 9)), family_m3(3), (4, 9)),
        (build("m5-general", 2, (3,)), family_general_p(5, 2, 1, 0), (3,)),
        (build("m7-general", 1, (2, 3)), family_general_p(7, 1, 1, 0), (2, 3)),
    ]
    for general, base, p_list in cases:
        extra = [base.m * p for p in p_list]
        sets = tuple(
            make_circulant(base.order, [j for j in s.jumps if j % base.m] + extra)
            for s in base.sets
        )
        assert general == FamilyInstance(
            base.order, base.m, sets, base.relations, FamilyClaim.TYPE1_OR_TYPE2
        )
    scaled = build("m5-general", 1, (2,))
    assert scaled.sets[0].jumps == (1, 10, 24, 26, 49, 51)
    v = family_verify(scaled)
    assert v.resolved == "type2" and v.group_order == 5


def test_m5_and_m7_kinds_are_general_p_cases():
    for n in (1, 2, 3):
        assert build("m5", n) == family_general_p(5, n, 1, 0)
        assert build("m7", n) == family_general_p(7, n, 1, 0)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_builds_and_verifies(kind):
    builder, flags = KINDS[kind]
    # the flags name the builder's parameters, in its argument order
    assert [f.replace("-", "_") for f in flags] == list(inspect.signature(builder).parameters)
    instance = builder(*KIND_ARGS[kind])
    v = family_verify(instance)
    assert v.resolved == "type2" or instance.claim is FamilyClaim.TYPE1_OR_TYPE2


def test_general_p_reduces_to_m3():
    assert family_general_p(3, 1, 1, 0).sets == family_m3(1).sets


def test_general_p_builds_the_order_1715_family():
    f = family_general_p(7, 5, 3, 2)
    assert f.order == 1715
    assert tuple(s.jumps for s in f.sets) == SEVEN_SETS
    assert len(f.relations) == 42


def test_general_p_rejects_non_primes():
    with pytest.raises(InvalidFamilyParams):
        family_general_p(4, 1, 1, 0)
    with pytest.raises(InvalidFamilyParams):
        family_general_p(9, 1, 1, 0)


def test_general_p_bounds_x_and_y():
    with pytest.raises(InvalidFamilyParams):
        family_general_p(3, 1, 0, 0)
    with pytest.raises(InvalidFamilyParams):
        family_general_p(3, 1, 3, 0)
    with pytest.raises(InvalidFamilyParams):
        family_general_p(3, 1, 1, 3)
    family_general_p(3, 1, 2, 2)  # extremes of both ranges are fine


def test_multiplier_lists_are_validated():
    base = family_m3(2)
    with pytest.raises(InvalidFamilyParams):
        anchor_swapped(base, ())
    with pytest.raises(InvalidFamilyParams):
        anchor_swapped(base, (0,))
    with pytest.raises(InvalidFamilyParams):
        anchor_swapped(base, (2, 4))
    anchor_swapped(base, (6,))  # a single multiplier has no coprimality partner


def test_instance_rejects_mismatched_member_sizes():
    r1 = make_circulant(16, [1, 2, 7])
    r2 = make_circulant(16, [2, 3])
    with pytest.raises(InvalidFamilyParams, match="sizes differ"):
        FamilyInstance(16, 2, (r1, r2), (ThetaRelation(2, 0, 1),), FamilyClaim.TYPE2)


def test_instance_rejects_mismatched_gcd_signatures():
    r1 = make_circulant(16, [1, 2, 7])
    r2 = make_circulant(16, [1, 3, 5])
    with pytest.raises(InvalidFamilyParams, match="gcd signatures"):
        FamilyInstance(16, 2, (r1, r2), (ThetaRelation(2, 0, 1),), FamilyClaim.TYPE2)


def test_instance_rejects_an_unanchored_member():
    # equal gcd signatures make members anchored alike, so both lack one
    r1 = make_circulant(16, [1, 3, 7])
    r2 = make_circulant(16, [3, 5, 7])
    with pytest.raises(InvalidFamilyParams, match=r"\(1, 3, 7\).*: NoAnchorJump$"):
        FamilyInstance(16, 2, (r1, r2), (ThetaRelation(2, 0, 1),), FamilyClaim.TYPE2)


def test_instance_rejects_a_member_of_another_order():
    g = make_circulant(54, [2, 3, 16, 20])
    with pytest.raises(InvalidFamilyParams, match=r"^member C_54\(2,3,16,20\) has order 54, not 16$"):
        FamilyInstance(16, 2, (g, g), (), FamilyClaim.TYPE2)


def test_instance_rejects_a_repeated_member():
    # apart from the repeat, the pair passes every member check
    g = make_circulant(16, [1, 2, 7])
    with pytest.raises(InvalidFamilyParams, match=r"^member C_16\(1,2,7\) appears more than once$"):
        FamilyInstance(16, 2, (g, g), (ThetaRelation(2, 0, 1),), FamilyClaim.TYPE2)


def test_verify_catches_a_tampered_relation():
    p7 = family_general_p(7, 2, 3, 2)
    step = classify_t(ThetaParams(p7.order, p7.m, 1), p7.sets[0])
    assert step.verdict is Verdict.NON_CIRCULANT
    cases = [
        # member 0's image at t = 1 is member 1, not member 2
        (family_m3(1), ThetaRelation(1, 0, 2)),
        # member 0's image at t = 1 is not circulant at all
        (p7, ThetaRelation(1, 0, 1)),
    ]
    for honest, relation in cases:
        tampered = FamilyInstance(
            honest.order, honest.m, honest.sets, (relation,), FamilyClaim.TYPE2
        )
        with pytest.raises(VerificationFailure, match=rf"\bt={relation.t}\b"):
            family_verify(tampered)


def test_verify_catches_an_overreaching_claim():
    honest = anchor_swapped(family_m3(2), (6,))
    wrong = FamilyInstance(
        honest.order, honest.m, honest.sets, honest.relations, FamilyClaim.TYPE2
    )
    with pytest.raises(VerificationFailure, match="multiplier witnesses"):
        family_verify(wrong)


def _family_instances(order, m):
    """Every m = 2 pair, or every m = 3 cycle and its one-jump anchor swaps, of the order."""
    if m == 2:
        bases = [(family_m2, (order // 8, s)) for s in range(1, order // 8 + 1)]
    else:
        n = order // 27
        bases = [(family_general_p, (3, n, x, y)) for x in (1, 2) for y in range(3 * n)]
    for builder, args in bases:
        try:
            base = builder(*args)
        except InvalidFamilyParams:
            continue
        yield base
        for q in range(2, order // 6 + 1) if m == 3 else ():
            try:
                yield anchor_swapped(base, (q,))
            except InvalidFamilyParams:
                pass


@pytest.mark.parametrize(
    "order, m, sizes, classes, up_to_multipliers",
    [(16, 2, [3], 2, 1), (32, 2, [3], 8, 2), (54, 3, [4], 12, 4)],
)
def test_census_classes_are_the_families_classes(order, m, sizes, classes, up_to_multipliers):
    least = {}

    def key(graphs):
        """The least member of each graph's multiplier orbit."""
        for g in graphs:
            if g not in least:
                orbit = type1_set(g).members
                least.update(dict.fromkeys(orbit, orbit[0]))
        return frozenset(least[g] for g in graphs)

    families = {key(f.sets) for f in _family_instances(order, m)}
    keys = [key(r.members) for r in census(order, m, sizes).records]
    assert (len(keys), len(set(keys))) == (classes, up_to_multipliers)
    assert set(keys) <= families
