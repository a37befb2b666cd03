import functools
import random
import tracemalloc
from itertools import product
from unittest import mock

import pytest

from mla_forge import brackets, search
from mla_forge.brackets import (
    LieBracket,
    bracket_orbit,
    commutator_bracket,
    derived_subalgebra,
    end_mla,
    is_ideal,
    pushforward_table,
    reverse_bracket,
    trivial_bracket,
    verify_mla,
)
from mla_forge.cli import parse_preset
from mla_forge.construction import Action, semidirect_product
from mla_forge.errors import BoundExceededError, ValidationError
from mla_forge.groups import (
    automorphism_generators,
    automorphisms,
    direct_product,
    endomorphism_count,
    find_generators,
    homomorphisms,
    identify_small_group,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    subgroup_generated,
)
from mla_forge.search import SearchConfig, enumerate_brackets

import oracle


def small_catalog():
    return [
        make_cyclic(1),
        make_cyclic(2),
        make_cyclic(6),
        make_cyclic(12),
        make_dihedral(2),
        make_dihedral(3),
        make_dihedral(4),
        make_dihedral(6),
        make_dihedral(8),
        make_quaternion(2),
        make_quaternion(4),
        direct_product(make_cyclic(2), make_cyclic(2)),
        direct_product(make_cyclic(4), make_dihedral(4)),
        direct_product(make_cyclic(3), make_dihedral(3)),
    ]


# -- verify_mla ---------------------------------------------------------------


def test_trivial_and_commutator_valid_on_catalog():
    # presets up to order 32
    for g in small_catalog():
        assert verify_mla(g, trivial_bracket(g)) == []
        assert verify_mla(g, commutator_bracket(g)) == []


def test_commutator_on_abelian_is_trivial():
    g = make_cyclic(6)
    assert commutator_bracket(g).star == trivial_bracket(g).star


def test_commutator_bracket_on_d4_generator_cell():
    g = make_dihedral(4)
    assert commutator_bracket(g).star[4][1] == 2  # a * b = b^2


def test_group_multiplication_is_not_a_bracket():
    g = make_dihedral(3)
    violations = verify_mla(g, g.cayley)
    assert violations
    first = violations[0]
    assert first.axiom == "A1"
    assert g.cayley[first.witness[0]][first.witness[0]] != 0


def test_violation_witnesses_reevaluate():
    g = make_dihedral(3)
    table = [list(r) for r in trivial_bracket(g).star]
    table[1][2] = 3  # poke one cell
    for v in verify_mla(g, table):
        x = v.witness
        if v.axiom == "A1":
            assert table[x[0]][x[0]] != 0
        elif v.axiom == "A2":
            a, b, c = x
            assert table[a][g.mul(b, c)] != g.mul(table[a][b], g.conj(b, table[a][c]))


def test_violation_cap():
    g = make_cyclic(6)
    assert len(verify_mla(g, g.cayley, max_violations=3)) == 3
    assert len(verify_mla(g, g.cayley, max_violations=16)) == 16


@pytest.mark.parametrize("cap", [0, -5, 2.5, True, False, "16", None])
def test_violation_cap_must_be_a_positive_int(cap):
    g = make_dihedral(3)
    with pytest.raises(ValidationError, match="max_violations"):
        verify_mla(g, [[0]], max_violations=cap)  # checked before the table's shape


@pytest.mark.parametrize("value", [-1, 6])
def test_star_values_outside_the_group_are_rejected(value):
    g = make_dihedral(3)
    table = [list(r) for r in trivial_bracket(g).star]
    table[2][4] = value
    with pytest.raises(ValidationError, match="star values"):
        verify_mla(g, table)


def _search_leaves(group, config=None):
    """Every table the star-table search hands to its leaf decision."""
    leaves = []

    def leaf_check(g, table, ranges):
        leaves.append(table)
        return brackets._is_mla(g, table, ranges)

    with mock.patch.object(search, "_is_mla", leaf_check):
        enumerate_brackets(group, config or SearchConfig(max_group_order=16))
    return leaves


def _rejected_leaves(group, every):
    """Every ``every``-th table the star-table search rejects at a leaf."""
    ranges = brackets._reduced_ranges(group)
    return [t for t in _search_leaves(group) if not brackets._is_mla(group, t, ranges)][::every]


def _one_cell_corruptions(group, table):
    n = group.order
    for x, y in product(range(n), repeat=2):
        rows = [list(r) for r in table]
        rows[x][y] = (rows[x][y] + 1) % n
        yield tuple(tuple(r) for r in rows)


def reduced_range_catalog():
    """(group, table) pairs on which ``_is_mla`` decides A2, A3 and A5 on
    generators and A4 on its reduced range.

    - Leaves the search rejects on Z2^3, Z2 x Q8 and Z2 x D4: each fails A4
      only; Z2 x D4 is non-abelian with a central generator.
    - Every one-cell corruption of valid tables on Z4, D3, D4 and Q8.
      Corrupting (x, e), e the identity, for x != e keeps A1 and breaks A2
      first at (x, e, e), outside the generators in z; A2 reads only row x,
      so when x is not a generator A2 holds at every generator x.
    - The commutator table with the identity's row replaced by y -> y^-1:
      that row is still a crossed homomorphism, so A1 and A2 hold, and A3
      fails first at x = e, not a generator.
    - Tables expanded from generator-pair seeds on D4 and Q8 that fail A3
      only at z outside the generators (and fail A1 and A2 too).
    - A table on D5 that is the identity off the pairs (^g r, ^g r^3) and
      ^g r^4 on them: A5 holds, and A4 fails only at triples whose y is
      least in its orbit under the centralizer of x but not in its class.
    """
    z2 = make_cyclic(2)
    out = []
    for group in (
        direct_product(z2, direct_product(z2, z2)),
        direct_product(z2, make_quaternion(2)),
        direct_product(z2, make_dihedral(4)),
    ):
        out.extend((group, t) for t in _rejected_leaves(group, every=4))
    d3, d4, q8 = make_dihedral(3), make_dihedral(4), make_quaternion(2)
    valid = [(make_cyclic(4), trivial_bracket(make_cyclic(4)).star)]
    valid += [(g, b.star) for g in (d3, d4, q8) for b in (trivial_bracket(g), commutator_bracket(g))]
    for group, table in valid:
        out.extend((group, t) for t in _one_cell_corruptions(group, table))
    for group in (d3, d4):
        rows = list(commutator_bracket(group).star)
        rows[group.identity] = group.inverse
        out.append((group, tuple(rows)))
    for group, ab, ba in ((d4, 5, 1), (q8, 4, 3)):
        a, b = find_generators(group)
        seed = {(a, a): group.identity, (b, b): group.identity, (a, b): ab, (b, a): ba}
        out.append((group, oracle.expand_table(group, (a, b), seed)))
    d5 = make_dihedral(5)
    rows = [[d5.identity] * d5.order for _ in range(d5.order)]
    for g in range(d5.order):
        rows[d5.conj(g, 1)][d5.conj(g, 3)] = d5.conj(g, 4)
    out.append((d5, tuple(map(tuple, rows))))
    return out


@functools.cache
def _catalog_with_oracle():
    return [(g, t, oracle.axiom_violations(g, t)) for g, t in reduced_range_catalog()]


def test_verify_mla_matches_the_axiom_oracle():
    """Equal lists for caps 1, 16 and one past the violation count."""
    for group, table, expected in _catalog_with_oracle():
        for cap in (1, 16, len(expected) + 1):
            got = verify_mla(group, table, max_violations=cap)
            assert [(v.axiom, v.witness, v.left, v.right) for v in got] == expected[:cap]


def test_reduced_ranges_decide_each_axiom():
    """The reduced scans of A1, A2, A3 and A5 fail exactly when the axiom
    does, whatever the other axioms do: _is_mla relies on this to make its
    A4 range exact (A4's reduced range assumes the other axioms)."""
    for group, table, expected in _catalog_with_oracle():
        ranges = brackets._reduced_ranges(group)
        axioms = ("A1", "A2", "A3", "A5")
        failing = {a for a in axioms if not brackets.axiom_holds(group, table, a, ranges[a])}
        assert failing == {v[0] for v in expected} - {"A4"}


def test_reduced_range_catalog_reaches_each_case():
    """The catalog meets each way a reduced range could go wrong: a first
    witness outside the reduced range, so the full scan must supply it (A2,
    A3, A5); failures that generators in another argument would miss (A2 in
    x, A3 in z); and A4-only failures.

    For A4 it meets a failure on a non-abelian group with a central
    generator, and failures that a range missing each condition of the A4
    ranges would miss: the conjugation range when A5 fails too, the
    generator triples when A1-A3 fail too, and y least in its class rather
    than in its orbit under the centralizer of x.

    No catalog table passes A1-A4 and fails A5, so verify_mla reaches A5's
    violations only behind an earlier failing axiom."""
    seen = set()
    for group, table, expected in _catalog_with_oracle():
        if not expected:
            continue
        gens = find_generators(group)
        axiom, witness = expected[0][:2]
        failed = {v[0] for v in expected}
        a4 = [v[1] for v in expected if v[0] == "A4"]
        if failed == {"A4"}:
            seen.add("A4 only")
            central = [s for s in gens if group.conj_table[s] == group.conj_table[group.identity]]
            if central and not group.is_abelian:
                seen.add("A4 only, non-abelian with a central generator")
        if {"A4", "A5"} <= failed and not any(_in_conjugation_range(group, w) for w in a4):
            seen.add("A4 and A5 fail, A4 off the conjugation range")
        off_triples = not any(set(w) <= set(gens) and w[0] < w[1] < w[2] for w in a4)
        if group.is_abelian and a4 and failed & {"A1", "A2", "A3"} and off_triples:
            seen.add("A4 and one of A1-A3 fail, A4 off the generator triples")
        if a4 and "A5" not in failed and not any(_in_conjugation_range(group, w, by_class=True) for w in a4):
            seen.add("A5 holds, A4 fails only at y not least in its class")
        if axiom == "A2" and witness[2] not in gens:
            seen.add("A2 first witness off the generators")
        if axiom == "A2" and all(v[1][0] not in gens for v in expected if v[0] == "A2"):
            seen.add("A2 holds at every generator x")
        if axiom == "A3" and witness[0] not in gens:
            seen.add("A3 first witness off the generators")
        if "A3" in failed and all(v[1][2] not in gens for v in expected if v[0] == "A3"):
            seen.add("A3 fails only off the generators in z")
        first_a5 = next((v[1] for v in expected if v[0] == "A5"), None)
        if first_a5 is not None and first_a5[2] not in gens:
            seen.add("A5 first witness off the generators")
    assert seen == {
        "A4 only",
        "A2 first witness off the generators",
        "A2 holds at every generator x",
        "A3 first witness off the generators",
        "A3 fails only off the generators in z",
        "A5 first witness off the generators",
        "A4 only, non-abelian with a central generator",
        "A4 and A5 fail, A4 off the conjugation range",
        "A4 and one of A1-A3 fail, A4 off the generator triples",
        "A5 holds, A4 fails only at y not least in its class",
    }


def _leaf_decision_searches():
    """(group, config) of searches whose every leaf the A4-first decision
    must judge as verify_mla does."""
    z2xd4 = parse_preset("Z2xD4")
    ideal = SearchConfig(max_group_order=24, require_ideal=subgroup_generated(z2xd4, {1}))
    z3_v4 = semidirect_product(Action.by_inversion(make_cyclic(3), parse_preset("Z2xZ2"), (1, 2)))
    specs = ("Z2xZ2xZ2", "Z2xD4", "Z2xQ8", "Z2xZ2xD3", "Z2xZ2xZ4")
    cases = [pytest.param(parse_preset(s), SearchConfig(max_group_order=24), id=s) for s in specs]
    return cases + [pytest.param(z3_v4, SearchConfig(), id="Z3:V4"), pytest.param(z2xd4, ideal, id="Z2xD4-ideal")]


@pytest.mark.parametrize("group, config", _leaf_decision_searches())
def test_a4_first_leaf_decision_matches_verify_mla(group, config):
    """The search's leaf decision, A4 first on the range the other axioms
    allow, accepts a table exactly when it is a bracket, as the oracle's
    scan of the definitions finds (verify_mla's verdict is this decision)."""
    leaves = _search_leaves(group, config)
    assert leaves
    ranges = brackets._reduced_ranges(group)
    for table in leaves:
        assert brackets._is_mla(group, table, ranges) == (oracle.first_axiom_violation(group, table) is None)


def test_a4_first_leaf_decision_on_the_reduced_range_catalog():
    for group, table, expected in _catalog_with_oracle():
        assert brackets._is_mla(group, table, brackets._reduced_ranges(group)) == (not expected)


def test_a4_first_leaf_decision_rejects_a_table_that_passes_a4_on_generators():
    """On Z2^3 the table that is the identity but for s1*s2 = s3 and
    s2*s1 = s3^-1 passes A1 and A4 at the one generator triple, yet fails A2
    and A3, so A4's generator range was not exact for it: the decision must
    still reject it."""
    g = parse_preset("Z2xZ2xZ2")
    s1, s2, s3 = find_generators(g)
    rows = [[g.identity] * g.order for _ in range(g.order)]
    rows[s1][s2], rows[s2][s1] = s3, g.inverse[s3]
    table = tuple(map(tuple, rows))
    ranges = brackets._reduced_ranges(g)
    assert brackets.axiom_holds(g, table, "A1", ranges["A1"]) and brackets.axiom_holds(g, table, "A4", ranges["A4"])
    assert not brackets.axiom_holds(g, table, "A2", ranges["A2"])
    assert not brackets.axiom_holds(g, table, "A3", ranges["A3"])
    assert not brackets._is_mla(g, table, ranges)


def _in_conjugation_range(group, triple, by_class=False):
    """Whether (x, y, z) has x least in its class, x <= y, x <= z, and y least
    in its orbit under the centralizer of x (with ``by_class``, in its class)."""
    x, y, z = triple
    n = group.order
    by = range(n) if by_class else [c for c in range(n) if group.conj(c, x) == x]
    return (
        x <= y
        and x <= z
        and all(group.conj(c, x) >= x for c in range(n))
        and all(group.conj(c, y) >= y for c in by)
    )


def test_border_cells_forced_by_a1_a2():
    # a table that is nonidentity at (x, e) must break A1 or A2
    g = make_cyclic(4)
    table = [list(r) for r in trivial_bracket(g).star]
    table[1][0] = 2
    axioms = {v.axiom for v in verify_mla(g, table)}
    assert axioms & {"A1", "A2"}


# -- derived subalgebra and ideals ----------------------------------------------


def test_derived_trivial():
    g = make_dihedral(4)
    assert derived_subalgebra(trivial_bracket(g)).members == (0,)


def test_derived_commutator_s3():
    g = make_dihedral(3)
    sub = derived_subalgebra(commutator_bracket(g))
    assert sub.order == 3
    assert sub.is_normal


def test_derived_is_normal_ideal_for_valid_brackets():
    from mla_forge.search import enumerate_brackets

    for g in (make_dihedral(3), make_dihedral(4), make_quaternion(2)):
        for bracket in enumerate_brackets(g).items:
            sub = derived_subalgebra(bracket)
            assert sub.is_normal
            assert is_ideal(bracket, sub)


def test_is_ideal_identity_subgroup():
    g = make_dihedral(3)
    assert is_ideal(commutator_bracket(g), (0,))


def test_is_ideal_z3_in_s3():
    g = make_dihedral(3)
    assert is_ideal(commutator_bracket(g), (0, 1, 2))


def test_is_ideal_rejects_non_normal():
    g = make_dihedral(3)
    refl = subgroup_generated(g, {3})
    assert refl.order == 2
    assert not is_ideal(commutator_bracket(g), refl)


@pytest.mark.parametrize(
    "sub",
    [
        subgroup_generated(make_cyclic(16), {4}),
        subgroup_generated(make_cyclic(8), {2}),
        [0, 9],
        ["a", 1],
        [0, 1.0],
    ],
    ids=["subgroup-of-Z16", "subgroup-of-Z8", "index-out-of-range", "not-an-integer", "float"],
)
def test_is_ideal_rejects_a_subset_outside_the_group(sub):
    with pytest.raises(ValidationError):
        is_ideal(commutator_bracket(make_dihedral(4)), sub)


def test_is_ideal_rejects_a_list_that_is_not_a_subgroup():
    # {1, r, r^3} is not closed: r r = r^2
    with pytest.raises(ValidationError):
        is_ideal(trivial_bracket(make_dihedral(4)), [0, 1, 3])


# -- equivalence ------------------------------------------------------------------


def test_equivalent_identical_brackets():
    g = make_dihedral(3)
    for br in (trivial_bracket(g), commutator_bracket(g)):
        assert br.star in set(bracket_orbit(br))
    # the identity automorphism carries the commutator bracket to itself
    comm = commutator_bracket(g)
    assert pushforward_table(tuple(range(6)), comm.star) == comm.star


def test_trivial_not_equivalent_to_commutator():
    g = make_dihedral(3)
    trivial, comm = trivial_bracket(g), commutator_bracket(g)
    assert comm.star not in set(bracket_orbit(trivial))
    assert trivial.star not in set(bracket_orbit(comm))


def _orbit_from_aut_list(g, star):
    """The images of a table under every automorphism of ``automorphisms``
    and the transpose: its Aut x reversal orbit, from the full list."""
    transpose = tuple(zip(*star))
    return {pushforward_table(phi, t) for phi in automorphisms(g) for t in (star, transpose)}


def test_d4_seed_b_vs_b3_reversal_equivalence():
    # the two structures seeded a*b = b and a*b = b^3 are each other's
    # reversal; no automorphism carries one to the other, but the
    # automorphism b -> b^3 does once arguments are swapped
    from mla_forge.search import enumerate_brackets

    g = make_dihedral(4)
    autos = automorphisms(g)
    items = enumerate_brackets(g).items
    by_cell = {br.star[4][1]: br for br in items}
    b1, b3 = by_cell[1], by_cell[3]
    orbit = set(bracket_orbit(b1))
    assert b3.star in orbit
    assert orbit == _orbit_from_aut_list(g, b1.star)
    assert b3.star not in {pushforward_table(phi, b1.star) for phi in autos}
    assert reverse_bracket(b1).star == b3.star
    # the automorphism b -> b^3, a -> a also carries one to the other's reversal
    flip = next(m for m in autos if m[1] == 3 and m[4] == 4)
    assert pushforward_table(flip, b1.star) == reverse_bracket(b3).star


def test_equivalence_is_equivalence_relation():
    from mla_forge.search import enumerate_brackets

    g = make_dihedral(4)
    items = enumerate_brackets(g).items
    orbit = {x.star: set(bracket_orbit(x)) for x in items}
    for x in items:
        assert x.star in orbit[x.star]
    for x in items:
        for y in items:
            assert (y.star in orbit[x.star]) == (x.star in orbit[y.star])
    for x in items:
        for y in items:
            for z in items:
                if y.star in orbit[x.star] and z.star in orbit[y.star]:
                    assert z.star in orbit[x.star]


def test_orbit_under_a_large_automorphism_group():
    """On Z2^4, |Aut| = |GL(4, 2)| = 20160. The bilinear bracket
    [e1, e2] = e3 has 105 images: one per plane of F2^4 (35) and nonzero
    value in it (3). bracket_orbit yields each once, at no more than
    |orbit| x |generators| relabelings, and agrees with a scan of every
    automorphism found apart from the library."""
    g = make_cyclic(2)
    for _ in range(3):
        g = direct_product(g, make_cyclic(2))
    # element b0 + 2 b1 + 4 b2 + 8 b3 is the vector (b0, b1, b2, b3)
    star = [[4 * ((x & 1) * (y >> 1 & 1) ^ (x >> 1 & 1) * (y & 1)) for y in range(16)] for x in range(16)]
    br = LieBracket.make(g, star)
    assert not verify_mla(g, br)
    gens = automorphism_generators(g)
    with mock.patch.object(brackets, "pushforward_table", wraps=brackets.pushforward_table) as relabel:
        orbit = list(bracket_orbit(br))
    assert len(orbit) == len(set(orbit)) == 105
    assert relabel.call_count <= len(orbit) * len(gens)
    autos = oracle.bijection_scan_automorphisms(g)
    assert len(autos) == 20160
    images = {oracle.relabel_table(f, br.star, reverse) for f in autos for reverse in (False, True)}
    assert set(orbit) == images


@pytest.mark.parametrize("spec", ["D4", "Q8", "Z4xD4"])
def test_byte_relabeling_matches_pushforward_table(spec):
    """Each move of the orbit kernel, on the byte key of a table, gives the
    key of the table's reversal (the first move) or of its relabeling along
    one strong generator: on every bracket of the group and on random
    tables of its shape."""
    g = parse_preset(spec)
    n = g.order
    gens = automorphism_generators(g)
    rng = random.Random(7)
    tables = [b.star for b in enumerate_brackets(g, SearchConfig(max_group_order=32)).items]
    tables += [tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)) for _ in range(5)]
    (rev_values, rev_cells), *moves = brackets._orbit_moves(n, gens)
    assert len(moves) == len(gens)
    for t in tables:
        key = brackets._table_key(t)
        assert bytes(rev_cells(key.translate(rev_values))) == brackets._table_key(tuple(zip(*t)))
        for phi, (values, cells) in zip(gens, moves):
            assert bytes(cells(key.translate(values))) == brackets._table_key(pushforward_table(phi, t))


def test_orbit_yields_each_table_once_with_the_full_aut_list():
    from mla_forge.search import enumerate_brackets

    g = make_dihedral(4)
    for br in enumerate_brackets(g).items:
        orbit = list(bracket_orbit(br))
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == _orbit_from_aut_list(g, br.star)


def test_reversal_is_pointwise_inverse_on_valid_brackets():
    g = make_dihedral(3)
    br = commutator_bracket(g)
    rev = reverse_bracket(br)
    assert all(
        rev.star[x][y] == g.inv(br.star[x][y]) for x in range(6) for y in range(6)
    )


# -- endomorphism structure ---------------------------------------------------------


def test_end_mla_z4_bracket_is_trivial():
    # expected value computed by direct evaluation of the bracket formula over
    # all 16 endomorphism pairs: compositions commute, so every product is the
    # zero map
    H = make_cyclic(4)
    endos = homomorphisms(H, H)
    expected_trivial = True
    for f, g in product(endos, repeat=2):
        vals = tuple(
            H.mul(f[g[h]], g[f[H.inv(h)]]) for h in range(4)
        )
        if vals != (0, 0, 0, 0):
            expected_trivial = False
    end_group, end_bracket = end_mla(H)
    assert end_group.order == 4
    assert expected_trivial and end_bracket.is_trivial()


def test_end_mla_klein_four_is_valid_and_nontrivial():
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    end_group, end_bracket = end_mla(v4)
    assert end_group.order == 16
    assert verify_mla(end_group, end_bracket) == []
    assert not end_bracket.is_trivial()  # matrix algebra over F2 is noncommutative


def test_end_mla_identity_endo_self_bracket():
    H = make_cyclic(4)
    end_group, end_bracket = end_mla(H)
    endos = homomorphisms(H, H)
    ident = endos.index(tuple(range(4)))
    zero = endos.index((0, 0, 0, 0))
    assert end_bracket.star[ident][ident] == zero


def test_end_mla_valid_for_small_abelians():
    cases = [
        make_cyclic(n) for n in range(2, 13)
    ] + [
        direct_product(make_cyclic(2), make_cyclic(2)),
        direct_product(make_cyclic(2), make_cyclic(4)),
        direct_product(make_cyclic(2), make_cyclic(6)),
    ]
    for H in cases:
        end_group, end_bracket = end_mla(H)
        assert verify_mla(end_group, end_bracket) == [], H.name


def test_end_mla_rejects_nonabelian_and_oversize():
    with pytest.raises(ValidationError):
        end_mla(make_dihedral(3))
    big = direct_product(direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2))
    with pytest.raises(BoundExceededError):
        end_mla(big)  # 512 endomorphisms


@pytest.mark.parametrize(
    "factors",
    [(2,), (4,), (6,), (2, 2), (2, 4), (2, 6), (2, 2, 2)],
    ids=lambda f: "x".join(f"Z{d}" for d in f),
)
def test_endomorphism_count_matches_enumeration(factors):
    group = make_cyclic(factors[0])
    for d in factors[1:]:
        group = direct_product(group, make_cyclic(d))
    assert endomorphism_count(group) == len(homomorphisms(group, group))


def test_end_mla_checks_its_bound_before_enumerating():
    z2 = make_cyclic(2)
    big = direct_product(direct_product(direct_product(z2, z2), z2), z2)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError, match=r"End\(.*\) has 65536 elements"):
            end_mla(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_derived_label_identification():
    g = direct_product(make_cyclic(4), make_dihedral(4))
    br = commutator_bracket(g)
    sub = derived_subalgebra(br)
    assert identify_small_group(sub.as_group()) == "Z2"
