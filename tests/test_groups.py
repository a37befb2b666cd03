import random
import tracemalloc
from itertools import combinations_with_replacement, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mla_forge import groups
from mla_forge.cli import parse_preset
from mla_forge.errors import BoundExceededError, ValidationError
from mla_forge.groups import (
    VIOLATION_CAP,
    FiniteGroup,
    Subgroup,
    abelian_label,
    automorphism_count,
    automorphism_generators,
    automorphisms,
    direct_product,
    endomorphism_count,
    find_generators,
    homomorphisms,
    identify_small_group,
    invariant_factors,
    is_isomorphic,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    make_semidirect,
    subgroup_generated,
    verify_group,
)

from oracle import bijection_scan_automorphisms, full_scan_group_violations, map_scan_homomorphisms


def inversion_action(H, K):
    ident = list(range(H.order))
    inv = list(H.inverse)
    return [ident if x == K.identity else inv for x in range(K.order)]


def preset_catalog():
    return [
        make_cyclic(1),
        make_cyclic(2),
        make_cyclic(4),
        make_cyclic(6),
        make_cyclic(12),
        make_dihedral(2),
        make_dihedral(3),
        make_dihedral(4),
        make_dihedral(6),
        make_quaternion(1),
        make_quaternion(2),
        make_quaternion(3),
        direct_product(make_cyclic(2), make_cyclic(2)),
        direct_product(make_cyclic(4), make_dihedral(4)),
    ]


# -- presets ------------------------------------------------------------------


def test_every_preset_verifies_clean():
    for g in preset_catalog():
        assert verify_group(g.cayley, generators=g.generators) == []


def test_cyclic_trivial():
    g = make_cyclic(1)
    assert g.cayley == ((0,),)


def test_cyclic_four():
    g = make_cyclic(4)
    assert g.cayley[1][3] == 0
    assert g.inverse[1] == 3


def test_cyclic_six_element_order():
    assert make_cyclic(6).element_order(2) == 3


def test_dihedral_presentation_relation():
    # a b = b^-1 a at the documented indices a=4, b=1
    g = make_dihedral(4)
    assert g.order == 8
    a, b = 4, 1
    assert g.mul(a, b) == g.mul(g.inv(b), a)


def test_dihedral_two_is_klein():
    g = make_dihedral(2)
    assert g.is_abelian
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    assert is_isomorphic(g, v4) is not None


def test_dihedral_three_is_symmetric_group():
    # brute-force S3 from permutations of three points
    perms = []
    for p in product(range(3), repeat=3):
        if len(set(p)) == 3:
            perms.append(p)
    perms.sort()
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[i]] for i in range(3))] for q in perms]
        for p in perms
    ]
    s3 = FiniteGroup.from_table("S3-perms", table)
    d3 = make_dihedral(3)
    assert not d3.is_abelian
    assert is_isomorphic(d3, s3) is not None


def test_quaternion_relations():
    q8 = make_quaternion(2)
    a, b = 1, 4
    assert q8.mul(b, b) == q8.mul(a, a)  # b^2 = a^2
    assert q8.mul(q8.mul(b, b), q8.mul(b, b)) == 0  # b^4 = 1


def test_quaternion_unique_involution():
    q8 = make_quaternion(2)
    assert sum(1 for x in range(8) if q8.element_order(x) == 2) == 1


def test_quaternion_one_is_z4():
    assert is_isomorphic(make_quaternion(1), make_cyclic(4)) is not None


def test_semidirect_inversion_gives_s3():
    H, K = make_cyclic(3), make_cyclic(2)
    g = make_semidirect(H, K, inversion_action(H, K))
    assert g.order == 6
    assert not g.is_abelian
    assert is_isomorphic(g, make_dihedral(3)) is not None


def test_semidirect_trivial_equals_direct_product():
    H, K = make_cyclic(4), make_dihedral(3)
    trivial = [list(range(H.order)) for _ in range(K.order)]
    assert make_semidirect(H, K, trivial).cayley == direct_product(H, K).cayley


def test_semidirect_center_contains_direct_factor():
    g = direct_product(make_cyclic(4), make_dihedral(4))
    assert g.order == 32
    for h in range(4):  # embedded H = indices 0..3
        assert all(g.mul(h, x) == g.mul(x, h) for x in range(32))


def test_semidirect_rejects_nonabelian_h():
    H, K = make_dihedral(3), make_cyclic(2)
    trivial = [list(range(H.order)) for _ in range(K.order)]
    with pytest.raises(ValidationError):
        make_semidirect(H, K, trivial)


def product_cases():
    """(H, K, sigma) by name: split products by inversion (the reflections of
    D_n are n..2n-1), by scaling and on a non-cyclic H, one of order 64, and
    direct products with a Z1 factor."""
    z, d = make_cyclic, make_dihedral
    v4 = direct_product(z(2), z(2))

    def inverting(H, K, reflections):
        return [list(H.inverse) if x in reflections else list(range(H.order)) for x in range(K.order)]

    def trivial(H, K):
        return [list(range(H.order)) for _ in range(K.order)]

    return {
        "Z3:D3": (z(3), d(3), inverting(z(3), d(3), (3, 4, 5))),
        "Z5:Z4": (z(5), z(4), [[(pow(2, x, 5) * h) % 5 for h in range(5)] for x in range(4)]),
        "V4:Z2": (v4, z(2), [[0, 1, 2, 3], [0, 2, 1, 3]]),
        "Z8:D4": (z(8), d(4), inverting(z(8), d(4), (4, 5, 6, 7))),
        "Z1xD4": (z(1), d(4), trivial(z(1), d(4))),
        "D4xZ1": (d(4), z(1), trivial(d(4), z(1))),
        "Z1xZ1": (z(1), z(1), trivial(z(1), z(1))),
    }


@pytest.mark.parametrize("name", product_cases())
def test_pair_product_table_is_the_pair_formula_cell_by_cell(name):
    """The table built by rows holds pair_index(H[h][sigma_x(k)], K[x][y]) at
    (pair_index(h, x), pair_index(k, y))."""
    H, K, sigma = product_cases()[name]
    nH = H.order
    table = groups._pair_product(H, K, sigma, name).cayley
    for h, x, k, y in product(range(nH), range(K.order), range(nH), range(K.order)):
        want = groups.pair_index(H.cayley[h][sigma[x][k]], K.cayley[x][y], nH)
        assert table[groups.pair_index(h, x, nH)][groups.pair_index(k, y, nH)] == want, (h, x, k, y)


@pytest.mark.parametrize("names", [[1, 2, 3, 4], 4, ["0", "1", "2", None]], ids=["ints", "not-a-list", "none"])
def test_from_table_rejects_element_names_that_are_not_strings(names):
    with pytest.raises(ValidationError, match="element_names"):
        FiniteGroup.from_table("Z4", make_cyclic(4).cayley, element_names=names)


def test_from_table_checks_the_table_once(monkeypatch):
    """One int_table pass over the table and one int_row pass over the
    generators per call: int_table checks each of the n rows with int_row,
    so int_row runs n + 1 times."""
    d4 = make_dihedral(4)
    calls = {"int_table": 0, "int_row": 0}
    for name in calls:
        original = getattr(groups, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(groups, name, counting)
    group = FiniteGroup.from_table("D4", d4.cayley, generators=(1, 4))
    assert calls == {"int_table": 1, "int_row": 9}
    assert (group.identity, group.inverse) == (d4.identity, d4.inverse)


# -- verify_group on broken tables ---------------------------------------------


def test_verify_group_latin_violation():
    table = [[0, 1], [1, 1]]
    axioms = {v.axiom for v in verify_group(table)}
    assert "latin-row" in axioms or "latin-column" in axioms


def test_verify_group_broken_associativity_reports_triple():
    # relabeling one cell of Z5 keeps rows/columns latin but breaks associativity
    g = make_cyclic(5)
    table = [list(r) for r in g.cayley]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    report = verify_group(table)
    assert any(v.axiom == "associativity" and len(v.witness) == 3 for v in report)
    for v in report:
        if v.axiom == "associativity":
            x, y, z = v.witness
            assert table[table[x][y]][z] != table[x][table[y][z]]
            break


# A latin table of order 5 with the two-sided identity 0 that is not
# associative: every z other than the identity has a failing (x, y).
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def all_pairs_associative_at(cayley, z):
    """Light's test at z over every pair (x, y) in turn: the reference for
    the row-at-a-time ``groups._associative_at``."""
    col = [row[z] for row in cayley]
    return all(col[xy] == row[yz] for row in cayley for xy, yz in zip(row, col))


@pytest.mark.parametrize(
    "table, verdicts",
    [
        (make_cyclic(1).cayley, [True]),  # itemgetter with one index picks an int
        (make_dihedral(4).cayley, [True] * 8),
        (make_quaternion(2).cayley, [True] * 8),
        (LOOP5, [True, False, False, False, False]),
    ],
    ids=["Z1", "D4", "Q8", "loop5"],
)
def test_associative_at_compares_whole_rows_with_the_all_pairs_verdict(table, verdicts):
    n = len(table)
    got = [groups._associative_at(table, z) for z in range(n)]
    assert got == [all_pairs_associative_at(table, z) for z in range(n)] == verdicts
    full = [all(table[table[x][y]][z] == table[x][table[y][z]] for x in range(n) for y in range(n)) for z in range(n)]
    assert got == full


def test_verify_group_accepts_valid():
    assert verify_group(make_cyclic(4).cayley) == []


def inverse_switches(n):
    """A latin table of order n = 2m with the two-sided identity 0 in which
    every x and -x with 0 < x < m/2, and their translates by m, have no
    two-sided inverse: the Cayley table of Z_n with, for each such x, the
    2x2 subsquare on rows x, x + m and columns -x, -x + m switched. That
    moves the identity in rows x and x + m, and in columns -x and -x + m, to
    the other cell of the subsquare, so each of these elements keeps one
    one-sided inverse and gets another on the other side."""
    m = n // 2
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    for x in range(1, (m + 1) // 2):
        a, b = -x % n, (m - x) % n
        for r in (x, x + m):
            table[r][a], table[r][b] = table[r][b], table[r][a]
    return table


@pytest.mark.parametrize(
    "table, axioms",
    [
        ([], ["shape"]),
        ([[0, 1], [1]], ["shape"]),
        ([[0, 1], [1, 2]], ["shape"]),
        ([[0] * 16] * 16, ["latin-row", "latin-column"] * 16),
        (inverse_switches(34), ["inverse"] * VIOLATION_CAP),
    ],
    ids=["empty", "ragged", "out-of-range", "latin-at-cap", "inverse-at-cap"],
)
def test_verify_group_stops_at_a_shape_fault_or_at_the_cap(table, axioms):
    """A table of the wrong shape is reported by its first fault alone; the
    latin and inverse checks stop at VIOLATION_CAP, before associativity."""
    got = verify_group(table)
    assert [v.axiom for v in got] == axioms
    assert got == full_scan_group_violations(table)


# -- verify_group against the full-scan oracle -----------------------------------


def inverting_product(H, K, kernel_seeds):
    """H x| K with the elements outside the subgroup that ``kernel_seeds``
    generate acting by inversion (a homomorphism K -> Z2 when that subgroup
    has index 2)."""
    kernel = set(subgroup_generated(K, kernel_seeds).members)
    sigma = [list(range(H.order)) if x in kernel else list(H.inverse) for x in range(K.order)]
    return make_semidirect(H, K, sigma)


def pinned_groups():
    """Every preset and product the tests build, by name."""
    z, v4 = make_cyclic, direct_product(make_cyclic(2), make_cyclic(2))
    out = {f"Z{n}": z(n) for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 64)}
    out.update({f"D{n}": make_dihedral(n) for n in (2, 3, 4, 5, 6, 8)})
    out.update({f"Q{4 * n}": make_quaternion(n) for n in (1, 2, 3, 4)})
    for spec in (
        "Z2xZ2", "Z2xZ4", "Z2xZ6", "Z3xZ2", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2",
        "Z2xQ8", "Z2xD4", "Z3xD3", "Z2xZ2xD3", "Z4xD4", "Z4xZ4", "Z5xD5", "Z8xD4",
    ):
        out[spec] = parse_preset(spec)
    out["Z3:Z2"] = inverting_product(z(3), z(2), ())
    out["Z8:Z2"] = inverting_product(z(8), z(2), ())
    out["Z5:Z4"] = make_semidirect(z(5), z(4), [[(pow(2, x, 5) * h) % 5 for h in range(5)] for x in range(4)])
    out["V4:Z2"] = make_semidirect(v4, z(2), [[0, 1, 2, 3], [0, 2, 1, 3]])
    out["Z3:V4"] = inverting_product(z(3), v4, (3,))
    out["Z3:D3"] = inverting_product(z(3), make_dihedral(3), (1,))
    out["Z4:D4"] = inverting_product(z(4), make_dihedral(4), (1,))
    out["Z5:D3"] = inverting_product(z(5), make_dihedral(3), (1,))
    return out


GENERATOR_PINS = {
    "Z1": (), "Z2": (1,), "Z3": (1,), "Z4": (1,), "Z5": (1,), "Z6": (1,), "Z8": (1,),
    "Z12": (1,), "Z16": (1,), "Z64": (1,),
    "D2": (1, 2), "D3": (1, 3), "D4": (1, 4), "D5": (1, 5), "D6": (1, 6), "D8": (1, 8),
    "Q4": (1, 2), "Q8": (1, 4), "Q12": (1, 6), "Q16": (1, 8),
    "Z2xZ2": (1, 2), "Z2xZ4": (1, 2), "Z2xZ6": (1, 2), "Z3xZ2": (1, 3), "Z3xZ3": (1, 3),
    "Z2xZ2xZ2": (1, 2, 4), "Z2xZ2xZ4": (1, 2, 4), "Z2xZ2xZ2xZ2": (1, 2, 4, 8),
    "Z2xQ8": (1, 2, 8), "Z2xD4": (1, 2, 8), "Z3xD3": (1, 3, 9), "Z2xZ2xD3": (1, 2, 4, 12),
    "Z4xD4": (1, 4, 16), "Z4xZ4": (1, 4), "Z5xD5": (1, 5, 25), "Z8xD4": (1, 8, 32),
    "Z3:Z2": (1, 3), "Z8:Z2": (1, 8), "Z5:Z4": (1, 5), "V4:Z2": (1, 2, 4),
    "Z3:V4": (1, 3, 6), "Z3:D3": (1, 3, 9), "Z4:D4": (1, 4, 16), "Z5:D3": (1, 5, 15),
}


def test_find_generators_is_pinned_on_every_group_the_tests_build():
    assert {name: find_generators(g) for name, g in pinned_groups().items()} == GENERATOR_PINS


def relabeled(table, perm):
    """The table of the isomorphic copy in which element x is named perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def intercalate_switches(group, rng, count):
    """Latin tables that keep the group's identity two-sided and every inverse:
    a 2x2 subsquare of the table, with rows r1, r2, columns c1, c2 and values
    u, v all other than the identity, gets u and v swapped. Then the elements
    are renamed by a random permutation, so the identity is not always 0."""
    t, e, n = group.cayley, group.identity, group.order
    spots = []
    for r1, r2, c1 in product(range(n), repeat=3):
        c2 = t[group.inverse[r2]][t[r1][c1]]  # r2 c2 = r1 c1
        if r1 < r2 and c1 < c2 and e not in (r1, r2, c1, t[r1][c1], t[r1][c2]) and t[r1][c2] == t[r2][c1]:
            spots.append((r1, r2, c1, c2))
    out = []
    for r1, r2, c1, c2 in rng.sample(spots, min(count, len(spots))):
        table = [list(row) for row in t]
        table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
        table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
        out.append(relabeled(table, rng.sample(range(n), n)))
    return out


def random_loop(n, rng):
    """A latin table with a two-sided identity, the other cells filled by a
    randomized backtracking search, its elements renamed at random."""
    table = [list(range(n))] + [[x] + [-1] * (n - 1) for x in range(1, n)]
    cells = list(product(range(1, n), repeat=2))

    def fill(i):
        if i == len(cells):
            return True
        x, y = cells[i]
        free = [v for v in range(n) if v not in table[x] and all(row[y] != v for row in table)]
        for v in rng.sample(free, len(free)):
            table[x][y] = v
            if fill(i + 1):
                return True
        table[x][y] = -1
        return False

    assert fill(0)
    return relabeled(table, rng.sample(range(n), n))


def oracle_catalog():
    """(kind, table, generators) triples for the comparison with the oracle."""
    rng = random.Random(13)
    groups = pinned_groups()
    cases = []
    for g in groups.values():
        cases += [("group", g.cayley, None), ("group", g.cayley, g.generators)]
        cases += [("group", g.cayley, (g.identity,)), ("group", g.cayley, (g.order,))]
    for g in (g for g in groups.values() if g.order <= 32):
        for _ in range(14):
            table = [list(row) for row in g.cayley]
            for _ in range(rng.randint(1, 3)):
                table[rng.randrange(g.order)][rng.randrange(g.order)] = rng.randrange(g.order)
            cases.append(("corruption", table, None))
    for name in ("Z6", "Z8", "D3", "D4", "Q8", "Z2xZ4", "Z2xZ2xZ2", "Z12", "D6", "Z4xZ4", "Z2xD4", "V4:Z2"):
        cases += [("switch", t, None) for t in intercalate_switches(groups[name], rng, 15)]
    cases += [("loop", random_loop(rng.randint(4, 7), rng), None) for _ in range(80)]
    cases.append(("loop", LOOP5, None))
    for _ in range(100):
        n = rng.randint(2, 12)
        alpha, beta = rng.sample(range(n), n), rng.sample(range(n), n)
        cases.append(("isotope", [[(alpha[x] + beta[y]) % n for y in range(n)] for x in range(n)], None))
    for _ in range(150):
        n = rng.randint(1, 6)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            e = rng.randrange(n)
            for x in range(n):
                table[e][x] = table[x][e] = x
        cases.append(("random", table, None))
    return cases


def test_verify_group_matches_the_full_scan_oracle():
    cases = oracle_catalog()
    assert len(cases) >= 1000
    kinds = {}
    for kind, table, gens in cases:
        got, want = verify_group(table, gens), full_scan_group_violations(table, gens)
        assert [(v.axiom, v.witness, v.message) for v in got] == [
            (v.axiom, v.witness, v.message) for v in want
        ], (kind, table, gens)
        axioms = {v.axiom for v in want}
        tags = kinds.setdefault(kind, {"tables": 0, "failing": 0, "associativity only": 0, "at cap": 0})
        tags["tables"] += 1
        tags["failing"] += bool(want)
        tags["associativity only"] += axioms == {"associativity"}
        tags["at cap"] += len(want) == VIOLATION_CAP and want[-1].axiom == "associativity"
    # the catalog reaches every path: latin tables with an identity that fail
    # associativity alone (the reduced scan fails, the full scan runs), and
    # associativity lists cut at VIOLATION_CAP
    assert kinds["switch"]["associativity only"] >= 100
    assert kinds["loop"]["failing"] >= 40
    assert kinds["switch"]["at cap"] >= 10
    assert kinds["corruption"]["at cap"] >= 10
    assert kinds["group"]["failing"] == 2 * len(GENERATOR_PINS) - 1  # Z1 has no element of index 1
    assert kinds["isotope"]["failing"] >= 50
    assert kinds["random"]["tables"] == 150


@st.composite
def tables_with_an_identity(draw):
    """A table of order at most 5 whose row and column e are the identity's."""
    n = draw(st.integers(min_value=1, max_value=5))
    e = draw(st.integers(min_value=0, max_value=n - 1))
    table = [draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)) for _ in range(n)]
    for x in range(n):
        table[e][x] = table[x][e] = x
    return table


@settings(max_examples=300, deadline=None)
@given(tables_with_an_identity())
def test_verify_group_equals_the_full_scan_oracle_on_tables_with_an_identity(table):
    assert verify_group(table) == full_scan_group_violations(table)


# -- conjugation and commutators -------------------------------------------------


def test_conjugate_commutator_abelian():
    g = make_cyclic(6)
    for x, y in product(range(6), repeat=2):
        assert g.conj(x, y) == y
        assert g.comm(x, y) == 0


def test_d4_commutator_of_generators():
    g = make_dihedral(4)
    a, b = 4, 1
    assert g.comm(a, b) == 2  # b^2


def test_s3_commutator_subgroup_has_order_three():
    g = make_dihedral(3)
    comms = {g.comm(x, y) for x in range(6) for y in range(6)}
    assert subgroup_generated(g, comms).order == 3


# -- automorphisms ------------------------------------------------------------


def test_automorphism_counts():
    assert len(automorphisms(make_cyclic(4))) == 2
    assert len(automorphisms(make_dihedral(3))) == 6
    assert len(automorphisms(make_dihedral(4))) == 8


@pytest.mark.parametrize("group", [make_cyclic(6), make_dihedral(3), make_dihedral(4), make_quaternion(2)])
def test_automorphisms_match_bijection_scan(group):
    assert automorphisms(group) == bijection_scan_automorphisms(group)


def test_automorphisms_form_group():
    g = make_dihedral(4)
    autos = automorphisms(g)
    tables = set(autos)
    assert tuple(range(8)) in tables
    for m in autos:
        inverse = [0] * 8
        for x, y in enumerate(m):
            inverse[y] = x
        assert tuple(inverse) in tables
        for m2 in autos:
            assert tuple(m[v] for v in m2) in tables


@pytest.mark.parametrize(
    "group",
    [make_cyclic(2), make_cyclic(6), make_dihedral(3), make_dihedral(4), make_quaternion(2),
     direct_product(make_cyclic(4), make_dihedral(4))],
    ids=lambda g: g.name,
)
def test_automorphism_generators_generate_aut(group):
    """Closing the generators under composition, by a search apart from the
    library's, gives back every automorphism; each generator lies outside
    what the ones before it generate, and the identity is never kept."""
    autos = automorphisms(group)
    gens = automorphism_generators(group)
    identity = tuple(range(group.order))
    assert identity not in gens
    assert gens == sorted(gens)

    def closure(maps):
        reached, frontier = {identity}, [identity]
        while frontier:
            frontier = [y for y in {tuple(x[v] for v in g) for x in frontier for g in maps} if y not in reached]
            reached.update(frontier)
        return reached

    assert closure(gens) == set(autos)
    for i, g in enumerate(gens):
        assert g not in closure(gens[:i])
    assert automorphism_generators(group) == gens


@pytest.mark.parametrize(
    "spec, count",
    [("D4", 8), ("Q8", 24), ("Z2xD4", 64), ("Z2xZ2xZ2xZ2", 20160), ("Z3xZ3xZ3", 11232),
     ("Z2xZ2xD4", 3072), ("Z4xZ2xD4", 4096)],
)
def test_automorphism_count_is_the_length_of_the_list(spec, count):
    """The product of the chain's basic orbit lengths is |Aut| as listed."""
    group = parse_preset(spec)
    assert automorphism_count(group) == len(automorphisms(group)) == count


def test_automorphism_count_of_z2_to_the_fifth_is_the_order_of_gl5():
    """|Aut(Z2^5)| = |GL(5, 2)|, about 10^7 maps, counted without listing one
    beyond the chain's strong generators."""
    group = parse_preset("Z2xZ2xZ2xZ2xZ2")
    assert automorphism_count(group) == prod(2**5 - 2**i for i in range(5)) == 9_999_360


def test_presets_check_the_order_bound_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError):
            make_cyclic(1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(BoundExceededError):
        make_dihedral(33)
    with pytest.raises(BoundExceededError):
        make_quaternion(17)


@pytest.mark.parametrize("make", [make_cyclic, make_dihedral, make_quaternion])
@pytest.mark.parametrize("n", [True, 2.0, "3", None], ids=["bool", "float", "str", "none"])
def test_presets_reject_a_count_that_is_not_an_int(make, n):
    with pytest.raises(ValidationError, match="must be an integer"):
        make(n)


def test_tables_above_the_order_bound_are_rejected_before_checking():
    n = 65
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(BoundExceededError):
        verify_group(table)
    with pytest.raises(BoundExceededError):
        FiniteGroup.from_table("Z65", table)


# -- subgroups -----------------------------------------------------------------


def test_subgroup_generated_empty_is_identity():
    g = make_dihedral(4)
    assert subgroup_generated(g, ()).members == (0,)


def test_subgroup_generated_rotation():
    g = make_dihedral(4)
    assert subgroup_generated(g, {1}).members == (0, 1, 2, 3)


def test_subgroup_generated_idempotent():
    g = make_dihedral(4)
    s = subgroup_generated(g, {1, 4})
    assert subgroup_generated(g, s.members).members == s.members


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=11), max_size=4))
def test_subgroup_generated_idempotent_property(seeds):
    g = make_dihedral(6)
    s = subgroup_generated(g, seeds)
    assert subgroup_generated(g, s.members).members == s.members


@pytest.mark.parametrize(
    "members",
    [(0, 1, 1, 9), (0, 8), (-1, 0), (1, 0), (0, 1, 1), (1, 2, 3), (0, 1), (0, 1, 3), (0, 2.0)],
    ids=[
        "out-of-range-and-repeated",
        "out-of-range",
        "negative",
        "unsorted",
        "repeated",
        "no-identity",
        "not-closed",
        "not-closed-with-inverse",
        "not-an-integer",
    ],
)
def test_subgroup_rejects_members_that_are_not_a_subgroup(members):
    with pytest.raises(ValidationError):
        Subgroup(make_dihedral(4), members)


@pytest.mark.parametrize("seeds", [[1.0], ["a"], [9], 3], ids=["float", "str", "out-of-range", "not-a-list"])
def test_subgroup_generated_rejects_seeds_that_are_not_elements(seeds):
    with pytest.raises(ValidationError):
        subgroup_generated(make_dihedral(4), seeds)


def test_subgroup_takes_its_members_as_a_tuple():
    s = Subgroup(make_dihedral(4), [0, 1, 2, 3])
    assert s.members == (0, 1, 2, 3) and s.is_normal


def test_subgroup_as_group_roundtrip():
    g = make_dihedral(3)
    s = subgroup_generated(g, {1})
    assert identify_small_group(s.as_group()) == "Z3"


# -- isomorphism and identification ----------------------------------------------


def test_crt_isomorphism():
    assert is_isomorphic(direct_product(make_cyclic(2), make_cyclic(3)), make_cyclic(6)) is not None


def test_d4_not_isomorphic_to_q8():
    assert is_isomorphic(make_dihedral(4), make_quaternion(2)) is None


def test_isomorphism_reflexive_symmetric_and_valid():
    catalog = [make_cyclic(6), make_dihedral(4), make_quaternion(2)]
    for g in catalog:
        m = is_isomorphic(g, g)
        assert m is not None
        assert groups._is_homomorphism(g, g, m)
        assert sorted(m) == list(range(g.order))
    a = direct_product(make_cyclic(2), make_cyclic(3))
    b = make_cyclic(6)
    assert (is_isomorphic(a, b) is None) == (is_isomorphic(b, a) is None)


@pytest.mark.parametrize(
    "domain, codomain",
    [("Z2", "Z2"), ("Z4", "Z2xZ2"), ("Z2xZ2", "Z4"), ("D3", "Z2"), ("Z3", "D3"), ("Z2xZ2", "Z2xZ2")],
)
def test_is_homomorphism_matches_the_full_scan(domain, codomain):
    """The generator-kernel test, on every map of the pair, against the
    oracle that checks f(ab) = f(a)f(b) at every pair (a, b)."""
    a, b = parse_preset(domain), parse_preset(codomain)
    homs = set(map_scan_homomorphisms(a, b))
    for images in product(range(b.order), repeat=a.order):
        assert groups._is_homomorphism(a, b, images) == (images in homs), images


def test_invariant_factors():
    assert invariant_factors(make_cyclic(6)) == (6,)
    z2xz4 = direct_product(make_cyclic(2), make_cyclic(4))
    assert invariant_factors(z2xz4) == (2, 4)
    assert abelian_label(z2xz4) == "Z2xZ4"


def _prime_power_chain(cyclic_orders):
    """Invariant factors of the product of the cyclic groups, by the primary
    decomposition: the j-th largest power of each prime goes into the j-th
    largest factor."""
    powers: dict[int, list[int]] = {}
    for a in cyclic_orders:
        p = 2
        while a > 1:
            q = 1
            while a % p == 0:
                a, q = a // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    width = max((len(v) for v in powers.values()), default=0)
    factors = [1] * width
    for qs in powers.values():
        for j, q in enumerate(sorted(qs, reverse=True)):
            factors[j] *= q
    return tuple(sorted(factors))


def test_invariant_factors_label_and_endomorphism_count_on_cyclic_products():
    """Every product of one to three of these cyclic groups of order <= 64."""
    products = [
        combo
        for k in (1, 2, 3)
        for combo in combinations_with_replacement((1, 2, 3, 4, 5, 6, 8, 9, 16, 32), k)
        if prod(combo) <= 64
    ]
    assert len(products) == 117
    for combo in products:
        group = make_cyclic(combo[0])
        for c in combo[1:]:
            group = direct_product(group, make_cyclic(c))
        chain = _prime_power_chain(combo)
        assert invariant_factors(group) == chain, combo
        assert abelian_label(group) == ("x".join(f"Z{d}" for d in chain) or "Z1"), combo
        # |Hom(Z_a, Z_b)| = gcd(a, b), summed over the given factors, not the chain
        assert endomorphism_count(group) == prod(gcd(a, b) for a in combo for b in combo), combo


def test_identify_small_groups():
    assert identify_small_group(make_cyclic(1)) == "Z1"
    assert identify_small_group(direct_product(make_cyclic(2), make_cyclic(4))) == "Z2xZ4"
    assert identify_small_group(make_dihedral(4)) == "D4"
    assert identify_small_group(make_quaternion(2)) == "Q8"


def test_identify_outside_catalog():
    # A4 as (Z2 x Z2) x| Z3 with a cyclic shift action
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    z3 = make_cyclic(3)
    # elements of v4: 0, a=1, b=2, ab=3; the 3-cycle a -> b -> ab
    shift = [0, 2, 3, 1]
    shift2 = [shift[v] for v in shift]
    a4 = make_semidirect(v4, z3, [list(range(4)), shift, shift2], name="A4")
    label = identify_small_group(a4)
    assert label.startswith("unidentified order-12")


# -- endomorphisms -----------------------------------------------------------------


def test_endomorphisms_cyclic_are_multiplications():
    endos = homomorphisms(make_cyclic(4), make_cyclic(4))
    assert len(endos) == 4
    expected = sorted(tuple((k * h) % 4 for h in range(4)) for k in range(4))
    assert endos == expected
    assert len(homomorphisms(make_cyclic(5), make_cyclic(5))) == 5


def test_endomorphisms_klein_match_map_scan():
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    endos = homomorphisms(v4, v4)
    assert len(endos) == 16
    assert endos == map_scan_homomorphisms(v4, v4)


@pytest.mark.parametrize(
    "domain, codomain",
    [
        (direct_product(make_cyclic(2), make_cyclic(2)), make_dihedral(4)),
        (make_dihedral(3), make_dihedral(3)),
        (make_cyclic(4), make_quaternion(2)),
        (make_dihedral(3), direct_product(make_cyclic(2), make_cyclic(2))),
    ],
    ids=["V4-D4", "D3-D3", "Z4-Q8", "D3-V4"],
)
def test_homomorphisms_match_map_scan(domain, codomain):
    assert homomorphisms(domain, codomain) == map_scan_homomorphisms(domain, codomain)


# -- misc properties -----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_conjugation_is_action_property(x, y, g):
    grp = make_dihedral(8)
    assert grp.conj(0, g) == g
    lhs = grp.conj(x, grp.conj(y, g))
    rhs = grp.conj(grp.mul(x, y), g)
    assert lhs == rhs


def test_find_generators_generate():
    for g in preset_catalog():
        gens = find_generators(g)
        assert subgroup_generated(g, gens).order == g.order


def test_a_group_keeps_the_walk_of_each_prefix_of_its_generators():
    """For each j the group's walk holds the elements of <s_1..s_j> in the
    order of their generator_steps, which the generator kernel reads as its
    schedule: each element after the identity is one step from an earlier."""
    for g in preset_catalog():
        gens, steps, reach = g._walk
        assert steps == tuple(groups.generator_steps(g.cayley, g.identity, gens))
        assert len(reach) == len(gens) + 1
        for j, elements in enumerate(reach):
            prefix_steps = groups.generator_steps(g.cayley, g.identity, gens[:j])
            assert elements == (g.identity, *(y for y, _, _ in prefix_steps))


def test_find_generators_is_computed_once_per_group(monkeypatch):
    g = make_dihedral(6)
    first = find_generators(g)
    monkeypatch.setattr(groups, "_greedy_reach_set", None)  # a second computation would fail
    assert find_generators(g) is first
    assert first == (1, 6)


def test_a_group_keeps_the_walk_its_check_built(monkeypatch):
    """from_table walks the table once for Light's test and once to check the
    declared generators; the group keeps the first walk, so its first
    find_generators walks nothing."""
    calls = []
    original = groups.generator_steps

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(groups, "generator_steps", counting)
    g = make_cyclic(4)
    assert len(calls) == 2
    assert find_generators(g) == (1,)
    assert len(calls) == 2


def test_the_aut_chain_walks_no_table(monkeypatch):
    """The stabiliser chain extends its maps along the walks of <s_1..s_j>
    that the group's check kept, so it runs no generator_steps of its own."""
    g = parse_preset("Z2xZ2xD4")
    calls = []
    original = groups.generator_steps
    monkeypatch.setattr(groups, "generator_steps", lambda *args: calls.append(args) or original(*args))
    assert automorphism_count(g) == 3072
    assert calls == []
