import hashlib
import random
from itertools import product

import pytest

from mla_forge import brackets, construction, groups, search
from mla_forge.brackets import (
    LieBracket,
    bracket_orbit,
    commutator_bracket,
    end_mla,
    is_ideal,
    trivial_bracket,
    verify_mla,
)
from mla_forge.cli import parse_preset
from mla_forge.construction import (
    Action,
    ConstructionData,
    GammaMap,
    PairingMap,
    check_gamma_identities,
    check_theorem_conditions,
    split_factor_subgroup,
)
from mla_forge.errors import BoundExceededError, ValidationError
from mla_forge.groups import (
    Subgroup,
    automorphism_generators,
    direct_product,
    find_generators,
    homomorphisms,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    subgroup_generated,
)
from mla_forge.scenarios import run_scenarios
from mla_forge.search import (
    SearchConfig,
    _classify,
    enumerate_brackets,
    enumerate_gamma,
    enumerate_induced,
    enumerate_mla_homs,
    enumerate_pairings,
    tau,
    verify_coprime_determination,
)

from oracle import (
    bijection_scan_automorphisms,
    expand_table,
    naive_bracket_tables,
    pairing_conditions_hold,
    relabel_table,
    scan_gamma,
    scan_pairings,
    seed_vector_pairings,
    structure_constant_tables,
)

V4 = direct_product(make_cyclic(2), make_cyclic(2))


def order_le_six_groups():
    return [
        make_cyclic(1),
        make_cyclic(2),
        make_cyclic(3),
        make_cyclic(4),
        make_cyclic(5),
        make_cyclic(6),
        direct_product(make_cyclic(2), make_cyclic(2)),
        make_dihedral(3),
    ]


# -- bracket enumeration -------------------------------------------------------


def test_enumerate_matches_naive_oracle_up_to_order_six():
    for g in order_le_six_groups():
        engine = [b.star for b in enumerate_brackets(g).items]
        oracle = naive_bracket_tables(g)
        assert engine == oracle, g.name


def test_enumerate_oracle_also_agrees_at_order_eight():
    for g in (make_dihedral(4), make_quaternion(2)):
        engine = [b.star for b in enumerate_brackets(g).items]
        assert engine == naive_bracket_tables(g), g.name


@pytest.mark.parametrize("spec, p, count", [("Z2xZ2", 2, 4), ("Z3xZ3", 3, 9), ("Z2xZ2xZ2", 2, 120)])
def test_enumerate_matches_structure_constant_oracle(spec, p, count):
    g = parse_preset(spec)
    oracle = structure_constant_tables(g, p)
    assert len(oracle) == count
    assert [b.star for b in enumerate_brackets(g).items] == oracle


@pytest.mark.parametrize("spec", ["D3", "D4", "Q8", "Z2xZ2xZ2", "Z3xZ3"])
def test_orbit_stabilizer_counts(spec):
    """Under Aut x reversal every orbit of the raw set has size 2|Aut| /
    |stabilizer|; the orbits partition the raw set, one per class."""
    g = parse_preset(spec)
    result = enumerate_brackets(g)
    tables = {b.star for b in result.items}
    autos = bijection_scan_automorphisms(g)
    orbits = []
    for t in sorted(tables):
        if any(t in orbit for orbit in orbits):
            continue
        images = [relabel_table(f, t, reverse) for f in autos for reverse in (False, True)]
        orbit = set(images)
        assert orbit <= tables
        assert len(orbit) * images.count(t) == 2 * len(autos)
        assert set(bracket_orbit(LieBracket(g, t))) == orbit
        orbits.append(orbit)
    assert sum(len(orbit) for orbit in orbits) == result.raw_count
    assert len(orbits) == result.class_count


@pytest.mark.parametrize(
    "H, K, inverting",
    [(make_cyclic(3), make_dihedral(3), (3, 4, 5)), (make_cyclic(4), make_dihedral(4), ())],
    ids=["Z3:D3", "Z4xD4"],
)
def test_induced_classes_match_oracle_partition(H, K, inverting):
    """Induced sets are not closed under Aut(H x| K): the classes are the
    orbits of Aut x reversal cut down to the set, each represented by its
    least table."""
    action = Action.by_inversion(H, K, inverting=inverting)
    raw = enumerate_induced(H, K, action)
    iso = enumerate_induced(H, K, action, SearchConfig(up_to_iso=True))
    tables = {b.star for b in raw.items}
    autos = bijection_scan_automorphisms(action.product_group)
    classes, leaves_set = [], False
    for t in sorted(tables):
        if any(t in c for c in classes):
            continue
        orbit = {relabel_table(f, t, reverse) for f in autos for reverse in (False, True)}
        leaves_set = leaves_set or not orbit <= tables
        classes.append(orbit & tables)
    assert leaves_set, "every orbit stays inside the induced set"
    assert [b.star for b in iso.items] == [min(c) for c in classes]
    assert raw.class_count == iso.class_count == len(classes)
    assert raw.raw_count == iso.raw_count == len(tables)


def test_classify_takes_the_least_table_of_the_set_not_of_the_orbit():
    """A set that lacks an orbit's least table is represented, for that
    orbit, by the least table the set does hold."""
    g = make_dihedral(4)
    tables = {b.star for b in enumerate_brackets(g).items}
    autos = bijection_scan_automorphisms(g)
    orbits = []
    for t in sorted(tables):
        if not any(t in orbit for orbit in orbits):
            orbits.append({relabel_table(f, t, reverse) for f in autos for reverse in (False, True)})
    cut = next(orbit for orbit in orbits if len(orbit) > 1)
    subset = sorted(tables - {min(cut)})
    reps = _classify(g, subset)
    assert min(cut) not in reps
    assert sorted(cut)[1] in reps
    assert reps == sorted(min(orbit & set(subset)) for orbit in orbits)
    assert len(reps) == len(orbits)


def test_classify_on_the_trivial_group_and_on_z2():
    """On Z1 (one cell, where a one-index ``itemgetter`` returns no tuple)
    the one table is its own class. Aut(Z2) is trivial, so on Z2 the
    classes of any set of tables are its reversal orbits."""
    z1 = make_cyclic(1)
    assert _classify(z1, [((0,),)]) == [((0,),)]
    assert list(bracket_orbit(LieBracket(z1, ((0,),)))) == [((0,),)]
    z2 = make_cyclic(2)
    assert automorphism_generators(z2) == []
    tables = sorted(((a, b), (c, d)) for a, b, c, d in product(range(2), repeat=4))
    reps = sorted({min(t, tuple(zip(*t))) for t in tables})
    assert _classify(z2, tables) == reps
    assert len(reps) == 12  # 8 symmetric tables and 4 pairs


def test_classification_lists_no_automorphisms(monkeypatch):
    """Classifying brackets and induced brackets runs on the chain's strong
    generators alone: with every listing of Aut and every isomorphism test
    made to fail, on groups built afresh, the counts and representatives come
    out unchanged. The chain takes at most one map of the search over
    generator images per candidate image of a base element, far fewer than
    |Aut| (64 for Z2xD4, 128 for Z4xD4); the homomorphisms that
    ``enumerate_gamma`` lists are not bijective and not counted."""

    def classify():
        H, K = make_cyclic(4), make_dihedral(4)
        results = (
            enumerate_brackets(parse_preset("Z2xD4"), SearchConfig(max_group_order=16, up_to_iso=True)),
            enumerate_induced(H, K, Action.trivial(H, K), SearchConfig(up_to_iso=True)),
        )
        return [(r.raw_count, r.class_count, [b.star for b in r.items]) for r in results]

    expected = classify()

    def no_listing(*args):
        raise AssertionError("Aut was listed")

    generator_maps = groups._generator_maps
    taken: dict = {}

    def counting(domain, codomain, cands, bijective, prefix=()):
        for phi in generator_maps(domain, codomain, cands, bijective, prefix):
            if bijective:
                taken[domain] = taken.get(domain, 0) + 1
            yield phi

    monkeypatch.setattr(groups, "automorphisms", no_listing)
    monkeypatch.setattr(groups, "is_isomorphic", no_listing)
    monkeypatch.setattr(groups, "_generator_maps", counting)
    assert classify() == expected
    assert {G.order for G in taken} >= {16, 32}  # Z2xD4 and Z4xD4, with D4 for the induced search
    for G, count in taken.items():
        bound = sum(map(len, groups._invariant_candidates(G, G)))
        assert count <= bound < groups.automorphism_count(G)


def test_enumerate_counts():
    """Counts no scenario makes; the paper's counts are in the scenario catalog."""
    v4 = enumerate_brackets(direct_product(make_cyclic(2), make_cyclic(2)))
    assert (v4.raw_count, v4.class_count) == (4, 2)


def test_enumerated_items_reverify():
    for g in (make_dihedral(3), make_dihedral(4), make_quaternion(2)):
        for bracket in enumerate_brackets(g).items:
            assert verify_mla(g, bracket) == []


def test_enumerate_contains_trivial_and_commutator():
    g = make_dihedral(4)
    tables = {b.star for b in enumerate_brackets(g).items}
    assert trivial_bracket(g).star in tables
    assert commutator_bracket(g).star in tables


def test_up_to_iso_returns_class_representatives():
    g = make_dihedral(4)
    raw = enumerate_brackets(g)
    reps = enumerate_brackets(g, SearchConfig(up_to_iso=True))
    assert reps.raw_count == raw.raw_count
    assert reps.class_count == raw.class_count == len(reps.items) < raw.raw_count
    raw_tables = {b.star for b in raw.items}
    assert all(b.star in raw_tables for b in reps.items)


def test_determinism_across_runs_and_worker_counts():
    g = make_dihedral(4)
    one = enumerate_brackets(g, SearchConfig())
    again = enumerate_brackets(g, SearchConfig())
    assert [b.star for b in one.items] == [b.star for b in again.items]


def test_require_ideal_monotonic():
    g = make_dihedral(3)
    base = enumerate_brackets(g)
    rotations = subgroup_generated(g, {1})
    constrained = enumerate_brackets(g, SearchConfig(require_ideal=rotations))
    assert constrained.raw_count <= base.raw_count
    reflection = subgroup_generated(g, {3})
    tight = enumerate_brackets(g, SearchConfig(require_ideal=reflection))
    assert tight.raw_count <= constrained.raw_count
    assert tight.raw_count == 0  # a subgroup that is not normal is the ideal of no bracket


@pytest.mark.parametrize("spec", ["D3", "D4", "Q8", "Z2xZ2", "Z2xD3"])
def test_require_ideal_finds_exactly_the_brackets_with_that_ideal(spec):
    """For every subgroup I, the search with I required finds the brackets
    of the plain search for which ``is_ideal`` holds, normal I or not."""
    g = parse_preset(spec)
    subgroups = {subgroup_generated(g, {a, b}).members for a, b in product(range(g.order), repeat=2)}
    assert len(subgroups) == {"D3": 6, "D4": 10, "Q8": 6, "Z2xZ2": 5, "Z2xD3": 16}[spec]
    brackets = enumerate_brackets(g).items
    for members in subgroups:
        sub = Subgroup(g, members)
        result = enumerate_brackets(g, SearchConfig(require_ideal=sub))
        assert result.exhausted
        assert [b.star for b in result.items] == [b.star for b in brackets if is_ideal(b, sub)]


@pytest.mark.parametrize(
    "spec, ideal",
    [
        ("D4", None),
        ("Q8", None),
        ("Z2xZ2xZ2", None),
        ("Z2xD4", None),
        ("Z2xD4", {1}),
        ("Z2xZ2xZ2", {1}),
        ("Z2xZ2xD3", None),
        ("Z2xZ2xZ4", None),
    ],
    ids=["D4", "Q8", "Z2xZ2xZ2", "Z2xD4", "Z2xD4-ideal", "Z2xZ2xZ2-ideal", "Z2xZ2xD3", "Z2xZ2xZ4"],
)
def test_every_leaf_is_a_full_table(monkeypatch, spec, ideal):
    """The search branches on the generator pairs only: once they are set,
    the generator rows have been extended along the generator steps, and
    A3 fills every other row before the leaf check sees the table."""
    g = parse_preset(spec)
    ideal_sub = subgroup_generated(g, ideal) if ideal else None
    config = SearchConfig(max_group_order=24, require_ideal=ideal_sub)
    leaves = []

    def checked_leaf(group, table, ranges):
        assert all(v != -1 for row in table for v in row)
        leaves.append(table)
        return brackets._is_mla(group, table, ranges)

    monkeypatch.setattr(search, "_is_mla", checked_leaf)
    result = enumerate_brackets(g, config)
    assert result.exhausted and len(leaves) >= result.raw_count > 0


@pytest.mark.parametrize(
    "spec, raw, classes", [("Z2xZ2xD3", 84, 14), ("Z2xZ2xZ4", 144, 15)], ids=["Z2xZ2xD3", "Z2xZ2xZ4"]
)
def test_counts_with_three_and_four_generators(spec, raw, classes):
    """Z2xZ2xD3 has four generators, and the A5 prune cuts its search;
    Z2xZ2xZ4 is abelian, so A5 prunes nothing there. The orbits of the class
    representatives partition the raw set."""
    g = parse_preset(spec)
    result = enumerate_brackets(g, SearchConfig(max_group_order=24, up_to_iso=True))
    assert result.exhausted
    assert (result.raw_count, result.class_count) == (raw, classes)
    assert sum(len(set(bracket_orbit(b))) for b in result.items) == raw


@pytest.mark.parametrize(
    "spec, budget, ideal, nodes, tables, digest",
    [
        ("D4", None, None, 8, 4, "cdc721d77d180847"),
        ("Q8", None, None, 8, 2, "4b89354d8ff6425b"),
        ("Z2xZ2xZ2", None, None, 584, 120, "0b72864403d55d67"),
        ("Z2xD4", None, None, 784, 64, "0f21da3325aa180a"),
        ("Z2xZ2xD3", None, None, 39768, 84, "7571db7898e15270"),
        ("Z2xD4", None, {1}, 336, 24, "f2c4e246cb72ee63"),
        ("Z2xD4", 100, None, 101, 36, "60a27af7c735eea6"),
    ],
    ids=["D4", "Q8", "Z2xZ2xZ2", "Z2xD4", "Z2xZ2xD3", "Z2xD4-ideal", "Z2xD4-budget"],
)
def test_star_table_search_nodes_and_tables_are_pinned(spec, budget, ideal, nodes, tables, digest):
    """Node count, tables (a digest of the sorted list) and ``exhausted`` of
    the bracket walk, as they were when brackets had a search of their own;
    the budget-cut run stops after node 101."""
    g = parse_preset(spec)
    config = SearchConfig(
        max_group_order=24,
        node_budget=budget or search.DEFAULT_NODE_BUDGET,
        require_ideal=subgroup_generated(g, ideal) if ideal else None,
    )
    walk = search._StarTableSearch(g, config)
    walk.run()
    assert (walk.nodes, len(walk.results), walk.exhausted) == (nodes, tables, budget is None)
    assert hashlib.sha256(repr(sorted(walk.results)).encode()).hexdigest()[:16] == digest


def test_the_a5_row_prune_cuts_nodes_and_no_table():
    """The A5 prune on generator rows is no copy of the leaf check: without
    it the walk on Z2xD4 finds the same 64 tables in 2576 nodes, not 784."""
    g = parse_preset("Z2xD4")
    walks = [search._StarTableSearch(g, SearchConfig(max_group_order=24)) for _ in range(2)]
    walks[1].a5 = {a: [] for a in walks[1].a5}
    for walk in walks:
        walk.run()
    pruned, unpruned = walks
    assert sorted(pruned.results) == sorted(unpruned.results) and len(pruned.results) == 64
    assert (pruned.nodes, unpruned.nodes) == (784, 2576)


@pytest.mark.parametrize(
    "search_on_it, match",
    [
        (
            lambda: enumerate_brackets(make_dihedral(3), SearchConfig(require_ideal=Subgroup(make_cyclic(6), (0,)))),
            "require_ideal is not a subgroup of the target group",
        ),
        (
            lambda: enumerate_mla_homs(make_dihedral(4), trivial_bracket(make_dihedral(3)), make_cyclic(4)),
            "star_k is not a bracket on K",
        ),
    ],
    ids=["ideal-of-another-group", "star-on-another-group"],
)
def test_searches_reject_parts_on_another_group(search_on_it, match):
    with pytest.raises(ValidationError, match=match):
        search_on_it()


def test_require_ideal_with_three_generators():
    g = parse_preset("Z2xZ2xZ2")
    ideal = subgroup_generated(g, {1})
    result = enumerate_brackets(g, SearchConfig(require_ideal=ideal))
    assert result.exhausted and result.raw_count == 20
    assert all(b.star[x][y] in ideal for b in result.items for x in ideal.members for y in range(8))


def test_budget_exhaustion_flags_partial_result():
    g = make_dihedral(4)
    res = enumerate_brackets(g, SearchConfig(node_budget=3))
    assert not res.exhausted
    assert res.raw_count <= 4


def test_order_bound_enforced():
    with pytest.raises(BoundExceededError):
        enumerate_brackets(direct_product(make_cyclic(4), make_dihedral(4)))  # order 32 > 12
    big = enumerate_brackets(
        direct_product(make_cyclic(2), make_dihedral(3)), SearchConfig(max_group_order=12)
    )
    assert big.exhausted


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(node_budget=0)
    for kwargs in (
        {"node_budget": 2.5},
        {"node_budget": True},
        {"max_group_order": "12"},
        {"max_group_order": 12.0},
        {"max_group_order": False},
        {"up_to_iso": "no"},
        {"up_to_iso": 1},
        {"require_ideal": [0]},
    ):
        with pytest.raises(ValidationError):
            SearchConfig(**kwargs)


# -- gamma enumeration ------------------------------------------------------------


def test_enumerate_gamma_s3_case():
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.by_inversion(H, K, inverting=(1,))
    fams = enumerate_gamma(H, K, act, trivial_bracket(K))
    assert len(fams) == 3
    assert sorted(f.gamma[1] for f in fams) == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
    for f in fams:
        assert check_gamma_identities(act, f, trivial_bracket(K)) == []


def test_enumerate_gamma_z4_d4_homomorphisms():
    z4, d4 = make_cyclic(4), make_dihedral(4)
    act = Action.trivial(z4, d4)
    fams = enumerate_gamma(z4, d4, act, trivial_bracket(d4))
    (outcome,) = run_scenarios(["z4xd4-cases"])
    assert len(fams) == outcome.expected["hom_families"]
    cells = sorted((f.gamma[4][1], f.gamma[1][1]) for f in fams)  # (gamma_a(1), gamma_b(1))
    assert cells == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_enumerate_gamma_coprime_is_trivial():
    z5, d4 = make_cyclic(5), make_dihedral(4)
    act = Action.trivial(z5, d4)
    fams = enumerate_gamma(z5, d4, act, trivial_bracket(d4))
    assert len(fams) == 1
    assert fams[0].is_zero()


def scaling_action(H, K, c):
    """K = Z_m acting on cyclic H by h -> c^x h."""
    return Action.make(H, K, [[(pow(c, x, H.order) * h) % H.order for h in range(H.order)] for x in range(K.order)])


@pytest.mark.parametrize(
    "action",
    [
        Action.by_inversion(make_cyclic(3), make_cyclic(2), (1,)),
        Action.by_inversion(make_cyclic(3), make_dihedral(3), (3, 4, 5)),
        Action.trivial(make_cyclic(4), V4),
        Action.by_inversion(make_cyclic(4), V4, (1, 3)),
        Action.trivial(V4, V4),
        Action.trivial(make_cyclic(2), make_dihedral(4)),
        scaling_action(make_cyclic(5), make_cyclic(4), 2),
    ],
    ids=["Z3-Z2-inverting", "Z3-D3-reflections", "Z4-V4", "Z4-V4-inverting", "V4-V4", "Z2-D4", "Z5-Z4-scaling"],
)
def test_enumerate_gamma_matches_family_scan(action):
    """Every Gamma family, for every bracket on K, against a scan of all
    |End(H)|^(|K|-1) families (at most 4096 here)."""
    H, K = action.H, action.K
    assert len(homomorphisms(H, H)) ** (K.order - 1) <= 4096
    for star_k in enumerate_brackets(K).items:
        found = [f.gamma for f in enumerate_gamma(H, K, action, star_k)]
        assert found == scan_gamma(H, K, action.sigma, star_k.star)


# -- pairing enumeration ------------------------------------------------------------


def test_enumerate_pairings_z4_d4():
    z4, d4 = make_cyclic(4), make_dihedral(4)
    maps = enumerate_pairings(z4, d4, Action.trivial(z4, d4), trivial_bracket(d4))
    assert len(maps) == 2


def test_enumerate_pairings_coprime_quaternion():
    z5, q8 = make_cyclic(5), make_quaternion(2)
    maps = enumerate_pairings(z5, q8, Action.trivial(z5, q8), trivial_bracket(q8))
    assert len(maps) == 1 and maps[0].is_trivial()


def test_enumerate_pairings_z8_over_z2_cubed():
    """For the trivial action the tables are the alternating bilinear maps,
    Hom(Lambda^2 Z2^3, Z8), one per choice of beta(a, b) in {0, 4} on the
    three generator pairs a < b."""
    H, K = make_cyclic(8), parse_preset("Z2xZ2xZ2")
    maps = enumerate_pairings(H, K, Action.trivial(H, K), trivial_bracket(K))
    assert len(maps) == 8
    for m in maps:
        assert all(m.beta[y][x] == -m.beta[x][y] % 8 for x in range(8) for y in range(8))


@pytest.mark.parametrize(
    "H, K, action",
    [
        (make_cyclic(2), V4, Action.trivial(make_cyclic(2), V4)),
        (make_cyclic(4), V4, Action.trivial(make_cyclic(4), V4)),
        (V4, V4, Action.trivial(V4, V4)),
        (make_cyclic(4), V4, Action.by_inversion(make_cyclic(4), V4, (1, 3))),
        (make_cyclic(2), make_cyclic(4), Action.trivial(make_cyclic(2), make_cyclic(4))),
    ],
    ids=["Z2-V4", "Z4-V4", "V4-V4", "Z4-V4-inverting", "Z2-Z4"],
)
def test_enumerate_pairings_match_table_scan(H, K, action):
    for star_k in enumerate_brackets(K).items:
        found = [p.beta for p in enumerate_pairings(H, K, action, star_k)]
        assert found == scan_pairings(H, K, action.sigma, star_k.star)


@pytest.mark.parametrize("enumerate_maps", [enumerate_gamma, enumerate_pairings])
@pytest.mark.parametrize("wrong", ["H", "K"])
def test_map_enumeration_rejects_groups_other_than_the_actions(enumerate_maps, wrong):
    z2, z4 = make_cyclic(2), make_cyclic(4)
    action = Action.trivial(z4, z2)
    H, K = (z2, z2) if wrong == "H" else (z4, z4)
    with pytest.raises(ValidationError, match="action does not match H and K"):
        enumerate_maps(H, K, action, trivial_bracket(K))


@pytest.mark.parametrize("inverting", [1, 2], ids=["C1", "T1"])
def test_enumerate_pairings_rejects_fills_that_break_c1_or_t1(inverting):
    """H = Z3 and K = Z2^3 on generators 1, 2, 4, with star_K = 3 on every
    generator pair and the generators other than ``inverting`` acting
    trivially. Three seeds close their generator rows. When generator 1
    inverts, the fills of (0, 0, 1) and (0, 0, 2) break C1 (and T1); when
    generator 2 inverts, those of (0, 1, 0) and (0, 2, 0) pass C1 and break
    T1 at (1, 1, 6). Such fills also break both T2 and T3, which the walk
    checks. Only the zero table is kept."""
    H, K = make_cyclic(3), parse_preset("Z2xZ2xZ2")
    gens = find_generators(K)
    assert gens == (1, 2, 4)
    seed = {(a, b): K.identity if a == b else 3 for a in gens for b in gens}
    star_k = LieBracket(K, expand_table(K, gens, seed))
    assert verify_mla(K, star_k) == []
    kernel = subgroup_generated(K, [g for g in gens if g != inverting])
    action = Action.by_inversion(H, K, [x for x in range(K.order) if x not in kernel])
    maps = enumerate_pairings(H, K, action, star_k)
    assert len(maps) == 1 and maps[0].is_trivial()
    assert [m.beta for m in maps] == [p.beta for p in seed_vector_pairings(H, K, action, star_k)]
    for m in maps:
        b = m.beta
        assert all(b[x][K.identity] == b[K.identity][x] == b[x][x] == H.identity for x in range(K.order))
        for x, y, z in product(range(K.order), repeat=3):
            assert pairing_conditions_hold(H, K, action.sigma, star_k.star, b, x, y, z)


@pytest.mark.parametrize("inverting, broken", [((), "T2"), ((1,), "T3")], ids=["T2", "T3"])
def test_pairing_leaf_check_rejects_a_table_that_breaks_only_t2_or_t3(inverting, broken):
    """The pairing walk's leaf check on a table handed to it directly: K = Z2
    = {1, a}, H = Z3, the trivial star_K and beta(a, a) = 1. Under the
    trivial action T3 holds and T2 at (a, a, a) reads 0 = 1 + 1; when a
    inverts, T2 holds (0 = 1 - 1) and T3 at z = a reads 1 = -1. No input of
    ``enumerate_pairings`` is known whose leaves break one of T2 and T3
    without the other, so this is where each check shows."""
    H, K = make_cyclic(3), make_cyclic(2)
    action = Action.by_inversion(H, K, inverting)
    star_k = trivial_bracket(K)
    beta = ((0, 0), (0, 1))
    t2 = all(
        beta[x][K.cayley[y][z]] == H.cayley[beta[x][y]][action.sigma[y][beta[x][z]]]
        for x, y, z in product(range(2), repeat=3)
    )
    t3 = all(beta[x][y] == action.sigma[z][beta[x][y]] for x, y, z in product(range(2), repeat=3))
    assert {"T2": t2, "T3": t3} == {"T2": broken != "T2", "T3": broken != "T3"}
    assert not search._PairingWalk(action, star_k, search.DEFAULT_NODE_BUDGET)._accept(beta)


def test_enumerate_pairings_rejects_a_star_that_is_not_a_bracket():
    """The proof that T2 and T3 at the generators suffice needs star_K to be
    a bracket on K, so a table that is not one is an input error for
    ``enumerate_pairings`` and for ``enumerate_tuples``, which shares its
    check."""
    H, K = make_cyclic(3), parse_preset("Z2xZ2")
    star = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    star_k = LieBracket.make(K, star)
    assert verify_mla(K, star_k) != []
    for action in (Action.trivial(H, K), Action.by_inversion(H, K, (1, 3))):
        with pytest.raises(ValidationError, match="not a verified bracket on K"):
            enumerate_pairings(H, K, action, star_k)
        with pytest.raises(ValidationError, match="not a verified bracket on K"):
            search.enumerate_tuples(action, star_k)


SWEEP_H = ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z8", "Z3xZ3")
# automorphisms other than inversion: h -> 3h and h -> 5h on Z8, (a, b) -> (a, -b) on Z3 x Z3
SWEEP_AUTOMORPHISMS = {
    "Z8": ([3 * h % 8 for h in range(8)], [5 * h % 8 for h in range(8)]),
    "Z3xZ3": ([h % 3 + 3 * (-(h // 3) % 3) for h in range(9)],),
}


@pytest.mark.parametrize("k_spec", ["Z2", "Z4", "Z2xZ2", "D3", "D4", "Q8", "Z2xZ2xZ2", "Z2xZ4"])
def test_enumerate_pairings_match_the_seed_vector_oracle(k_spec):
    """The walk lists the tables of ``oracle.seed_vector_pairings``, which
    fills every seed vector in full and checks C1 and T1-T3 on every
    triple, in the same order: for each H of the sweep with |H| |K| <= 64,
    under the trivial action and under inversion (and the automorphisms
    above) by the elements outside the kernel of a homomorphism K -> Z2, on
    at most 8 brackets of K (every ceil(n/8)-th of the n when there are
    more)."""
    K = parse_preset(k_spec)
    stars = enumerate_brackets(K).items
    stars = stars[:: -(-len(stars) // 8)]
    hom = next(h for h in homomorphisms(K, make_cyclic(2)) if any(h))
    for H in map(parse_preset, SWEEP_H):
        if H.order * K.order > 64:
            continue
        identity = list(range(H.order))
        for auto in (identity, list(H.inverse), *SWEEP_AUTOMORPHISMS.get(H.name, ())):
            action = Action.make(H, K, [auto if hom[x] else identity for x in range(K.order)])
            for star_k in stars:
                found = [p.beta for p in enumerate_pairings(H, K, action, star_k)]
                assert found == [p.beta for p in seed_vector_pairings(H, K, action, star_k)], (H.name, star_k.star)


@pytest.mark.parametrize("enumerate_maps", [enumerate_gamma, enumerate_pairings])
def test_map_enumeration_rejects_a_bracket_on_another_group(enumerate_maps):
    H, K = make_cyclic(3), make_cyclic(2)
    with pytest.raises(ValidationError):
        enumerate_maps(H, K, Action.trivial(H, K), commutator_bracket(make_dihedral(3)))


# -- induced enumeration --------------------------------------------------------------


def test_enumerate_induced_trivial_h_gives_brackets_of_k():
    H, K = make_cyclic(1), make_dihedral(3)
    res = enumerate_induced(H, K, Action.trivial(H, K))
    base = enumerate_brackets(K)
    assert res.raw_count == base.raw_count
    assert [b.star for b in res.items] == [b.star for b in base.items]


def test_enumerate_induced_contains_trivial():
    H, K = make_cyclic(3), make_dihedral(3)
    res = enumerate_induced(H, K, Action.trivial(H, K))
    G_order = H.order * K.order
    trivial_table = tuple((0,) * G_order for _ in range(G_order))
    assert trivial_table in {b.star for b in res.items}


def test_enumerate_induced_builds_the_product_once(monkeypatch):
    builds = []
    build = construction._pair_product
    monkeypatch.setattr(construction, "_pair_product", lambda *a, **kw: builds.append(a) or build(*a, **kw))
    H, K = make_cyclic(3), make_cyclic(2)
    for calls in (1, 2):
        res = enumerate_induced(H, K, Action.by_inversion(H, K, inverting=(1,)))
        assert res.raw_count == 3
        assert len(builds) == calls


def test_enumerate_induced_rejects_require_ideal():
    """The induced search has no ideal filter, so it rejects require_ideal
    instead of ignoring it: on Z2 x D4 with the trivial action the normal
    subgroup {0, 5} is an ideal of only 8 of the 24 induced brackets."""
    H, K = make_cyclic(2), make_dihedral(4)
    action = Action.trivial(H, K)
    N = Subgroup(action.product_group, (0, 5))
    res = enumerate_induced(H, K, action, SearchConfig(max_group_order=32))
    assert N.is_normal and res.raw_count == 24
    assert sum(is_ideal(b, N) for b in res.items) == 8
    with pytest.raises(ValidationError, match="require_ideal"):
        enumerate_induced(H, K, action, SearchConfig(max_group_order=32, require_ideal=N))


def test_enumerate_induced_checks_the_action_before_the_walk(monkeypatch):
    walks = []
    monkeypatch.setattr(search._StarTableSearch, "run", lambda self: walks.append(self))
    action = Action.trivial(make_cyclic(3), make_cyclic(2))
    with pytest.raises(ValidationError):
        enumerate_induced(make_cyclic(5), make_cyclic(2), action)
    assert walks == []


@pytest.mark.parametrize(
    "h_spec, k_spec, inverting, tables, classes",
    [
        ("Z3", "D3", (3, 4, 5), 27, 6),
        ("Z4", "Z2xZ2", (), 20, 5),
        ("Z4", "Z2xZ2", (1, 3), 24, 10),
        ("Z4", "D3", (3, 4, 5), 12, 7),
        ("Z3", "D4", (4, 5, 6, 7), 12, 7),
        ("Z6", "Z4", (1, 3), 6, 4),
        ("Z5", "Z2xZ2", (1, 3), 10, 6),
        ("Z3", "Z2xZ2xZ2", (4, 5, 6, 7), 84, 14),
    ],
    ids=["Z3:D3", "Z4xV4", "Z4:V4", "Z4:D3", "Z3:D4", "Z6:Z4", "Z5:V4", "Z3:Z2^3"],
)
def test_induced_set_is_the_brackets_with_h_as_ideal(h_spec, k_spec, inverting, tables, classes):
    """The paper's correspondence on products that are not coprime: the
    induced brackets are exactly the brackets of H x| K with H as an ideal.
    H is cyclic, so every such bracket is trivial on H, as the split
    parametrization needs. Z3:Z2^3, isomorphic to Z2xZ2xD3, is the first
    case over a K with three generators under a non-trivial action, and
    the first whose pairing walks reject fills at their leaf check (28 of
    148)."""
    H, K = parse_preset(h_spec), parse_preset(k_spec)
    action = Action.by_inversion(H, K, inverting=inverting)
    G = action.product_group
    induced = enumerate_induced(H, K, action)
    ideal = enumerate_brackets(G, SearchConfig(max_group_order=32, require_ideal=split_factor_subgroup(action)))
    assert induced.exhausted and ideal.exhausted
    assert [b.star for b in induced.items] == [b.star for b in ideal.items]
    assert (induced.raw_count, induced.class_count) == (ideal.raw_count, ideal.class_count) == (tables, classes)


def test_enumerated_induced_items_reverify():
    H, K = make_cyclic(3), make_dihedral(3)
    res = enumerate_induced(H, K, Action.trivial(H, K))
    for bracket in res.items:
        assert verify_mla(bracket.group, bracket) == []


@pytest.mark.parametrize(
    "h_spec, k_spec, inverting, tuples, rejected",
    [
        ("Z3", "Z2", (1,), 3, 0),
        ("Z3", "Z2xZ2", (1, 2), 8, 2),
        ("Z4", "D4", (1, 3, 5, 7), 40, 8),
        ("Z4", "D4", (), 24, 0),
    ],
    ids=["S3", "Z3:V4", "Z4:D4", "Z4xD4"],
)
def test_enumerate_tuples_keeps_the_tuples_that_pass_c1_to_c6(h_spec, k_spec, inverting, tuples, rejected):
    """enumerate_tuples keeps a tuple by the bracket decision on its induced
    table; the full C1-C6 report keeps the same tuples of enumerate_gamma x
    enumerate_pairings, for every bracket on K."""
    H, K = parse_preset(h_spec), parse_preset(k_spec)
    action = Action.by_inversion(H, K, inverting=inverting)
    tried = dropped = 0
    for star_k in enumerate_brackets(K).items:
        candidates = [
            ConstructionData.make(action, star_k, gamma, beta)
            for gamma in enumerate_gamma(H, K, action, star_k)
            for beta in enumerate_pairings(H, K, action, star_k)
        ]
        kept = [data for data in candidates if check_theorem_conditions(data).passed]
        got = search.enumerate_tuples(action, star_k)
        assert all(data.action is action and data.star_k is star_k for data in got)
        assert [(d.gamma.gamma, d.beta.beta) for d in got] == [(d.gamma.gamma, d.beta.beta) for d in kept]
        tried += len(candidates)
        dropped += len(candidates) - len(kept)
    assert (tried, dropped) == (tuples, rejected)


def _rotation_of_v4():
    """Z2 x Z2 x| Z3, Z3 turning the three elements of order 2 (A4, the
    alternating group): H with two generators, on a group that is not
    abelian."""
    H, K = parse_preset("Z2xZ2"), make_cyclic(3)
    return Action.make(H, K, [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)])


@pytest.mark.parametrize(
    "make_action",
    [
        lambda: Action.by_inversion(make_cyclic(3), V4, (1, 2)),
        lambda: Action.by_inversion(make_cyclic(4), make_dihedral(4), (1, 3, 5, 7)),
        _rotation_of_v4,
        lambda: Action.trivial(make_cyclic(2), make_dihedral(4)),
        lambda: Action.by_inversion(make_cyclic(8), make_cyclic(2), (1,)),
        lambda: Action.trivial(make_cyclic(3), V4),
    ],
    ids=["Z3:V4", "Z4:D4", "Z2xZ2:Z3", "Z2xD4", "Z8:Z2", "Z3xV4"],
)
def test_affine_points_decide_every_induced_table(monkeypatch, make_action):
    """The decision of enumerate_tuples, A1-A5 with the free arguments at
    the affine points of H, equals ``brackets._is_mla`` on every tuple of
    every Gamma that enumerate_gamma extends, C2 or not, and every beta of
    enumerate_pairings, and on two one-cell changes of each beta: the proof
    needs only endomorphism rows, not C1 or C2. The cases take H with two
    generators (Z2xZ2), H whose elements are all 1 or generators (Z2) and an
    abelian product, where A4 runs on generator triples."""
    monkeypatch.setattr(search, "check_gamma_identities", lambda *args, **kwargs: [])
    action = make_action()
    H, K, G = action.H, action.K, action.product_group
    points, reduced = search._affine_points(action), brackets._reduced_ranges(G)
    rng = random.Random(0)
    outcomes = []
    for star_k in enumerate_brackets(K).items:
        for gamma in enumerate_gamma(H, K, action, star_k):
            for beta in enumerate_pairings(H, K, action, star_k):
                betas = [beta.beta]
                for _ in range(2):
                    rows = [list(row) for row in beta.beta]
                    x, y = rng.randrange(K.order), rng.randrange(K.order)
                    rows[x][y] = (rows[x][y] + rng.randrange(1, H.order)) % H.order
                    betas.append(rows)
                for b in betas:
                    data = ConstructionData(action, star_k, gamma, PairingMap.make(H, K, b))
                    expected = brackets._is_mla(G, data.induced_table, reduced)
                    assert brackets._is_mla(G, data.induced_table, points) == expected, (gamma.gamma, b)
                    outcomes.append(expected)
    assert True in outcomes and False in outcomes


def test_affine_points_need_endomorphism_rows():
    """The points decide the axioms only for Gamma rows that are
    endomorphisms, which every Gamma of enumerate_gamma has. A ``GammaMap``
    built without ``make`` need not have them: on Z8 x| Z2 with inversion,
    Gamma_1 the identity but for Gamma_1(4) = 0 passes at the points and
    fails A1-A5. So the points stay inside enumerate_tuples."""
    H, K = make_cyclic(8), make_cyclic(2)
    action = Action.by_inversion(H, K, (1,))
    gamma = GammaMap(H, K, ((0,) * 8, (0, 1, 2, 3, 0, 5, 6, 7)))
    data = ConstructionData(action, trivial_bracket(K), gamma, PairingMap.trivial(H, K))
    G, table = action.product_group, data.induced_table
    assert brackets._is_mla(G, table, search._affine_points(action))
    assert not brackets._is_mla(G, table, brackets._reduced_ranges(G))
    assert not check_theorem_conditions(data).passed


def _identity_points(action):
    """The reduced ranges of the product with the free arguments at the
    all-1 point of H only: ``_affine_points`` without its generator points."""
    H, K = action.H, action.K
    e, nH, nK = H.identity, H.order, K.order
    pairs = [(e + nH * x, [e + nH * y for y in range(nK)]) for x in range(nK)]
    triples = [
        (e + nH * a, [(e + nH * b, [e + nH * c for c in range(a, nK)]) for b in range(a, nK)]) for a in range(nK)
    ]
    return brackets._reduced_ranges(action.product_group, pairs, triples)


D4_STAR = (
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 0, 0, 2, 2, 2, 2),
    (0, 0, 0, 0, 3, 3, 3, 3),
    (0, 3, 2, 1, 0, 3, 2, 1),
    (0, 3, 2, 1, 1, 0, 3, 2),
    (0, 3, 2, 1, 2, 1, 0, 3),
    (0, 3, 2, 1, 3, 2, 1, 0),
)


@pytest.mark.parametrize(
    "action, star, gamma",
    [
        (Action.trivial(make_cyclic(2), make_dihedral(4)), D4_STAR, ((0, 0), (0, 1)) * 4),
        (Action.trivial(make_cyclic(3), V4), ((0,) * 4,) * 4, ((0, 0, 0), (0, 0, 0), (0, 1, 2), (0, 1, 2))),
    ],
    ids=["Z2xD4", "Z3xV4"],
)
def test_affine_points_need_the_generator_points(action, star, gamma):
    """The all-1 point of H alone does not decide the axioms: on each case a
    tuple with beta trivial and Gamma the identity of H at some elements of
    K (an endomorphism family that fails C2) passes A1-A5 at that point and
    fails at the affine points, as it fails A1-A5."""
    H, K, G = action.H, action.K, action.product_group
    data = ConstructionData(action, LieBracket.make(K, star), GammaMap.make(H, K, gamma), PairingMap.trivial(H, K))
    table = data.induced_table
    assert brackets._is_mla(G, table, _identity_points(action))
    assert not brackets._is_mla(G, table, search._affine_points(action))
    assert not brackets._is_mla(G, table, brackets._reduced_ranges(G))


def test_enumerate_induced_reports_a_pairing_walk_cut_short():
    """Each pairing walk runs within the config's node budget. On Z8 x V4 the
    search on V4 takes 4 nodes and each pairing walk 8, so a budget of 4
    cuts the walks short and the result says so; 8 lets every walk end."""
    H, K = make_cyclic(8), V4
    action = Action.trivial(H, K)
    cut = enumerate_induced(H, K, action, SearchConfig(node_budget=4))
    assert (cut.raw_count, cut.class_count, cut.exhausted) == (10, 4, False)
    whole = enumerate_induced(H, K, action, SearchConfig(node_budget=8))
    assert (whole.raw_count, whole.class_count, whole.exhausted) == (20, 5, True)


# -- gamma families as two-operation homomorphisms -----------------------------------


def test_mla_homs_case_counts():
    z4, d4 = make_cyclic(4), make_dihedral(4)
    stars = {br.star[4][1]: br for br in enumerate_brackets(d4).items}
    assert len(enumerate_mla_homs(d4, stars[1], z4)) == 2  # a*b = b
    assert len(enumerate_mla_homs(d4, stars[0], z4)) == 4  # trivial bracket
    # for the trivial bracket every group homomorphism qualifies because the
    # endomorphism-side bracket vanishes on the commutative End(Z4)
    _, end_bracket = end_mla(z4)
    assert end_bracket.is_trivial()


def test_gamma_families_are_mla_homs_in_direct_case():
    # any family passing the identities with the trivial action is a group
    # homomorphism into End(H) compatible with the endomorphism-side bracket;
    # the two enumerators take independent routes and must agree on every
    # bracket choice
    z4, d4 = make_cyclic(4), make_dihedral(4)
    act = Action.trivial(z4, d4)
    for star in enumerate_brackets(d4).items:
        fams = enumerate_gamma(z4, d4, act, star)
        homs = enumerate_mla_homs(d4, star, z4)
        assert sorted(f.gamma for f in fams) == sorted(h.gamma for h in homs)
        hom_tables = set(homomorphisms(d4, end_mla(z4)[0]))
        endo_list = homomorphisms(z4, z4)
        for fam in fams:
            assert tuple(endo_list.index(row) for row in fam.gamma) in hom_tables


# -- coprime determination ---------------------------------------------------------------


def test_coprime_z3_z2_full_mode():
    report = verify_coprime_determination(make_cyclic(3), make_cyclic(2))
    assert report.full_mode
    assert report.induced_raw_count == 1
    assert report.all_have_h_ideal and report.all_beta_trivial and report.counts_consistent
    assert report.passed


def test_coprime_z5_z2():
    report = verify_coprime_determination(make_cyclic(5), make_cyclic(2))
    assert report.full_mode and report.passed
    assert report.induced_class_count == 1


def test_coprime_z5_s3_count_mode():
    (outcome,) = run_scenarios(["z5xd3-induced"])
    report = verify_coprime_determination(make_cyclic(5), make_dihedral(3))
    assert not report.full_mode
    assert report.induced_class_count == outcome.expected["class_count"]


def test_coprime_count_only_when_enumerate_brackets_refuses_the_product():
    """Z5xQ8 has order 40, within max_group_order but above the enumeration
    cap of 32: the induced classification alone is reported."""
    report = verify_coprime_determination(make_cyclic(5), make_quaternion(2), SearchConfig(max_group_order=64))
    assert (report.group_order, report.full_mode) == (40, False)
    assert report.passed


def test_coprime_searches_ignore_up_to_iso():
    plain = verify_coprime_determination(make_cyclic(3), V4)
    iso = verify_coprime_determination(make_cyclic(3), V4, SearchConfig(up_to_iso=True))
    assert iso == plain
    assert iso.full_mode and iso.passed and (iso.induced_raw_count, iso.induced_class_count) == (4, 2)


def test_coprime_requires_coprime_orders():
    with pytest.raises(ValidationError):
        verify_coprime_determination(make_cyclic(2), make_cyclic(4))


# -- tau ------------------------------------------------------------------------------------


def test_tau_values():
    assert tau(1) == 1
    assert tau(3) == 2
    assert tau(4) == 3
    assert tau(12) == 6
    with pytest.raises(ValidationError):
        tau(0)


@pytest.mark.parametrize("value", [True, 1.5, "3", 0], ids=repr)
def test_tau_rejects_what_is_not_a_positive_int(value):
    """A bool is not coerced to 1, and a float or a string is rejected, not
    met by a TypeError from the comparison or the range."""
    with pytest.raises(ValidationError, match=rf"^tau requires a positive integer, got {value!r}$"):
        tau(value)
