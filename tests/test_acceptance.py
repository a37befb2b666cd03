"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Stated runtime budgets are asserted; correctness checks are exact.
"""

import json
import time
from contextlib import contextmanager

from mla_forge.brackets import (
    bracket_orbit,
    commutator_bracket,
    derived_subalgebra,
    end_mla,
    trivial_bracket,
    verify_mla,
)
from mla_forge.cli import main
from mla_forge.construction import (
    Action,
    ConstructionData,
    check_gamma_identities,
    check_theorem_conditions,
    decompose_bracket,
    induce_bracket,
    section_independence_check,
    semidirect_product,
    sigma_gamma_commute_check,
)
from mla_forge.groups import (
    direct_product,
    identify_small_group,
    make_cyclic,
    make_dihedral,
    make_quaternion,
)
from mla_forge.search import (
    SearchConfig,
    enumerate_brackets,
    enumerate_gamma,
    enumerate_induced,
    enumerate_mla_homs,
    enumerate_pairings,
    tau,
)
from mla_forge.scenarios import abelian_k_cases, s3_pipeline_parts, z4xd4_case_ii_bracket

from oracle import naive_bracket_tables


@contextmanager
def criterion(num: int, description: str, budget: float = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {num}: FAIL - {description} (took {elapsed:.1f}s, budget {budget}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {num}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_01_s3_structure_count(capsys):
    with criterion(1, "S3 structure count via the CLI is 2", budget=10.0):
        code = main(["enumerate", "--group", "D3", "--up-to-iso", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["class_count"] == 2
        assert doc["exhausted"] is True


def test_criterion_02_d4_structure_count():
    with criterion(2, "D4 has 3 classes with generator cells {1, b, b^2}", budget=60.0):
        g = make_dihedral(4)
        a, b = 4, 1
        res = enumerate_brackets(g, SearchConfig(up_to_iso=True))
        assert res.class_count == 3
        assert res.exhausted
        raw = enumerate_brackets(g)
        by_class = {}
        for br in raw.items:
            by_class.setdefault(min(bracket_orbit(br)), set()).add(br.star[a][b])
        assert sorted(tuple(sorted(v)) for v in by_class.values()) == [(0,), (1, 3), (2,)]
        # each representative is equivalent to a bracket seeded at the stated cells
        seeded = {br.star[a][b]: br for br in raw.items}
        for cell in (0, 1, 2):
            matches = [rep for rep in res.items if seeded[cell].star in set(bracket_orbit(rep))]
            assert len(matches) == 1


def test_criterion_03_q8_structure_count():
    with criterion(3, "Q8 has tau(2) = 2 classes, search exhausted", budget=120.0):
        res = enumerate_brackets(make_quaternion(2), SearchConfig(up_to_iso=True))
        assert res.exhausted, "budget-exhausted search does not count"
        assert res.class_count == 2 == tau(2)


def test_criterion_04_cyclic_controls():
    with criterion(4, "Z6 and Z10 have exactly one structure, matching the oracle"):
        for n in (6, 10):
            g = make_cyclic(n)
            res = enumerate_brackets(g)
            oracle = naive_bracket_tables(g)
            assert res.raw_count == len(oracle) == 1
            assert [br.star for br in res.items] == oracle
            assert res.class_count == 1


def test_criterion_05_s3_construction_pipeline():
    with criterion(5, "S3 pipeline: gamma families, induced bracket, decompose round trip"):
        H, K, action = s3_pipeline_parts()
        G = semidirect_product(action)
        star_k = trivial_bracket(K)
        comm = commutator_bracket(G)

        families = enumerate_gamma(H, K, action, star_k)
        for fam in families:
            assert check_gamma_identities(action, fam, star_k) == []
        # three raw families pass: the zero family plus two nonzero ones that
        # induce reversal-equivalent structures, so there are exactly two
        # structure classes (trivial and the commutator class)
        assert len(families) == 3
        nonzero = [f for f in families if not f.is_zero()]
        assert len(nonzero) == 2
        betas = enumerate_pairings(H, K, action, star_k)
        assert len(betas) == 1 and betas[0].is_trivial()

        induced = {}
        for fam in families:
            data = ConstructionData.make(action, star_k, fam, betas[0])
            assert check_theorem_conditions(data).passed
            bracket = induce_bracket(data, check=False)
            assert verify_mla(G, bracket) == []
            induced[fam.gamma] = bracket
        keys = {min(bracket_orbit(br)) for br in induced.values()}
        assert len(keys) == 2  # exactly two structure classes
        for fam in nonzero:
            assert comm.star in set(bracket_orbit(induced[fam.gamma]))

        data = decompose_bracket(action, comm)
        assert data.induced_table == comm.star
        assert data.star_k.is_trivial() and data.beta.is_trivial()
        assert not data.gamma.is_zero()


def test_criterion_06_z3xd3_induced():
    with criterion(6, "Z3 x D3 has 2 induced classes with Z3 ideal", budget=300.0):
        H, K = make_cyclic(3), make_dihedral(3)
        res = enumerate_induced(H, K, Action.trivial(H, K))
        assert res.class_count == 2
        assert res.exhausted


def test_criterion_07_z5xd3_coprime():
    with criterion(7, "Z5 x D3 has tau(3) = 2 classes and only trivial pairings", budget=300.0):
        H, K = make_cyclic(5), make_dihedral(3)
        action = Action.trivial(H, K)
        res = enumerate_induced(H, K, action)
        assert res.class_count == tau(3) == 2
        for star_k in enumerate_brackets(K).items:
            maps = enumerate_pairings(H, K, action, star_k)
            assert len(maps) == 1 and maps[0].is_trivial()


def test_criterion_08_z4xd4_case_analysis():
    with criterion(8, "Z4 x D4 case analysis: maps, counts and derived labels", budget=600.0):
        H, K = make_cyclic(4), make_dihedral(4)
        action = Action.trivial(H, K)
        G = semidirect_product(action)
        a, b = 4, 1

        homs = enumerate_gamma(H, K, action, trivial_bracket(K))
        assert len(homs) == 4
        bilinear = enumerate_pairings(H, K, Action.trivial(H, K), trivial_bracket(K))
        assert len(bilinear) == 2

        raw = enumerate_brackets(K).items
        cases = {br.star[a][b]: br for br in raw}
        assert len(enumerate_mla_homs(K, cases[1], H)) == 2

        expected_labels = {0: {"Z2"}, 1: {"Z4", "Z2xZ4"}, 2: {"Z2", "Z2xZ2"}}
        for cell, want in expected_labels.items():
            star_k = cases[cell]
            labels = set()
            for gamma in enumerate_gamma(H, K, action, star_k):
                for beta in bilinear:
                    data = ConstructionData.make(action, star_k, gamma, beta)
                    if not check_theorem_conditions(data, short_circuit=True).passed:
                        continue
                    bracket = induce_bracket(data, check=False)
                    if cell == 0 and bracket.is_trivial():
                        continue
                    labels.add(identify_small_group(derived_subalgebra(bracket).as_group()))
            assert labels == want, (cell, labels)


def soundness_catalog():
    """(action, label) pairs covering H in {Z3, Z4, Z5} x K in {Z2, S3, D4},
    with the trivial action everywhere plus an inverting action per K."""
    hs = [make_cyclic(3), make_cyclic(4), make_cyclic(5)]
    cases = []
    for H in hs:
        z2 = make_cyclic(2)
        cases.append((Action.trivial(H, z2), f"{H.name}|Z2-trivial"))
        cases.append((Action.by_inversion(H, z2, inverting=(1,)), f"{H.name}|Z2-inverting"))
        s3 = make_dihedral(3)
        cases.append((Action.trivial(H, s3), f"{H.name}|S3-trivial"))
        cases.append((Action.by_inversion(H, s3, inverting=(3, 4, 5)), f"{H.name}|S3-sign"))
        d4 = make_dihedral(4)
        cases.append((Action.trivial(H, d4), f"{H.name}|D4-trivial"))
        cases.append((Action.by_inversion(H, d4, inverting=(4, 5, 6, 7)), f"{H.name}|D4-sign"))
    return cases


def test_criterion_09_soundness():
    with criterion(9, "every accepted tuple induces a verified bracket (zero tolerance)"):
        accepted = 0
        for action, label in soundness_catalog():
            H, K = action.H, action.K
            G = semidirect_product(action)
            for star_k in enumerate_brackets(K).items:
                gammas = enumerate_gamma(H, K, action, star_k)
                betas = enumerate_pairings(H, K, action, star_k)
                for gamma in gammas:
                    for beta in betas:
                        data = ConstructionData.make(action, star_k, gamma, beta)
                        if not check_theorem_conditions(data, short_circuit=True).passed:
                            continue
                        accepted += 1
                        bracket = induce_bracket(data, check=False)
                        assert verify_mla(G, bracket) == [], label
        assert accepted >= 60  # the sweep must not be vacuous


def test_criterion_10_section_independence():
    with criterion(10, "section independence on S3 and the Z4 x D4 case II bracket", budget=120.0):
        H, K, action = s3_pipeline_parts()
        comm = commutator_bracket(semidirect_product(action))
        assert section_independence_check(action, comm)
        action_ii, bracket_ii = z4xd4_case_ii_bracket(SearchConfig())
        assert section_independence_check(action_ii, bracket_ii)


def test_criterion_11_commuting_property():
    with criterion(11, "sigma and gamma commute for every abelian-K catalog case"):
        checked = 0
        for label, action in abelian_k_cases():
            H, K = action.H, action.K
            for star_k in enumerate_brackets(K).items:
                for gamma in enumerate_gamma(H, K, action, star_k):
                    assert sigma_gamma_commute_check(action, gamma), label
                    checked += 1
        assert checked >= 10


def test_criterion_12_end_mla():
    with criterion(12, "endomorphism structures verify for the five stated groups", budget=60.0):
        cases = [
            make_cyclic(2),
            make_cyclic(3),
            make_cyclic(4),
            direct_product(make_cyclic(2), make_cyclic(2)),
            make_cyclic(6),
        ]
        for H in cases:
            end_group, end_bracket = end_mla(H)
            assert verify_mla(end_group, end_bracket) == [], H.name


def test_criterion_13_oracle_equivalence():
    with criterion(13, "engine output equals the naive oracle on every group of order <= 6"):
        groups = [
            make_cyclic(1),
            make_cyclic(2),
            make_cyclic(3),
            make_cyclic(4),
            make_cyclic(5),
            make_cyclic(6),
            direct_product(make_cyclic(2), make_cyclic(2)),
            make_dihedral(3),
        ]
        for g in groups:
            engine = [br.star for br in enumerate_brackets(g).items]
            oracle = naive_bracket_tables(g)
            assert len(engine) == len(oracle), g.name
            assert engine == oracle, g.name
