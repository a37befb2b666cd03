"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Stated runtime budgets are asserted; correctness checks are exact.

The paper's expected values are written once, in the scenario catalog
(`mla_forge.scenarios`). A criterion runs its scenario and asserts that it
passed, plus what only this suite checks: the CLI path, the oracle
comparisons, the full condition reports and the soundness sweep. A paper
number such a check needs is read from the scenario's ``expected``.
"""

import json
import time
from contextlib import contextmanager

from mla_forge.brackets import bracket_orbit, commutator_bracket, trivial_bracket, verify_mla
from mla_forge.cli import main, parse_preset
from mla_forge.construction import (
    Action,
    ConstructionData,
    check_gamma_identities,
    check_theorem_conditions,
    decompose_bracket,
    induce_bracket,
    semidirect_product,
)
from mla_forge.groups import direct_product, make_cyclic, make_dihedral
from mla_forge.search import SearchConfig, enumerate_brackets, enumerate_gamma, enumerate_pairings
from mla_forge.scenarios import run_scenarios, s3_pipeline_parts

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


def scenario(name: str):
    """The outcome of catalog scenario ``name``, asserted to have passed."""
    (outcome,) = run_scenarios([name])
    assert outcome.passed, (name, outcome.expected, outcome.actual)
    return outcome


def test_criterion_01_s3_structure_count(capsys):
    with criterion(1, "S3 structure count via the CLI matches s3-enumeration", budget=10.0):
        expected = run_scenarios(["s3-enumeration"])[0].expected
        code = main(["enumerate", "--group", "D3", "--up-to-iso", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["class_count"], doc["exhausted"]) == (expected["class_count"], expected["exhausted"])


def test_criterion_02_d4_structure_count():
    with criterion(2, "d4-enumeration; one up-to-iso representative per class of generator cells", budget=60.0):
        expected = scenario("d4-enumeration").expected
        g = make_dihedral(4)
        a, b = 4, 1
        seeded = {br.star[a][b]: br for br in enumerate_brackets(g).items}
        reps = enumerate_brackets(g, SearchConfig(up_to_iso=True)).items
        assert len(reps) == expected["class_count"]
        for cells in expected["class_cells"]:
            orbit = set(bracket_orbit(seeded[cells[0]]))
            assert sum(rep.star in orbit for rep in reps) == 1, cells


def test_criterion_03_q8_structure_count():
    with criterion(3, "q8-enumeration: tau(2) classes, search exhausted", budget=120.0):
        scenario("q8-enumeration")


def test_criterion_04_cyclic_controls():
    with criterion(4, "cyclic-controls, each table list equal to the naive oracle's"):
        for name in scenario("cyclic-controls").expected:
            g = parse_preset(name)
            assert [br.star for br in enumerate_brackets(g).items] == naive_bracket_tables(g), name


def test_criterion_05_s3_construction_pipeline():
    with criterion(5, "s3-construction; G1-G2 and C1-C6 on every tuple, decomposed gamma nonzero"):
        scenario("s3-construction")
        H, K, action = s3_pipeline_parts()
        star_k = trivial_bracket(K)
        betas = enumerate_pairings(H, K, action, star_k)
        assert all(beta.is_trivial() for beta in betas)
        for gamma in enumerate_gamma(H, K, action, star_k):
            assert check_gamma_identities(action, gamma, star_k) == []
            for beta in betas:
                assert check_theorem_conditions(ConstructionData.make(action, star_k, gamma, beta)).passed
        comm = commutator_bracket(semidirect_product(action))
        assert not decompose_bracket(action, comm).gamma.is_zero()


def test_criterion_06_z3xd3_induced():
    with criterion(6, "z3xd3-induced: induced classes with Z3 ideal", budget=300.0):
        scenario("z3xd3-induced")


def test_criterion_07_z5xd3_coprime():
    with criterion(7, "z5xd3-induced: tau(3) classes, only trivial pairings", budget=300.0):
        scenario("z5xd3-induced")


def test_criterion_08_z4xd4_case_analysis():
    with criterion(8, "z4xd4-cases: maps, counts and derived labels", budget=600.0):
        scenario("z4xd4-cases")


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
                        if not check_theorem_conditions(data).passed:
                            continue
                        accepted += 1
                        bracket = induce_bracket(data, check=False)
                        assert verify_mla(G, bracket) == [], label
        assert accepted >= 60  # the sweep must not be vacuous


def test_criterion_10_section_independence():
    with criterion(10, "section-independence: S3 and the Z4 x D4 case II bracket", budget=120.0):
        scenario("section-independence")


def test_criterion_11_commuting_property():
    with criterion(11, "sigma-gamma-commute: every abelian-K catalog case"):
        scenario("sigma-gamma-commute")


def test_criterion_12_end_mla():
    with criterion(12, "end-mla: endomorphism structures verify", budget=60.0):
        scenario("end-mla")


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
