"""Built-in regression scenarios: each one runs a library pipeline on a fixed
small case and compares against frozen expectations, the package's one copy
of the paper's worked values (the acceptance suite reads them from here)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ValidationError

from .brackets import (
    LieBracket,
    bracket_orbit,
    commutator_bracket,
    derived_subalgebra,
    end_mla,
    trivial_bracket,
    verify_mla,
)
from .construction import (
    Action,
    ConstructionData,
    PairingMap,
    decompose_bracket,
    induce_bracket,
    section_independence_check,
    semidirect_product,
    sigma_gamma_commute_check,
)
from .groups import (
    direct_product,
    identify_small_group,
    make_cyclic,
    make_dihedral,
    make_quaternion,
)
from .search import (
    SearchConfig,
    enumerate_brackets,
    enumerate_gamma,
    enumerate_induced,
    enumerate_mla_homs,
    enumerate_pairings,
    enumerate_tuples,
    tau,
    verify_coprime_determination,
)


@dataclass(frozen=True)
class ScenarioOutcome:
    name: str
    passed: bool
    expected: dict
    actual: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    summary: str
    runner: Callable[[SearchConfig], tuple[dict, dict]]  # (expected, actual)


def _counts(result) -> dict:
    return {"raw_count": result.raw_count, "class_count": result.class_count, "exhausted": result.exhausted}


# -- bracket enumeration on the named groups ---------------------------------


def _run_s3_enumeration(config: SearchConfig) -> tuple[dict, dict]:
    expected = {"raw_count": 3, "class_count": 2, "exhausted": True}
    return expected, _counts(enumerate_brackets(make_dihedral(3), config))


def _run_d4_enumeration(config: SearchConfig) -> tuple[dict, dict]:
    group = make_dihedral(4)
    a, b = 4, 1
    res = enumerate_brackets(group, config)
    cells = sorted(br.star[a][b] for br in res.items)
    by_class: dict[tuple, set[int]] = {}
    for br in res.items:
        by_class.setdefault(min(bracket_orbit(br)), set()).add(br.star[a][b])
    class_cells = sorted(tuple(sorted(v)) for v in by_class.values())
    expected = {
        "raw_count": 4,
        "class_count": 3,
        "cells": [0, 1, 2, 3],
        "class_cells": [(0,), (1, 3), (2,)],
        "exhausted": True,
    }
    actual = {
        "raw_count": res.raw_count,
        "class_count": res.class_count,
        "cells": cells,
        "class_cells": class_cells,
        "exhausted": res.exhausted,
    }
    return expected, actual


def _run_q8_enumeration(config: SearchConfig) -> tuple[dict, dict]:
    res = enumerate_brackets(make_quaternion(2), config)
    expected = {"raw_count": 2, "class_count": 2, "tau(2)": tau(2), "exhausted": True}
    actual = {
        "raw_count": res.raw_count,
        "class_count": res.class_count,
        "tau(2)": res.class_count,
        "exhausted": res.exhausted,
    }
    return expected, actual


def _run_cyclic_controls(config: SearchConfig) -> tuple[dict, dict]:
    expected = {}
    actual = {}
    for n in (6, 10):
        res = enumerate_brackets(make_cyclic(n), config)
        expected[f"Z{n}"] = {"raw_count": 1, "class_count": 1}
        actual[f"Z{n}"] = {"raw_count": res.raw_count, "class_count": res.class_count}
    return expected, actual


# -- the split-product pipeline on S3 ----------------------------------------


def s3_pipeline_parts():
    H, K = make_cyclic(3), make_cyclic(2)
    action = Action.by_inversion(H, K, inverting=(1,))
    return H, K, action


def _run_s3_construction(config: SearchConfig) -> tuple[dict, dict]:
    H, K, action = s3_pipeline_parts()
    G = semidirect_product(action)
    star_k = trivial_bracket(K)
    gammas = enumerate_gamma(H, K, action, star_k)
    betas = enumerate_pairings(H, K, action, star_k)
    comm = commutator_bracket(G)

    brackets = [(data.gamma, induce_bracket(data, check=False)) for data in enumerate_tuples(action, star_k)]
    nonzero = [(g, b) for g, b in brackets if not g.is_zero()]
    all_valid = all(not verify_mla(G, b) for _, b in brackets)
    comm_orbit = set(bracket_orbit(comm))
    nonzero_equiv_comm = all(b.star in comm_orbit for _, b in nonzero)
    # structure classes: the trivial one plus the inequivalent nonzero ones
    structure_classes = 1 + len({min(bracket_orbit(b)) for _, b in nonzero})
    decomposed = decompose_bracket(action, comm)
    roundtrip = decomposed.induced_table == comm.star
    expected = {
        "gamma_families": 3,
        "beta_maps": 1,
        "accepted_tuples": 3,
        "all_induced_valid": True,
        "nonzero_families": 2,
        "nonzero_equivalent_to_commutator": True,
        "structure_classes": 2,
        "decompose_star_k_trivial": True,
        "decompose_beta_trivial": True,
        "decompose_roundtrip": True,
    }
    actual = {
        "gamma_families": len(gammas),
        "beta_maps": len(betas),
        "accepted_tuples": len(brackets),
        "all_induced_valid": all_valid,
        "nonzero_families": len(nonzero),
        "nonzero_equivalent_to_commutator": nonzero_equiv_comm,
        "structure_classes": structure_classes,
        "decompose_star_k_trivial": decomposed.star_k.is_trivial(),
        "decompose_beta_trivial": decomposed.beta.is_trivial(),
        "decompose_roundtrip": roundtrip,
    }
    return expected, actual


# -- coprime direct products --------------------------------------------------


def _run_z3xd3(config: SearchConfig) -> tuple[dict, dict]:
    H, K = make_cyclic(3), make_dihedral(3)
    expected = {"raw_count": 3, "class_count": 2, "exhausted": True}
    return expected, _counts(enumerate_induced(H, K, Action.trivial(H, K), config))


def _run_z5xd3(config: SearchConfig) -> tuple[dict, dict]:
    H, K = make_cyclic(5), make_dihedral(3)
    action = Action.trivial(H, K)
    res = enumerate_induced(H, K, action, config)
    brackets = enumerate_brackets(K, config)
    pairings = [enumerate_pairings(H, K, action, star_k) for star_k in brackets.items]
    expected = {"class_count": tau(3), "pairings_all_trivial": True, "exhausted": True}
    actual = {
        "class_count": res.class_count,
        "pairings_all_trivial": all(len(maps) == 1 and maps[0].is_trivial() for maps in pairings),
        "exhausted": res.exhausted and brackets.exhausted,
    }
    return expected, actual


def _run_z5xq8(config: SearchConfig) -> tuple[dict, dict]:
    report = verify_coprime_determination(make_cyclic(5), make_quaternion(2), config)
    expected = {"full_mode": False, "induced_class_count": tau(2), "passed": True}
    actual = {
        "full_mode": report.full_mode,
        "induced_class_count": report.induced_class_count,
        "passed": report.passed,
    }
    return expected, actual


# -- the order-32 case analysis ----------------------------------------------


def z4xd4_parts():
    H, K = make_cyclic(4), make_dihedral(4)
    return H, K, Action.trivial(H, K)


def z4xd4_case_brackets(config: SearchConfig) -> tuple[dict[str, LieBracket], bool]:
    """starK representatives of cases I, II and III, the generator-pair cell
    a*b being 0, 1 and 2: those that the search finds within the budget,
    and whether the search on D4 was exhausted."""
    K = make_dihedral(4)
    res = enumerate_brackets(K, config)
    a, b = 4, 1
    out = {}
    for br in res.items:
        out.setdefault(br.star[a][b], br)
    cases = {case: out[cell] for cell, case in enumerate(("I", "II", "III")) if cell in out}
    return cases, res.exhausted


def _run_z4xd4(config: SearchConfig) -> tuple[dict, dict]:
    H, K, action = z4xd4_parts()
    G = semidirect_product(action)
    cases, exhausted = z4xd4_case_brackets(config)
    homs = enumerate_gamma(H, K, action, trivial_bracket(K))
    bilinear = enumerate_pairings(H, K, action, trivial_bracket(K))
    mla_homs_ii = len(enumerate_mla_homs(K, cases["II"], H)) if "II" in cases else None

    tuple_counts = {}
    labels: dict[str, list[str]] = {}
    all_valid = True
    for case, star_k in cases.items():
        accepted = [induce_bracket(data, check=False) for data in enumerate_tuples(action, star_k)]
        if any(verify_mla(G, bracket) for bracket in accepted):
            all_valid = False
        tuple_counts[case] = len(accepted)
        case_labels = set()
        for bracket in accepted:
            if case == "I" and bracket.is_trivial():
                continue
            case_labels.add(identify_small_group(derived_subalgebra(bracket).as_group()))
        labels[case] = sorted(case_labels)

    expected = {
        "hom_families": 4,
        "bilinear_maps": 2,
        "case_II_mla_homs": 2,
        "tuples": {"I": 8, "II": 4, "III": 8},
        "labels": {"I": ["Z2"], "II": ["Z2xZ4", "Z4"], "III": ["Z2", "Z2xZ2"]},
        "all_induced_valid": True,
        "exhausted": True,
    }
    actual = {
        "hom_families": len(homs),
        "bilinear_maps": len(bilinear),
        "case_II_mla_homs": mla_homs_ii,
        "tuples": tuple_counts,
        "labels": labels,
        "all_induced_valid": all_valid,
        "exhausted": exhausted,
    }
    return expected, actual


# -- endomorphism structures ---------------------------------------------------


def _run_end_mla(config: SearchConfig) -> tuple[dict, dict]:
    cases = {
        "Z2": make_cyclic(2),
        "Z3": make_cyclic(3),
        "Z4": make_cyclic(4),
        "Z2xZ2": direct_product(make_cyclic(2), make_cyclic(2)),
        "Z6": make_cyclic(6),
    }
    expected = {name: True for name in cases}
    actual = {}
    for name, H in cases.items():
        end_group, end_bracket = end_mla(H)
        actual[name] = not verify_mla(end_group, end_bracket)
    return expected, actual


# -- property scenarios -------------------------------------------------------


def abelian_k_cases():
    """(label, action) pairs with abelian K for the commuting-maps check."""
    z2 = make_cyclic(2)
    out = []
    for n in (3, 4, 5):
        out.append((f"Z{n}:Z2-inv", Action.by_inversion(make_cyclic(n), z2, inverting=(1,))))
        out.append((f"Z{n}:Z2-triv", Action.trivial(make_cyclic(n), z2)))
    z5 = make_cyclic(5)
    z4 = make_cyclic(4)
    # order-4 action of Z4 on Z5: 1 acts by multiplication by 2
    doubling = [[(h * pow(2, x, 5)) % 5 for h in range(5)] for x in range(4)]
    out.append(("Z5:Z4-mult2", Action.make(z5, z4, doubling)))
    v4 = direct_product(z2, z2)
    out.append(("Z3:V4-inv", Action.by_inversion(make_cyclic(3), v4, inverting=(1, 3))))
    return out


def _run_sigma_gamma_commute(config: SearchConfig) -> tuple[dict, dict]:
    expected = {}
    actual = {}
    for label, action in abelian_k_cases():
        H, K = action.H, action.K
        checked = 0
        ok = True
        res = enumerate_brackets(K, config)
        for star_k in res.items:
            for gamma in enumerate_gamma(H, K, action, star_k):
                checked += 1
                if not sigma_gamma_commute_check(action, gamma):
                    ok = False
        expected[label] = {"all_commute": True, "nonempty": True, "exhausted": True}
        actual[label] = {"all_commute": ok, "nonempty": checked > 0, "exhausted": res.exhausted}
    return expected, actual


def z4xd4_case_ii_bracket(config: SearchConfig) -> Optional[tuple[Action, LieBracket]]:
    """A bracket of case II with a nonzero Gamma, or None when the search does
    not reach case II within the budget."""
    return _case_ii_induced(z4xd4_case_brackets(config)[0].get("II"))


def _case_ii_induced(star_k: Optional[LieBracket]) -> Optional[tuple[Action, LieBracket]]:
    """The case II bracket induced from ``star_k``, None when there is none."""
    if star_k is None:
        return None
    H, K, action = z4xd4_parts()
    gammas = enumerate_mla_homs(K, star_k, H)
    gamma = next(g for g in gammas if not g.is_zero())
    data = ConstructionData.make(action, star_k, gamma, PairingMap.trivial(H, K))
    return action, induce_bracket(data)


def _run_section_independence(config: SearchConfig) -> tuple[dict, dict]:
    H, K, action = s3_pipeline_parts()
    s3 = semidirect_product(action)
    comm = commutator_bracket(s3)
    cases, exhausted = z4xd4_case_brackets(config)
    case_ii = _case_ii_induced(cases.get("II"))
    expected = {"s3-commutator": True, "z4xd4-case-ii": True, "exhausted": True}
    actual = {
        "s3-commutator": section_independence_check(action, comm),
        "z4xd4-case-ii": section_independence_check(*case_ii) if case_ii is not None else None,
        "exhausted": exhausted,
    }
    return expected, actual


def catalog() -> tuple[Scenario, ...]:
    return (
        Scenario("s3-enumeration", "bracket structures on the order-6 dihedral group", _run_s3_enumeration),
        Scenario("d4-enumeration", "bracket structures on D4 and their generator cells", _run_d4_enumeration),
        Scenario("q8-enumeration", "bracket structures on the order-8 quaternion group", _run_q8_enumeration),
        Scenario("cyclic-controls", "cyclic groups Z6 and Z10 carry only the trivial structure", _run_cyclic_controls),
        Scenario("s3-construction", "full induction pipeline on Z3 x| Z2", _run_s3_construction),
        Scenario("z3xd3-induced", "induced structures on Z3 x D3 with Z3 ideal", _run_z3xd3),
        Scenario("z5xd3-induced", "coprime product Z5 x D3 classification", _run_z5xd3),
        Scenario("z5xq8-coprime", "coprime determination on Z5 x Q8 (count-only mode)", _run_z5xq8),
        Scenario("z4xd4-cases", "case analysis of induced structures on Z4 x D4", _run_z4xd4),
        Scenario("end-mla", "endomorphism structures verify on small abelian groups", _run_end_mla),
        Scenario("sigma-gamma-commute", "action and gamma families commute for abelian K", _run_sigma_gamma_commute),
        Scenario("section-independence", "extracted maps do not depend on the section", _run_section_independence),
    )


def run_scenarios(
    names: Optional[list[str]] = None, config: Optional[SearchConfig] = None
) -> list[ScenarioOutcome]:
    config = config or SearchConfig()
    chosen = catalog()
    if names:
        known = {s.name for s in chosen}
        for n in names:
            if n not in known:
                raise ValidationError(f"unknown scenario {n!r}")
        chosen = tuple(s for s in chosen if s.name in set(names))
    outcomes = []
    for s in chosen:
        expected, actual = s.runner(config)
        outcomes.append(ScenarioOutcome(s.name, expected == actual, expected, actual))
    return outcomes
