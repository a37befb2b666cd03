import random
import tracemalloc
from itertools import product

import pytest

from mla_forge.brackets import (
    LieBracket,
    commutator_bracket,
    derived_subalgebra,
    trivial_bracket,
    verify_mla,
)
from mla_forge.construction import (
    CONDITION_EVAL_ORDER,
    Action,
    ConstructionData,
    GammaMap,
    PairingMap,
    check_gamma_identities,
    check_theorem_conditions,
    decompose_bracket,
    induce_bracket,
    section_independence_check,
    semidirect_product,
    split_factor_subgroup,
    sigma_gamma_commute_check,
)
from mla_forge.errors import (
    BoundExceededError,
    ConditionsViolatedError,
    NotIdealError,
    ReconstructionMismatchError,
    ValidationError,
)
from mla_forge import groups
from mla_forge.groups import (
    FiniteGroup,
    direct_product,
    find_generators,
    homomorphisms,
    identify_small_group,
    make_cyclic,
    make_dihedral,
    pair_index,
)
from mla_forge.search import (
    SearchConfig,
    enumerate_brackets,
    enumerate_gamma,
    enumerate_induced,
    enumerate_pairings,
    enumerate_tuples,
)

import oracle
from mla_forge import brackets, construction
from mla_forge.cli import parse_preset


def s3_action():
    H, K = make_cyclic(3), make_cyclic(2)
    return Action.by_inversion(H, K, inverting=(1,))


def gamma_mult(H, K, values):
    """Gamma family on cyclic H given as multiplication constants per K element."""
    return GammaMap.make(
        H, K, [[(m * h) % H.order for h in range(H.order)] for m in values]
    )


# -- actions ----------------------------------------------------------------


def test_action_validation_rejects_non_homomorphism():
    H, K = make_cyclic(3), make_cyclic(4)
    ident = list(range(3))
    inv = [0, 2, 1]
    # order-4 K cannot act through inversion on the generator only
    with pytest.raises(ValidationError):
        Action.make(H, K, [ident, inv, ident, ident])


@pytest.mark.parametrize("one", [1.0, True], ids=["float", "bool"])
def test_tables_with_non_integer_entries_are_rejected(one):
    # every table below is well formed once ``one`` is coerced to 1
    H, K = make_cyclic(3), make_cyclic(2)
    makes = [
        lambda: FiniteGroup.from_table("Z2", [[0, one], [one, 0]]),
        lambda: LieBracket.make(K, [[0, 0], [0, one]]),
        lambda: verify_mla(K, [[0, 0], [0, one]]),
        lambda: Action.make(H, K, [[0, 1, 2], [0, 2, one]]),
        lambda: GammaMap.make(H, K, [[0, 0, 0], [0, one, 2]]),
        lambda: PairingMap.make(H, K, [[0, 0], [0, one]]),
    ]
    for make in makes:
        with pytest.raises(ValidationError, match="not an integer"):
            make()


def test_action_checks_the_product_order_bound_before_building():
    z64 = make_cyclic(64)
    ident = [list(range(64))] * 64
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError):
            Action.make(z64, z64, ident)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_action_trivial_and_inversion():
    act = s3_action()
    assert not act.is_trivial
    assert Action.trivial(act.H, act.K).is_trivial


@pytest.mark.parametrize(
    "inverting", [(5,), (-1,), ("1",), (1.0,), (True,), 1], ids=["out-of-range", "negative", "str", "float", "bool", "not-a-list"]
)
def test_inversion_rejects_what_is_not_an_element_of_k(inverting):
    with pytest.raises(ValidationError, match="inverting"):
        Action.by_inversion(make_cyclic(3), make_cyclic(2), inverting)


def test_checking_sigma_and_gamma_rows_walks_h_once_whatever_the_order_of_k(monkeypatch):
    """The rows of an action and of a Gamma family are each checked against
    H's one walk: the steps of H are built once, not once per element of K."""
    real = groups.generator_steps
    counts = []
    for K, inverting in ((direct_product(make_cyclic(2), make_cyclic(2)), (1, 3)), (make_dihedral(4), (4, 5, 6, 7))):
        H = make_cyclic(4)
        tables = []
        monkeypatch.setattr(groups, "generator_steps", lambda cayley, *rest: tables.append(cayley) or real(cayley, *rest))
        Action.by_inversion(H, K, inverting)
        GammaMap.make(H, K, [[0] * 4] + [[(2 * h) % 4 for h in range(4)]] * (K.order - 1))
        monkeypatch.undo()
        counts.append(sum(t is H.cayley for t in tables))
    assert counts[1] == counts[0] <= 1


# -- gamma identities ----------------------------------------------------------


def test_gamma_trivial_family_passes():
    act = s3_action()
    assert check_gamma_identities(act, GammaMap.zero(act.H, act.K), trivial_bracket(act.K)) == []


def test_gamma_identity_family_catalog_for_s3():
    # with the inverting action every multiplication family passes both
    # identities; the identity-map and inversion families are the two nonzero ones
    act = s3_action()
    star_k = trivial_bracket(act.K)
    for m in (0, 1, 2):
        fam = gamma_mult(act.H, act.K, (0, m))
        assert check_gamma_identities(act, fam, star_k) == [], m


@pytest.mark.parametrize("cap", [0, -5, 2.5, True, False, "16", None])
def test_gamma_violation_cap_must_be_a_positive_int(cap):
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.trivial(H, K)
    with pytest.raises(ValidationError, match="max_violations"):
        check_gamma_identities(act, GammaMap.zero(H, K), trivial_bracket(K), max_violations=cap)


def test_gamma_inversion_fails_for_trivial_action():
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.trivial(H, K)
    fam = gamma_mult(H, K, (0, 2))  # inversion at the nonidentity element
    viol = check_gamma_identities(act, fam, trivial_bracket(K))
    assert viol
    assert viol[0].identity == "G1"
    assert viol[0].witness == (1, 1, 1)


def test_gamma_identities_reject_a_family_indexed_by_another_k():
    H = make_cyclic(3)
    act = Action.trivial(H, make_cyclic(2))
    with pytest.raises(ValidationError, match="do not match the action"):
        check_gamma_identities(act, GammaMap.zero(H, make_dihedral(3)), trivial_bracket(act.K))


# -- theorem conditions -----------------------------------------------------------


def test_all_trivial_data_passes():
    act = s3_action()
    report = check_theorem_conditions(ConstructionData.all_trivial(act))
    assert report.passed


def test_s3_nontrivial_data_passes_and_induces_commutator():
    act = s3_action()
    star_k = trivial_bracket(act.K)
    fam = gamma_mult(act.H, act.K, (0, 1))
    data = ConstructionData.make(act, star_k, fam, PairingMap.trivial(act.H, act.K))
    assert check_theorem_conditions(data).passed
    bracket = induce_bracket(data)
    G = semidirect_product(act)
    assert verify_mla(G, bracket) == []
    assert bracket.star == commutator_bracket(G).star
    assert derived_subalgebra(bracket).order == 3


def test_condition_failure_reports_witness():
    # an order-3 value on a pairing cell breaks bilinearity in K = Z2
    H, K = make_cyclic(3), make_cyclic(2)
    act = Action.trivial(H, K)
    beta = PairingMap.make(H, K, [[0, 1], [1, 0]])
    data = ConstructionData.make(act, trivial_bracket(K), GammaMap.zero(H, K), beta)
    report = check_theorem_conditions(data)
    assert not report.passed
    name, status = report.first_failure()
    assert status.witness is not None
    with pytest.raises(ConditionsViolatedError):
        induce_bracket(data)


def gamma_from_generator_images(action, images):
    """The family with Gamma_g = images[i] on the i-th generator g of K,
    extended by Gamma_{x g} = Gamma_x . sigma_x Gamma_g."""
    H, K = action.H, action.K
    gamma = {K.identity: (H.identity,) * H.order}
    frontier = [K.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(find_generators(K), images):
                y = K.cayley[x][g]
                if y not in gamma:
                    gamma[y] = tuple(H.cayley[gamma[x][h]][action.sigma[x][img[h]]] for h in range(H.order))
                    nxt.append(y)
        frontier = nxt
    return GammaMap.make(H, K, [gamma[x] for x in range(K.order)])


def oracle_catalog():
    """Construction data on six split products for the condition oracle.

    Gamma is zero or built from generator images; beta vanishes on the border
    and the diagonal and is trivial or random. On D4, beta is instead a
    function of the images in the abelianization D4 -> V4, which keeps it
    invariant under conjugation but not bilinear: random, or phi_y(x) with
    each phi_v a homomorphism V4 -> Z4 but v -> phi_v not one, so that it is
    linear in x only. On V4 x D3 the listed generator images make the A4
    scan of brackets meet a violation before the first one in the documented
    order (x, y, z, h, k, l).
    """
    rng = random.Random(2305)
    z = make_cyclic
    v4 = direct_product(z(2), z(2))
    d4 = make_dihedral(4)
    products = [
        (Action.trivial(z(4), d4), None),
        (Action.by_inversion(z(3), make_dihedral(3), (3, 4, 5)), None),
        (Action.by_inversion(z(8), z(2), (1,)), None),
        (Action.make(z(5), z(4), [[(pow(2, x, 5) * h) % 5 for h in range(5)] for x in range(4)]), None),
        (Action.make(v4, z(2), [[0, 1, 2, 3], [0, 2, 1, 3]]), None),
        (Action.trivial(v4, make_dihedral(3)), [((0, 1, 3, 2), (0, 2, 2, 0))]),
    ]
    out = []
    for act, images in products:
        H, K = act.H, act.K
        stars = [trivial_bracket(K)] + ([] if K.is_abelian else [commutator_bracket(K)])
        if images is None:
            endos = homomorphisms(H, H)
            n_gens = len(find_generators(K))
            images = [[endos[(i + j) % len(endos)] for j in range(n_gens)] for i in (1, len(endos) - 1)]
        gammas = [GammaMap.zero(H, K)] + [gamma_from_generator_images(act, imgs) for imgs in images]

        def vanishing(f):
            return PairingMap.make(
                H, K, [[H.identity if K.identity in (x, y) or x == y else f(x, y) for y in range(K.order)]
                       for x in range(K.order)]
            )

        betas = [PairingMap.trivial(H, K)]
        if K is d4:
            ab = [x % 2 + 2 * (x // 4) for x in range(K.order)]  # b^i a^j -> (i mod 2, j)
            f = {(u, v): rng.randrange(H.order) for u in range(4) for v in range(4)}
            phi = {1: (0, 0, 2, 2), 2: (0, 0, 0, 0), 3: (0, 2, 2, 0)}  # phi[v][u]; phi[3] != phi[1] + phi[2]
            betas.append(vanishing(lambda x, y: f[ab[x], ab[y]]))
            betas.append(vanishing(lambda x, y: phi[ab[y]][ab[x]] if ab[y] else H.identity))
            gammas = gammas[:2]  # order 32, where the oracle scan is slowest
        else:
            betas.append(vanishing(lambda x, y: rng.randrange(H.order)))
        for star, gamma, beta in product(stars, gammas, betas):
            out.append(ConstructionData.make(act, star, gamma, beta))
    return out


def test_condition_reports_match_oracle():
    failing_alone = set()  # conditions among C3..C6 seen failing while C1 and C2 pass
    for data in oracle_catalog():
        expected = oracle.condition_witnesses(
            data.H, data.K, data.action.sigma, data.star_k.star, data.gamma.gamma, data.beta.beta
        )
        report = check_theorem_conditions(data)
        assert {name: st.witness for name, st in report.statuses} == expected
        assert all(st.passed is (st.witness is None) for _, st in report.statuses)
        if expected["C1"] is None and expected["C2"] is None:
            failing_alone |= {name for name in ("C3", "C4", "C5", "C6") if expected[name] is not None}
    assert failing_alone == {"C3", "C4", "C5", "C6"}


def test_first_failure_follows_evaluation_order():
    first_failures = set()
    for data in oracle_catalog():
        report = check_theorem_conditions(data)
        failing = [name for name in CONDITION_EVAL_ORDER if not report.status(name).passed]
        if failing:
            assert report.first_failure() == (failing[0], report.status(failing[0]))
            first_failures.add(failing[0])
        else:
            assert report.first_failure() is None and report.passed
    assert {"C2", "C6", "C3", "C4"} <= first_failures


def test_smallest_tuple_failing_c3_to_c6():
    """Z3 x| V4 with elements 1 and 2 inverting, star_K(1, 2) = 1 and Gamma,
    beta zero passes C1 and C2 and fails each of C3-C6; its first failure
    is C6, the first of them in evaluation order. The C6 witness is
    conjugation by (1, 0), an element of H."""
    H, K = make_cyclic(3), direct_product(make_cyclic(2), make_cyclic(2))
    act = Action.by_inversion(H, K, inverting=(1, 2))
    star_k = LieBracket.make(K, [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]])
    data = ConstructionData.make(act, star_k, GammaMap.zero(H, K), PairingMap.trivial(H, K))
    witnesses = {
        "C1": None,
        "C2": None,
        "C3": (1, 0, 2, 0, 1, 0),
        "C4": (1, 1, 2, 1, 0, 0),
        "C5": (1, 2, 2, 0, 1, 0),
        "C6": (1, 3, 0, 0, 0, 1),
    }
    full = check_theorem_conditions(data)
    assert {name: st.witness for name, st in full.statuses} == witnesses
    assert witnesses == oracle.condition_witnesses(H, K, act.sigma, star_k.star, data.gamma.gamma, data.beta.beta)
    assert full.first_failure() == ("C6", full.status("C6"))


def test_skipped_full_scans_leave_reports_and_violations_unchanged(monkeypatch):
    """verify_mla and the C1-C6 report skip the full scan of A2, A3 or A5
    when its reduced scan passes. On the 32 tuples of Z8 x| D4 (reflections
    4-7 inverting) that ``enumerate_tuples`` rejects, which fail C6 alone,
    both are the same as with every full scan run."""
    H, K = make_cyclic(8), make_dihedral(4)
    act = Action.by_inversion(H, K, (4, 5, 6, 7))
    failing = []
    for star_k in enumerate_brackets(K).items:
        kept = enumerate_tuples(act, star_k)
        for gamma in enumerate_gamma(H, K, act, star_k):
            failing += [
                data
                for beta in enumerate_pairings(H, K, act, star_k)
                if (data := ConstructionData(act, star_k, gamma, beta)) not in kept
            ]
    assert len(failing) == 32
    G = act.product_group
    skipping = [(verify_mla(G, d.induced_table), check_theorem_conditions(d)) for d in failing]

    def full_scan(group, table, axiom, reduced, full):
        return brackets.AXIOM_SCANS[axiom](group, table, full[axiom])

    monkeypatch.setattr(brackets, "_violations", full_scan)
    monkeypatch.setattr(construction, "_violations", full_scan)
    scanning = [(verify_mla(G, d.induced_table), check_theorem_conditions(d)) for d in failing]
    assert skipping == scanning
    for violations, report in skipping:
        assert {v.axiom for v in violations} == {"A5"}
        assert [name for name, st in report.statuses if not st.passed] == ["C6"]


# -- direct specialization ----------------------------------------------------------


def direct_catalog():
    """(action, star_k, gamma, beta) tuples with the trivial action, mixing
    accepted and rejected data."""
    out = []
    z4, d4 = make_cyclic(4), make_dihedral(4)
    act = Action.trivial(z4, d4)
    stars = enumerate_brackets(d4, SearchConfig()).items
    betas = enumerate_pairings(z4, d4, Action.trivial(z4, d4), trivial_bracket(d4))
    gammas = [gamma_mult(z4, d4, vals) for vals in (
        (0,) * 8,
        (0, 0, 0, 0, 2, 2, 2, 2),  # gamma_a = 2, gamma_b = 0
        (0, 2, 0, 2, 0, 2, 0, 2),  # gamma_b = 2, gamma_a = 0
        (0, 2, 0, 2, 2, 0, 2, 0),  # both 2
    )]
    for star in stars[:3]:
        for gamma in gammas:
            for beta in betas:
                out.append((act, star, gamma, beta))
    z3, z2 = make_cyclic(3), make_cyclic(2)
    act2 = Action.trivial(z3, z2)
    for m in (0, 1, 2):
        out.append((act2, trivial_bracket(z2), gamma_mult(z3, z2, (0, m)), PairingMap.trivial(z3, z2)))
    # tuples that fail one condition only: a bilinear beta off the diagonal
    # (C1), and on V4 = Z2 x Z2 a beta linear in one argument only (C3, C4)
    z2xz2 = Action.trivial(z2, z2)
    out.append((z2xz2, trivial_bracket(z2), GammaMap.zero(z2, z2), PairingMap.make(z2, z2, [[0, 0], [0, 1]])))
    v4 = direct_product(z2, z2)
    act3 = Action.trivial(z2, v4)
    one_sided = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0]]
    for beta in (one_sided, [list(col) for col in zip(*one_sided)]):
        out.append((act3, trivial_bracket(v4), GammaMap.zero(z2, v4), PairingMap.make(z2, v4, beta)))
    return out


def test_direct_conditions_match_general_checker():
    accepted = rejected = 0
    for act, star, gamma, beta in direct_catalog():
        data = ConstructionData.make(act, star, gamma, beta)
        direct = oracle.direct_conditions_hold(act.H, act.K, star.star, gamma.gamma, beta.beta)
        assert direct == check_theorem_conditions(data).passed, (star.star, gamma.gamma, beta.beta)
        if direct:
            accepted += 1
            expected = oracle.direct_induced_table(act.H, act.K, star.star, gamma.gamma, beta.beta)
            assert induce_bracket(data, check=False).star == expected
        else:
            rejected += 1
    assert accepted >= 5 and rejected >= 1  # the comparison exercises both outcomes


def test_dn_lift_bracket_is_pure_k_component():
    # gamma zero, beta trivial: (h,x)*(k,y) = (identity, x*y)
    z3, d3 = make_cyclic(3), make_dihedral(3)
    act = Action.trivial(z3, d3)
    star_k = commutator_bracket(d3)
    data = ConstructionData.make(act, star_k, GammaMap.zero(z3, d3), PairingMap.trivial(z3, d3))
    bracket = induce_bracket(data)
    nH = 3
    for x, y in product(range(d3.order), repeat=2):
        v = bracket.star[nH * x][nH * y]
        assert v % nH == 0
        assert v // nH == star_k.star[x][y]


def test_z4xd4_case_i_nontrivial_beta_bracket():
    z4, d4 = make_cyclic(4), make_dihedral(4)
    act = Action.trivial(z4, d4)
    betas = enumerate_pairings(z4, d4, Action.trivial(z4, d4), trivial_bracket(d4))
    beta = next(b for b in betas if not b.is_trivial())
    assert beta.beta[4][1] == 2  # the nontrivial map has value 2 at (a, b)
    data = ConstructionData.make(act, trivial_bracket(d4), GammaMap.zero(z4, d4), beta)
    bracket = induce_bracket(data)
    G = semidirect_product(act)
    assert verify_mla(G, bracket) == []
    assert identify_small_group(derived_subalgebra(bracket).as_group()) == "Z2"


def test_direct_conditions_reject_non_mla_hom():
    # gamma_b = 2 with the bracket a*b = b on D4: the bracket-compatibility
    # half of C2 fails because gamma must vanish on bracket values
    z4, d4 = make_cyclic(4), make_dihedral(4)
    act = Action.trivial(z4, d4)
    star_b = next(
        br for br in enumerate_brackets(d4, SearchConfig()).items if br.star[4][1] == 1
    )
    gamma = gamma_mult(z4, d4, (0, 2, 0, 2, 0, 2, 0, 2))
    data = ConstructionData.make(act, star_b, gamma, PairingMap.trivial(z4, d4))
    report = check_theorem_conditions(data)
    assert report.status("C2").passed is False


# -- decompose ---------------------------------------------------------------------


def test_decompose_trivial_bracket():
    act = s3_action()
    G = semidirect_product(act)
    data = decompose_bracket(act, trivial_bracket(G))
    assert data.star_k.is_trivial()
    assert data.gamma.is_zero()
    assert data.beta.is_trivial()


def test_decompose_commutator_s3():
    act = s3_action()
    G = semidirect_product(act)
    data = decompose_bracket(act, commutator_bracket(G))
    assert data.star_k.is_trivial()
    assert data.beta.is_trivial()
    # the extracted family is the identity-map family h -> h
    assert data.gamma.gamma[1] == (0, 1, 2)
    assert data.induced_table == commutator_bracket(G).star


def test_decompose_rejects_non_ideal():
    # on Z2 x Z2 the bracket x*y = (x wedge y) v with v outside H makes H a
    # non-ideal: bracketing H against the other factor leaves H
    z2 = make_cyclic(2)
    G = direct_product(z2, z2)
    act = Action.trivial(z2, z2)
    star = [[0] * 4 for _ in range(4)]
    star[1][2] = star[2][1] = 2  # 1 = H generator, 2 = K generator, value in K
    star[1][3] = star[3][1] = 2
    star[2][3] = star[3][2] = 2
    assert verify_mla(G, star) == []
    from mla_forge.brackets import LieBracket

    with pytest.raises(NotIdealError):
        decompose_bracket(act, LieBracket.make(G, star))


def test_decompose_rejects_bracket_nontrivial_on_h():
    # K trivial, H = Z2 x Z2 carrying a nonzero alternating bracket: H is an
    # ideal but the structure is outside the split parametrization
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    z1 = make_cyclic(1)
    act = Action.trivial(v4, z1)
    G = semidirect_product(act)
    star = [[0] * 4 for _ in range(4)]
    star[1][2] = star[2][1] = 1
    star[1][3] = star[3][1] = 1
    star[2][3] = star[3][2] = 1
    assert verify_mla(G, star) == []
    from mla_forge.brackets import LieBracket

    with pytest.raises(ReconstructionMismatchError):
        decompose_bracket(act, LieBracket.make(G, star))


def test_decompose_roundtrip_over_enumerated_tuples():
    z4, d4 = make_cyclic(4), make_dihedral(4)
    act = Action.trivial(z4, d4)
    checked = 0
    for star_k in enumerate_brackets(d4, SearchConfig()).items:
        gammas = enumerate_gamma(z4, d4, act, star_k)
        betas = enumerate_pairings(z4, d4, act, star_k)
        for gamma in gammas:
            for beta in betas:
                data = ConstructionData.make(act, star_k, gamma, beta)
                if not check_theorem_conditions(data).passed:
                    continue
                bracket = induce_bracket(data, check=False)
                back = decompose_bracket(act, bracket)
                assert back.star_k.star == star_k.star
                assert back.gamma.gamma == gamma.gamma
                assert back.beta.beta == beta.beta
                checked += 1
    assert checked >= 16


DECOMPOSE_CATALOG = [
    ("Z2", "Z2"), ("Z3", "Z2"), ("Z4", "Z2"), ("Z2xZ2", "Z2"), ("Z5", "Z2"), ("Z6", "Z2"),
    ("Z7", "Z2"), ("Z8", "Z2"), ("Z3", "Z4"), ("Z2", "Z4"), ("Z4", "Z4"), ("Z2", "D3"),
    ("Z2", "D4"), ("Z2", "Q8"), ("Z4", "Z2xZ2"), ("Z3", "Z2xZ2"), ("Z2xZ2", "Z4"), ("Z2xZ2", "Z3"),
]


def test_decomposed_data_passes_every_condition():
    """decompose_bracket checks only the round trip; the data it returns
    passes the full C1-C6 report on every bracket with H as an ideal on
    these products of order <= 16, under the trivial action and inversion
    outside the kernel of a homomorphism K -> Z2. The only rejections are
    brackets nontrivial on H."""
    decomposed = rejected = 0
    for h_spec, k_spec in DECOMPOSE_CATALOG:
        H, K = parse_preset(h_spec), parse_preset(k_spec)
        actions = [Action.trivial(H, K)]
        hom = next((h for h in homomorphisms(K, make_cyclic(2)) if any(h)), None)
        if hom is not None:
            actions.append(Action.by_inversion(H, K, [x for x in range(K.order) if hom[x]]))
        for action in actions:
            G = action.product_group
            ideal = split_factor_subgroup(action, G)
            for bracket in enumerate_brackets(G, SearchConfig(max_group_order=16, require_ideal=ideal)).items:
                try:
                    data = decompose_bracket(action, bracket)
                except ReconstructionMismatchError as exc:
                    assert "nontrivial on H" in str(exc)
                    rejected += 1
                    continue
                assert data.induced_table == bracket.star
                report = check_theorem_conditions(data)
                assert report.passed, (G.name, bracket.star)
                decomposed += 1
    assert (decomposed, rejected) == (273, 51)


# -- sections and the commuting property ---------------------------------------------


def test_section_independence_s3():
    act = s3_action()
    G = semidirect_product(act)
    assert section_independence_check(act, commutator_bracket(G))


def test_section_independence_direct_trivial():
    z3, z2 = make_cyclic(3), make_cyclic(2)
    act = Action.trivial(z3, z2)
    G = semidirect_product(act)
    assert section_independence_check(act, trivial_bracket(G))


def test_section_independence_matches_the_section_loop():
    """On the induced, trivial and commutator brackets of seven products, and
    on copies with 1-3 cells of the columns of H changed, the check over lifts
    agrees with the loop over every section."""
    z2, z3, z4 = make_cyclic(2), make_cyclic(3), make_cyclic(4)
    v4 = direct_product(z2, z2)
    actions = [
        s3_action(),
        Action.trivial(z3, z2),
        Action.by_inversion(z4, z2, inverting=(1,)),
        Action.by_inversion(z3, v4, inverting=(1, 2)),
        Action.trivial(z2, make_dihedral(3)),
        Action.trivial(z4, v4),
        Action.make(v4, z2, [[0, 1, 2, 3], [0, 2, 1, 3]]),  # coordinate swap
    ]
    rng = random.Random(12)
    outcomes = []
    for act in actions:
        G = act.product_group
        nH = act.H.order
        h_columns = [k + nH * act.K.identity for k in range(nH)]
        induced = enumerate_induced(act.H, act.K, act).items[-1]
        for base in (induced, trivial_bracket(G), commutator_bracket(G)):
            tables = [base.star]
            for _ in range(15):
                rows = [list(r) for r in base.star]
                for _ in range(rng.randint(1, 3)):
                    r, c = rng.randrange(G.order), rng.choice(h_columns)
                    rows[r][c] = rng.choice([v for v in range(G.order) if v != rows[r][c]])
                tables.append(tuple(tuple(r) for r in rows))
            for table in tables:
                bracket = LieBracket(G, table)
                expected = oracle.section_scan_independence(act, bracket)
                assert section_independence_check(act, bracket) == expected
                outcomes.append(expected)
    assert len(outcomes) >= 300
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


@pytest.mark.parametrize("n", [8, 5], ids=["Z8xD4", "Z5xD5"])
def test_section_independence_past_the_section_loop(n):
    """8^7 and 5^9 sections: the loop over them takes tens of seconds."""
    H, K = make_cyclic(n), make_dihedral(4 if n == 8 else 5)
    act = Action.trivial(H, K)
    star_k = trivial_bracket(K)
    gamma = enumerate_gamma(H, K, act, star_k)[-1]
    data = ConstructionData.make(act, star_k, gamma, PairingMap.trivial(H, K))
    bracket = induce_bracket(data, check=False)
    assert section_independence_check(act, bracket)
    nH, eK = H.order, K.identity
    last = nH * K.order - 1  # the lift (h, x) with the largest h and x
    column = pair_index(1, eK, nH)
    rows = [list(r) for r in bracket.star]
    rows[last][column] = pair_index((rows[last][column] + 1) % nH, eK, nH)
    assert not section_independence_check(act, LieBracket(bracket.group, rows))


def test_sigma_gamma_commute_trivial_action():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    act = Action.trivial(z4, z2)
    assert sigma_gamma_commute_check(act, gamma_mult(z4, z2, (0, 2)))


def test_sigma_gamma_commute_s3_case():
    act = s3_action()
    assert sigma_gamma_commute_check(act, gamma_mult(act.H, act.K, (0, 2)))


def test_sigma_gamma_commute_detects_noncommuting_pair():
    # H = Z2 x Z2 with K = Z2 acting by the coordinate swap; the projection
    # endomorphism does not commute with the swap, so the check is not vacuous
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    z2 = make_cyclic(2)
    swap = [0, 2, 1, 3]
    act = Action.make(v4, z2, [list(range(4)), swap])
    projection = [0, 1, 0, 1]  # kill the second coordinate
    gamma = GammaMap.make(v4, z2, [[0, 0, 0, 0], projection])
    assert not sigma_gamma_commute_check(act, gamma)


def test_sigma_gamma_commute_requires_abelian_k():
    z4, d3 = make_cyclic(4), make_dihedral(3)
    act = Action.trivial(z4, d3)
    with pytest.raises(ValidationError):
        sigma_gamma_commute_check(act, GammaMap.zero(z4, d3))


def test_sigma_gamma_commute_rejects_a_family_of_another_action():
    z2, z3 = make_cyclic(2), make_cyclic(3)
    act = Action.trivial(z3, direct_product(z2, z2))
    with pytest.raises(ValidationError, match="does not match the action"):
        sigma_gamma_commute_check(act, GammaMap.zero(z3, z2))


# -- pairing enumeration ---------------------------------------------------------------


def test_bilinear_pairings_d4_to_z3_only_trivial():
    d4, z3 = make_dihedral(4), make_cyclic(3)
    maps = enumerate_pairings(z3, d4, Action.trivial(z3, d4), trivial_bracket(d4))
    assert len(maps) == 1
    assert maps[0].is_trivial()


def test_bilinear_pairings_d4_to_z4_exactly_two():
    d4, z4 = make_dihedral(4), make_cyclic(4)
    maps = enumerate_pairings(z4, d4, Action.trivial(z4, d4), trivial_bracket(d4))
    assert len(maps) == 2
    nontrivial = [m for m in maps if not m.is_trivial()]
    assert len(nontrivial) == 1
    assert nontrivial[0].beta[4][1] == 2


def test_bilinear_pairings_d5_to_z5_only_trivial():
    d5, z5 = make_dihedral(5), make_cyclic(5)
    maps = enumerate_pairings(z5, d5, Action.trivial(z5, d5), trivial_bracket(d5))
    assert len(maps) == 1 and maps[0].is_trivial()


def test_pairings_forced_for_z2():
    z5, z2 = make_cyclic(5), make_cyclic(2)
    maps = enumerate_pairings(z5, z2, Action.trivial(z5, z2), trivial_bracket(z2))
    assert len(maps) == 1 and maps[0].is_trivial()


def test_pairings_general_action_s3_case():
    act = s3_action()
    maps = enumerate_pairings(act.H, act.K, act, trivial_bracket(act.K))
    assert len(maps) == 1 and maps[0].is_trivial()


def test_pairing_normalization_flag():
    z4, d4 = make_cyclic(4), make_dihedral(4)
    for m in enumerate_pairings(z4, d4, Action.trivial(z4, d4), trivial_bracket(d4)):
        assert m.is_normalized


def test_induced_table_is_built_once_per_tuple():
    act = s3_action()
    fam = gamma_mult(act.H, act.K, (0, 1))
    data = ConstructionData.make(act, trivial_bracket(act.K), fam, PairingMap.trivial(act.H, act.K))
    assert check_theorem_conditions(data).passed
    table = data.induced_table
    assert data.induced_table is table
    assert induce_bracket(data).star is table
