"""Bracket induction on split products H x| K.

Given an action of K on an abelian H, a verified bracket on K, a family of
endomorphisms Gamma_x of H indexed by K, and a pairing table beta on K x K
with values in H, the induced candidate bracket on the product is

    (h, x) * (k, y) = (h k Gamma_x(k) sigma_{x*y}(h^-1 k^-1 Gamma_y(h^-1))
                       beta(x, y),  x * y)

Six conditions C1..C6 characterize when this is a valid structure. C1 and C2
are statements about beta and Gamma, checked on the maps. C3..C6 are bracket
axioms (see brackets) of the induced table on the product group; with
A = (h,x), B = (k,y) and C = (l,z):

    C3 = A3   (A B) * C  =  ^A(B*C) . (A*C)
    C4 = A2   A * (B C)  =  (A*B) . ^B(A*C)
    C5 = A4   ((A*B) * ^B C) ((B*C) * ^C A) ((C*A) * ^A B) = 1
    C6 = A5   ^C(A*B)    =  ^C A * ^C B

A failing C3..C6 is reported with the first failing (x, y, z, h, k, l) in
that loop order, x outermost. The product encodes (h, x) as h + |H| x, so the
axiom scan runs in the order (x, h, y, k, z, l) instead; the witness is the
smallest failing triple under the documented key. C3..C6 all hold when the
one bracket decision, ``brackets._is_mla``, passes the induced table;
otherwise each takes its verdict and witness from its axiom's full scan,
which C3, C4 and C6 skip when their axiom's exact reduced scan passes
(``brackets._violations``). A
report always holds all six conditions; its first failure is taken in the
order C1, C2, C6, C3, C4, C5, which is the condition ``induce_bracket``'s
error names.

This module checks and builds; it enumerates nothing. The Gamma families
and pairing tables to try are listed by ``search.enumerate_gamma`` and
``search.enumerate_pairings``; ``search.enumerate_tuples`` keeps a tuple by
the same bracket decision on its induced table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Optional, Sequence

from .brackets import (
    DEFAULT_VIOLATION_CAP,
    LieBracket,
    MlaViolation,
    _full_ranges,
    _is_mla,
    _reduced_ranges,
    _violations,
    check_violation_cap,
    is_ideal,
    trivial_bracket,
    verify_mla,
)
from .errors import (
    ConditionsViolatedError,
    NotIdealError,
    ReconstructionMismatchError,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    _is_homomorphism,
    _pair_product,
    int_row,
    int_table,
    pair_index,
    validate_action_tables,
)

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6")
CONDITION_EVAL_ORDER = ("C1", "C2", "C6", "C3", "C4", "C5")  # first_failure's order
CONDITION_AXIOMS = {"C3": "A3", "C4": "A2", "C5": "A4", "C6": "A5"}


@dataclass(frozen=True)
class Action:
    """A homomorphism K -> Aut(H) as per-element permutation tables."""

    H: FiniteGroup
    K: FiniteGroup
    sigma: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, H: FiniteGroup, K: FiniteGroup, sigma: Sequence[Sequence[int]]) -> "Action":
        return cls(H, K, validate_action_tables(H, K, sigma))

    @classmethod
    def trivial(cls, H: FiniteGroup, K: FiniteGroup) -> "Action":
        row = tuple(range(H.order))
        return cls.make(H, K, (row,) * K.order)

    @classmethod
    def by_inversion(cls, H: FiniteGroup, K: FiniteGroup, inverting: Sequence[int]) -> "Action":
        """Elements listed in ``inverting`` act by h -> h^-1, the rest trivially."""
        ident = tuple(range(H.order))
        flipped = set(int_row(inverting, "inverting", K.order))
        return cls.make(H, K, tuple(H.inverse if x in flipped else ident for x in range(K.order)))

    @property
    def is_trivial(self) -> bool:
        ident = tuple(range(self.H.order))
        return all(row == ident for row in self.sigma)

    @cached_property
    def product_group(self) -> FiniteGroup:
        """H x| K, built once per action from the tables ``make`` checked."""
        return _pair_product(self.H, self.K, self.sigma, f"{self.H.name}:{self.K.name}")


def semidirect_product(action: Action) -> FiniteGroup:
    """The action's product group H x| K, built once per action."""
    return action.product_group


@dataclass(frozen=True)
class GammaMap:
    """A family of endomorphisms of H indexed by the elements of K."""

    H: FiniteGroup
    K: FiniteGroup
    gamma: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, H: FiniteGroup, K: FiniteGroup, gamma: Sequence[Sequence[int]]) -> "GammaMap":
        rows = int_table(gamma, "gamma", (K.order, H.order), H.order)
        for x, row in enumerate(rows):
            if not _is_homomorphism(H, H, row):
                raise ValidationError(f"gamma table for element {x} is not an endomorphism of H")
        if rows[K.identity] != (H.identity,) * H.order:
            raise ValidationError("gamma at the identity of K must be the zero endomorphism")
        return cls(H, K, rows)

    @classmethod
    def zero(cls, H: FiniteGroup, K: FiniteGroup) -> "GammaMap":
        row = (H.identity,) * H.order
        return cls(H, K, (row,) * K.order)

    def is_zero(self) -> bool:
        e = self.H.identity
        return all(v == e for row in self.gamma for v in row)


@dataclass(frozen=True)
class PairingMap:
    """A table K x K -> H; valid instances vanish on the border and diagonal."""

    H: FiniteGroup
    K: FiniteGroup
    beta: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, H: FiniteGroup, K: FiniteGroup, beta: Sequence[Sequence[int]]) -> "PairingMap":
        return cls(H, K, int_table(beta, "beta", (K.order, K.order), H.order))

    @classmethod
    def trivial(cls, H: FiniteGroup, K: FiniteGroup) -> "PairingMap":
        row = (H.identity,) * K.order
        return cls(H, K, (row,) * K.order)

    def is_trivial(self) -> bool:
        e = self.H.identity
        return all(v == e for row in self.beta for v in row)

    @property
    def is_normalized(self) -> bool:
        return _c1_failure(self.beta, self.H.identity, self.K.identity) is None


def _c1_failure(beta: Sequence[Sequence[int]], eH: int, eK: int) -> Optional[int]:
    """C1: the first x with a non-identity beta(x, 1), beta(1, x) or beta(x, x), or None."""
    for x in range(len(beta)):
        if beta[x][eK] != eH or beta[eK][x] != eH or beta[x][x] != eH:
            return x
    return None


@dataclass(frozen=True)
class ConstructionData:
    """The full input tuple for bracket induction on H x| K."""

    action: Action
    star_k: LieBracket
    gamma: GammaMap
    beta: PairingMap

    @classmethod
    def make(
        cls, action: Action, star_k: LieBracket, gamma: GammaMap, beta: PairingMap
    ) -> "ConstructionData":
        H, K = action.H, action.K
        if star_k.group.cayley != K.cayley:
            raise ValidationError("star_k is not a bracket on K")
        for part, label in ((gamma, "gamma"), (beta, "beta")):
            if part.H.cayley != H.cayley or part.K.cayley != K.cayley:
                raise ValidationError(f"{label} does not match the action's H and K")
        if verify_mla(K, star_k):
            raise ValidationError("star_k is not a verified bracket on K")
        return cls(action, star_k, gamma, beta)

    @classmethod
    def all_trivial(cls, action: Action) -> "ConstructionData":
        return cls.make(
            action,
            trivial_bracket(action.K),
            GammaMap.zero(action.H, action.K),
            PairingMap.trivial(action.H, action.K),
        )

    @property
    def H(self) -> FiniteGroup:
        return self.action.H

    @property
    def K(self) -> FiniteGroup:
        return self.action.K

    @cached_property
    def induced_table(self) -> tuple[tuple[int, ...], ...]:
        """The induction formula evaluated on every pair, built once."""
        H, K = self.H, self.K
        nH = H.order
        mul_h, inv_h = H.cayley, H.inverse
        sig = self.action.sigma
        star_k = self.star_k.star
        g = self.gamma.gamma
        b = self.beta.beta
        size = nH * K.order
        table = [[0] * size for _ in range(size)]
        for x in range(K.order):
            gx = g[x]
            bx = b[x]
            for h in range(nH):
                row = table[pair_index(h, x, nH)]
                ih = inv_h[h]
                for y in range(K.order):
                    s = star_k[x][y]
                    sig_s = sig[s]
                    gy_ih = g[y][ih]
                    for k in range(nH):
                        t = mul_h[mul_h[h][k]][gx[k]]
                        u = mul_h[mul_h[ih][inv_h[k]]][gy_ih]
                        t = mul_h[mul_h[t][sig_s[u]]][bx[y]]
                        row[pair_index(k, y, nH)] = pair_index(t, s, nH)
        return tuple(tuple(r) for r in table)


@dataclass(frozen=True)
class GammaViolation:
    identity: str  # "G1" or "G2"
    witness: tuple[int, int, int]  # (x, y, h)
    left: int
    right: int


def check_gamma_identities(
    action: Action,
    gamma: GammaMap,
    star_k: LieBracket,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> list[GammaViolation]:
    """Exhaustive check of the two compatibility identities, over x, y in K
    and h in H:

      G1  Gamma_{x y}(h)   = Gamma_x(h) sigma_x(Gamma_y(h))
      G2  Gamma_{x*y}(sigma_y(h)) = Gamma_x(Gamma_y(h)) Gamma_{x y x^-1}(Gamma_x(h^-1))

    Empty list = pass; this is exactly condition C2. ``max_violations`` must
    be an int >= 1.
    """
    check_violation_cap(max_violations)
    H, K = action.H, action.K
    if gamma.H.cayley != H.cayley or gamma.K.cayley != K.cayley or star_k.group.cayley != K.cayley:
        raise ValidationError("gamma/star_k do not match the action")
    mul_h, inv_h = H.cayley, H.inverse
    mul_k = K.cayley
    conj_k = K.conj_table
    g = gamma.gamma
    sig = action.sigma
    star = star_k.star
    out: list[GammaViolation] = []
    for x, y, h in product(range(K.order), range(K.order), range(H.order)):
        lhs = g[mul_k[x][y]][h]
        rhs = mul_h[g[x][h]][sig[x][g[y][h]]]
        if lhs != rhs:
            out.append(GammaViolation("G1", (x, y, h), lhs, rhs))
            if len(out) >= max_violations:
                return out
    for x, y, h in product(range(K.order), range(K.order), range(H.order)):
        lhs = g[star[x][y]][sig[y][h]]
        rhs = mul_h[g[x][g[y][h]]][g[conj_k[x][y]][g[x][inv_h[h]]]]
        if lhs != rhs:
            out.append(GammaViolation("G2", (x, y, h), lhs, rhs))
            if len(out) >= max_violations:
                return out
    return out


@dataclass(frozen=True)
class ConditionStatus:
    passed: bool
    witness: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition outcome for C1..C6."""

    statuses: tuple[tuple[str, ConditionStatus], ...]

    def status(self, name: str) -> ConditionStatus:
        for key, st in self.statuses:
            if key == name:
                return st
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(st.passed for _, st in self.statuses)

    def first_failure(self) -> Optional[tuple[str, ConditionStatus]]:
        """The first failing condition in CONDITION_EVAL_ORDER, or None."""
        for name in CONDITION_EVAL_ORDER:
            st = self.status(name)
            if not st.passed:
                return name, st
        return None


def check_theorem_conditions(data: ConstructionData) -> ConditionReport:
    """Evaluate all of C1..C6 exhaustively.

    C1 and C2 are checked on the maps. C3..C6 are A3, A2, A4 and A5 of the
    induced table: when ``brackets._is_mla`` passes it, all four hold;
    otherwise each takes its verdict and witness from its axiom's full scan
    (``brackets._violations``: none for an axiom other than A4 whose
    reduced scan passes).
    Witnesses are the first failing tuples in loop order: (x,) for C1,
    (x, y, h) for C2 and (x, y, z, h, k, l) for C3..C6.
    For the trivial action C3, C4 and C6 reduce to bilinearity and conjugation
    invariance of beta; tests/oracle.py (direct_conditions_hold) transcribes
    that simplified form as a cross-check.
    """
    table, group = data.induced_table, data.action.product_group
    reduced = _reduced_ranges(group)
    passed = _is_mla(group, table, reduced)
    c1 = _c1_failure(data.beta.beta, data.H.identity, data.K.identity)
    c2 = check_gamma_identities(data.action, data.gamma, data.star_k, max_violations=1)
    witnesses = {"C1": None if c1 is None else (c1,), "C2": c2[0].witness if c2 else None}
    full = _full_ranges(group)
    for name, axiom in CONDITION_AXIOMS.items():
        violations = () if passed else _violations(group, table, axiom, reduced, full)
        witnesses[name] = _axiom_witness(data.H.order, violations)
    return ConditionReport(
        tuple((name, ConditionStatus(witnesses[name] is None, witnesses[name])) for name in CONDITION_NAMES)
    )


def _axiom_witness(nH: int, violations: Iterable[MlaViolation]) -> Optional[tuple[int, ...]]:
    """The first (x, y, z, h, k, l) among an axiom's violations on the
    induced table, or None.

    The full scan runs over (A, B, C) with A = h + |H| x outermost, so its
    first violation fixes x; the smallest witness lies among the violations
    with that x, and the scan stops at the first one beyond it.
    """
    best: Optional[tuple[int, ...]] = None
    for v in violations:
        a, b, c = v.witness
        if best is not None and a // nH != best[0]:
            break
        witness = (a // nH, b // nH, c // nH, a % nH, b % nH, c % nH)
        if best is None or witness < best:
            best = witness
    return best


def induce_bracket(data: ConstructionData, check: bool = True) -> LieBracket:
    """Build the induced bracket; raises ConditionsViolatedError when the data
    fails the conditions (the report is attached to the error)."""
    if check:
        report = check_theorem_conditions(data)
        if not report.passed:
            raise ConditionsViolatedError(report)
    return LieBracket(data.action.product_group, data.induced_table)


def split_factor_subgroup(action: Action, group: FiniteGroup) -> Subgroup:
    """The embedded copy of H inside the pair-encoded product."""
    nH = action.H.order
    members = tuple(sorted(pair_index(h, action.K.identity, nH) for h in range(nH)))
    return Subgroup(group, members)


def decompose_bracket(action: Action, bracket: LieBracket) -> ConstructionData:
    """Extract (star on K, Gamma, beta) from a verified bracket on H x| K for
    which H is an ideal, and verify the round trip reproduces the input.

    star_K[x][y] and beta(x,y) are the K- and H-components of (1,x)*(1,y);
    Gamma_x(k) is the H-component of (1,x)*(k,1).

    The parts are built without the checks of their ``make``, which cannot
    fail here:
      - star_K is the bracket that K, as G/H, inherits from the ideal H, so
        it passes A1-A5;
      - Gamma_x is an endomorphism of H by A2 at ((1,x), k, l) for k, l in H,
        since conjugation by k is trivial on abelian H and (1,x)*k lies in H;
      - Gamma_1 = 0, since 1*g = 1;
      - every entry is in range, since v // |H| and v % |H| are.
    C1-C6 are not checked either: they hold once the induced table is the
    bracket, which passed A1-A5. C3-C6 are its A3, A2, A4 and A5, C1 is A1 at
    (1,x) with (1,x)*1 = 1*(1,x) = 1, and G1 and G2 of C2 are A3 and A4 at
    ((1,x), (1,y), (h,1)), each evaluated by the induction formula.
    """
    H, K = action.H, action.K
    nH = H.order
    G = semidirect_product(action)
    if bracket.group.cayley != G.cayley:
        raise ValidationError("bracket does not live on the product of the given action")
    if verify_mla(bracket.group, bracket):
        raise ValidationError("bracket is not a verified structure")
    h_sub = split_factor_subgroup(action, bracket.group)
    if not is_ideal(bracket, h_sub):
        raise NotIdealError("H is not an ideal of the given bracket")

    star = bracket.star
    eH, eK = H.identity, K.identity
    for h in range(nH):
        for k in range(nH):
            if star[pair_index(h, eK, nH)][pair_index(k, eK, nH)] != G.identity:
                raise ReconstructionMismatchError(
                    "bracket is nontrivial on H itself; outside the split parametrization"
                )
    k_rows = [
        [star[pair_index(eH, x, nH)][pair_index(eH, y, nH)] for y in range(K.order)] for x in range(K.order)
    ]
    # H is an ideal, so every (1,x)*(k,1) lies in H
    gamma_rows = tuple(
        tuple(star[pair_index(eH, x, nH)][pair_index(k, eK, nH)] % nH for k in range(nH))
        for x in range(K.order)
    )
    data = ConstructionData(
        action,
        LieBracket(K, tuple(tuple(v // nH for v in row) for row in k_rows)),
        GammaMap(H, K, gamma_rows),
        PairingMap(H, K, tuple(tuple(v % nH for v in row) for row in k_rows)),
    )
    if data.induced_table != bracket.star:
        raise ReconstructionMismatchError("induced bracket does not reproduce the input table")
    return data


def section_independence_check(action: Action, bracket: LieBracket) -> bool:
    """Recompute the conjugation action and bracket family against every
    section x -> (g(x), x) with g(identity) = identity; true iff all sections
    give the canonical values.

    A section's values at x depend only on its lift (g(x), x), and for every
    x other than the identity and every h in H some section has g(x) = h. So
    every section passes iff every lift passes: (h, x) for each h in H, and
    (1, 1) alone at the identity. That is |K| |H|^2 lookups instead of a loop
    over the |H|^(|K|-1) sections.
    """
    H, K = action.H, action.K
    nH = H.order
    G = semidirect_product(action)
    if bracket.group.cayley != G.cayley:
        raise ValidationError("bracket does not live on the product of the given action")
    mul, inv = G.cayley, G.inverse
    star = bracket.star
    eH, eK = H.identity, K.identity
    h_elems = [pair_index(k, eK, nH) for k in range(nH)]
    for x in range(K.order):
        canon = star[pair_index(eH, x, nH)]
        if any(canon[he] // nH != eK for he in h_elems):
            return False
        sig_x = action.sigma[x]
        for g in range(nH) if x != eK else (eH,):
            t_x = pair_index(g, x, nH)
            row_mul, t_inv, srow = mul[t_x], inv[t_x], star[t_x]
            for k, he in enumerate(h_elems):
                if mul[row_mul[he]][t_inv] != h_elems[sig_x[k]] or srow[he] != canon[he]:
                    return False
    return True


def sigma_gamma_commute_check(action: Action, gamma: GammaMap) -> bool:
    """For abelian K: sigma_x and Gamma_z commute as maps on H, for all x, z."""
    if not action.K.is_abelian:
        raise ValidationError("commuting check only applies to abelian K")
    if gamma.H.cayley != action.H.cayley or gamma.K.cayley != action.K.cayley:
        raise ValidationError("gamma does not match the action's H and K")
    sig = action.sigma
    g = gamma.gamma
    for x, z, h in product(range(action.K.order), range(action.K.order), range(action.H.order)):
        if sig[x][g[z][h]] != g[z][sig[x][h]]:
            return False
    return True
