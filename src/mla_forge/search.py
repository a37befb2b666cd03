"""Exhaustive enumeration engines for brackets, gamma families, pairing maps
and induced structures, with classification up to equivalence.

Gamma families and pairing tables are fixed by their values at generators
of K: ``enumerate_gamma`` and ``enumerate_pairings`` range over those values
and extend each choice along the breadth-first steps of
``groups.generator_steps``, as the homomorphism searches of ``groups`` do,
then keep the extensions that pass the full checks.

Equivalence for counting: two brackets on the same group are one structure
when an automorphism carries one to the other or to its argument reversal
(y*x = (x*y)^-1 in any valid bracket, so reversal is a canonical involution),
that is, when one's table lies in the other's ``brackets.bracket_orbit``.
Classification sweeps the sorted tables once and marks each orbit as it
goes, so it serves both closed sets (every bracket on a group) and sets
that Aut does not preserve (induced brackets with a fixed split). Each
orbit is found by closure under a generating set of Aut and reversal, so
its cost follows the orbit's size, not |Aut|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from math import gcd
from typing import Optional, Sequence

from .brackets import (
    LieBracket,
    bracket_orbit,
    end_mla,
    is_ideal,
    verify_mla,
)
from .construction import (
    Action,
    ConstructionData,
    GammaMap,
    PairingMap,
    _c1_failure,
    check_gamma_identities,
    check_theorem_conditions,
    decompose_bracket,
    semidirect_product,
    split_factor_subgroup,
)
from .errors import BoundExceededError, ValidationError
from .groups import (
    HARD_ORDER_CAP,
    FiniteGroup,
    Subgroup,
    automorphism_generators,
    endomorphisms,
    find_generators,
    generator_steps,
    homomorphisms,
)

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the enumeration engines."""

    max_group_order: int = 12
    require_ideal: Optional[Subgroup] = None
    up_to_iso: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.max_group_order < 1:
            raise ValidationError("max_group_order must be positive")
        if self.node_budget < 1:
            raise ValidationError("node_budget must be positive")


@dataclass(frozen=True)
class EnumerationResult:
    """Items in canonical order plus raw and per-class counts.

    exhausted is False exactly when the node budget cut the search short; the
    items and counts then describe a partial enumeration.
    """

    items: tuple[LieBracket, ...]
    raw_count: int
    class_count: Optional[int]
    exhausted: bool


class _BudgetExhausted(Exception):
    pass


class _StarTableSearch:
    """Backtracking over star-table cells.

    Seed cells are the off-diagonal generator pairs in lexicographic order;
    assigning a cell propagates forced values through the closure rules
    derived from the axioms:

      from (x,y) and (x,z) known:  (x, yz) and (x, zy)    (A2)
      from (y,z) and (x,z) known:  (xy, z) and (yx, z)    (A3)
      from (x,y) known:            (^z x, ^z y) for all z (A5)
      from (x,y) known:            (y, x) = (x*y)^-1      (derived)

    Diagonal and border cells are pre-filled with the identity before any
    other cell, so no later assignment reaches them. Every completed table is
    re-verified from scratch, so propagation only has to be sound, not
    complete.
    """

    def __init__(self, group: FiniteGroup, config: SearchConfig):
        self.group = group
        self.n = group.order
        self.mul = group.cayley
        self.inv = group.inverse
        self.conj = group.conj_table
        self.e = group.identity
        self.budget = config.node_budget
        self.nodes = 0
        self.ideal = (
            frozenset(config.require_ideal.members) if config.require_ideal is not None else None
        )
        self.star = [[-1] * self.n for _ in range(self.n)]
        self.trail: list[tuple[int, int]] = []
        self.processed = 0
        self.results: list[tuple[tuple[int, ...], ...]] = []
        self.exhausted = True

    def run(self) -> None:
        gens = find_generators(self.group)
        seeds = [(a, b) for a in gens for b in gens if a != b]
        if not self._seed_base_cells():
            return
        try:
            self._dfs(seeds, 0)
        except _BudgetExhausted:
            self.exhausted = False

    def _seed_base_cells(self) -> bool:
        n, e = self.n, self.e
        for x in range(n):
            if not (self._set(x, x, e) and self._set(x, e, e) and self._set(e, x, e)):
                return False
        return self._propagate()

    def _set(self, x: int, y: int, v: int) -> bool:
        cur = self.star[x][y]
        if cur == v:
            return True
        if cur != -1:
            return False
        if self.ideal is not None and (x in self.ideal or y in self.ideal) and v not in self.ideal:
            return False
        self.star[x][y] = v
        self.trail.append((x, y))
        iv = self.inv[v]
        if x != y:
            cur_r = self.star[y][x]
            if cur_r == -1:
                return self._set(y, x, iv)
            if cur_r != iv:
                return False
        return True

    def _propagate(self) -> bool:
        mul, conj, star, n = self.mul, self.conj, self.star, self.n
        while self.processed < len(self.trail):
            x, y = self.trail[self.processed]
            self.processed += 1
            v = star[x][y]
            for z in range(n):
                cz = conj[z]
                if not self._set(cz[x], cz[y], cz[v]):
                    return False
            row = star[x]
            my = mul[y]
            cy = conj[y]
            for y2 in range(n):
                w = row[y2]
                if w != -1:
                    if not self._set(x, my[y2], mul[v][cy[w]]):
                        return False
                    if not self._set(x, mul[y2][y], mul[w][conj[y2][v]]):
                        return False
            mxcol = mul[x]
            cx = conj[x]
            for x2 in range(n):
                w = star[x2][y]
                if w != -1:
                    if not self._set(mul[x2][x], y, mul[conj[x2][v]][w]):
                        return False
                    if not self._set(mxcol[x2], y, mul[cx[w]][v]):
                        return False
        return True

    def _next_cell(self, seeds: list[tuple[int, int]], idx: int) -> Optional[tuple[int, int]]:
        """The cell to branch on: seeds[idx], which _dfs has advanced to an
        empty seed cell, or after the seeds the first empty cell in
        row-major order."""
        if idx < len(seeds):
            return seeds[idx]
        for x in range(self.n):
            row = self.star[x]
            for y in range(self.n):
                if row[y] == -1:
                    return x, y
        return None

    def _dfs(self, seeds: list[tuple[int, int]], idx: int) -> None:
        while idx < len(seeds) and self.star[seeds[idx][0]][seeds[idx][1]] != -1:
            idx += 1
        cell = self._next_cell(seeds, idx)
        if cell is None:
            table = tuple(tuple(row) for row in self.star)
            if not verify_mla(self.group, table, max_violations=1):
                self.results.append(table)
            return
        x, y = cell
        for v in range(self.n):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetExhausted
            mark = len(self.trail)
            if self._set(x, y, v) and self._propagate():
                self._dfs(seeds, idx)
            while len(self.trail) > mark:
                a, b = self.trail.pop()
                self.star[a][b] = -1
            self.processed = mark


def _classify(
    group: FiniteGroup, tables: Sequence[tuple[tuple[int, ...], ...]]
) -> tuple[list[tuple[tuple[int, ...], ...]], int]:
    """Class representatives (lex-least member per class) and the class count.

    ``tables`` must be sorted and distinct; it need not be closed under
    Aut or reversal. The sweep makes each table not yet assigned a
    representative and assigns every member of its orbit found in the set.
    A smaller member of the same class would have been swept first, so
    each representative is the least member of its class.
    """
    gens = automorphism_generators(group)
    unassigned = set(tables)
    reps = []
    for t in tables:
        if t in unassigned:
            reps.append(t)
            unassigned.difference_update(bracket_orbit(LieBracket(group, t), gens))
    return reps, len(reps)


def enumerate_brackets(group: FiniteGroup, config: Optional[SearchConfig] = None) -> EnumerationResult:
    """All bracket structures on the group, complete and duplicate-free.

    With up_to_iso the items are class representatives; raw_count always
    reports the total number of distinct tables found.
    """
    config = config or SearchConfig()
    if group.order > HARD_ORDER_CAP:
        raise BoundExceededError(f"bracket enumeration capped at order {HARD_ORDER_CAP}")
    if group.order > config.max_group_order:
        raise BoundExceededError(
            f"group order {group.order} exceeds configured max_group_order {config.max_group_order}"
        )
    if config.require_ideal is not None and config.require_ideal.parent.cayley != group.cayley:
        raise ValidationError("require_ideal is not a subgroup of the target group")
    search = _StarTableSearch(group, config)
    search.run()
    tables = sorted(set(search.results))
    reps, class_count = _classify(group, tables)
    items = reps if config.up_to_iso else tables
    return EnumerationResult(
        items=tuple(LieBracket(group, t) for t in items),
        raw_count=len(tables),
        class_count=class_count,
        exhausted=search.exhausted,
    )


def _check_parts(H: FiniteGroup, K: FiniteGroup, action: Action) -> None:
    if action.H.cayley != H.cayley or action.K.cayley != K.cayley:
        raise ValidationError("action does not match H and K")


def enumerate_gamma(
    H: FiniteGroup, K: FiniteGroup, action: Action, star_k: LieBracket
) -> list[GammaMap]:
    """All endomorphism families passing check_gamma_identities, enumerated by
    generator images over End(H) and extended along the generator steps of K
    by G1, Gamma_{x g} = Gamma_x . sigma_x Gamma_g."""
    _check_parts(H, K, action)
    endos = endomorphisms(H)
    gens = find_generators(K)
    steps = generator_steps(K.cayley, K.identity, gens)
    zero = (H.identity,) * H.order
    mul_h = H.cayley
    sig = action.sigma
    found = []
    for images in product(endos, repeat=len(gens)):
        image = dict(zip(gens, images))
        gamma: list[tuple[int, ...]] = [zero] * K.order
        for y, x, g in steps:
            gx, gg, sx = gamma[x], image[g], sig[x]
            gamma[y] = tuple(mul_h[gx[h]][sx[gg[h]]] for h in range(H.order))
        candidate = GammaMap(H, K, tuple(gamma))
        if not check_gamma_identities(action, candidate, star_k, max_violations=1):
            found.append(candidate)
    found.sort(key=lambda gm: gm.gamma)
    return found


def enumerate_pairings(
    H: FiniteGroup, K: FiniteGroup, action: Action, star_k: LieBracket
) -> list[PairingMap]:
    """Alternating pairing tables compatible with the induction conditions.

    Setting h = k = l = 1 in the two-sided expansions C3, C4 and C6 leaves
    constraints on beta alone:

      T1  beta(x y, z) = sigma_x(beta(y, z)) sigma_{^x(y*z)}(beta(x, z))
      T2  beta(x, y z) = beta(x, y) sigma_{(x*y) y}(beta(x, z))
      T3  beta(^z x, ^z y) = sigma_z(beta(x, y))

    For the trivial action these are plain bilinearity plus conjugation
    invariance, whatever star_k is. The values on off-diagonal generator
    pairs, in product order, fix a table: T2 along the generator steps of K
    fills the generator rows, then T1 along the same steps fills every other
    row. Each table is kept when it satisfies C1 and every instance of
    T1-T3; it holds its seed values, so distinct seeds give distinct tables.
    """
    _check_parts(H, K, action)
    nH, nK = H.order, K.order
    eH, eK = H.identity, K.identity
    mul_h = H.cayley
    mul_k = K.cayley
    conj_k = K.conj_table
    sig = action.sigma
    star = star_k.star
    gens = find_generators(K)
    # the first steps, (g, 1, g) for each generator g, would restate the seeds
    steps = generator_steps(mul_k, eK, gens)[len(gens):]
    cells = [(a, b) for a in gens for b in gens if a != b]

    def fill(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        b = [[eH] * nK for _ in range(nK)]
        for (a, g), v in zip(cells, values):
            b[a][g] = v
        for a in gens:
            row, sa = b[a], star[a]
            for y, x, g in steps:
                row[y] = mul_h[row[x]][sig[mul_k[sa[x]][x]][row[g]]]
        for y, x, g in steps:
            bx, bg, sx, cx, sg = b[x], b[g], sig[x], conj_k[x], star[g]
            b[y] = [mul_h[sx[bg[z]]][sig[cx[sg[z]]][bx[z]]] for z in range(nK)]
        return tuple(tuple(row) for row in b)

    def acceptable(b: tuple[tuple[int, ...], ...]) -> bool:
        if _c1_failure(b, eH, eK) is not None:
            return False
        for x, y, z in product(range(nK), repeat=3):
            if b[mul_k[x][y]][z] != mul_h[sig[x][b[y][z]]][sig[conj_k[x][star[y][z]]][b[x][z]]]:
                return False
            if b[x][mul_k[y][z]] != mul_h[b[x][y]][sig[mul_k[star[x][y]][y]][b[x][z]]]:
                return False
            if b[conj_k[z][x]][conj_k[z][y]] != sig[z][b[x][y]]:
                return False
        return True

    tables = (fill(values) for values in product(range(nH), repeat=len(cells)))
    return [PairingMap(H, K, t) for t in sorted(t for t in tables if acceptable(t))]


def enumerate_induced(
    H: FiniteGroup,
    K: FiniteGroup,
    action: Action,
    config: Optional[SearchConfig] = None,
) -> EnumerationResult:
    """Induced brackets on H x| K over every (star on K, gamma, beta) tuple
    accepted by the condition checks, deduplicated up to equivalence.

    raw_count equals the number of accepted tuples: distinct tuples always
    induce distinct tables because the components can be read back off the
    table."""
    config = config or SearchConfig()
    inner = replace(config, up_to_iso=False, require_ideal=None)
    base = enumerate_brackets(K, inner)
    G = semidirect_product(action)
    tables = []
    for star_k in base.items:
        gammas = enumerate_gamma(H, K, action, star_k)
        betas = enumerate_pairings(H, K, action, star_k)
        for gamma in gammas:
            for beta in betas:
                data = ConstructionData.make(action, star_k, gamma, beta)
                report = check_theorem_conditions(data, short_circuit=True)
                if report.passed:
                    tables.append(data.induced_table)
    tables = sorted(set(tables))
    reps, class_count = _classify(G, tables)
    items = reps if config.up_to_iso else tables
    return EnumerationResult(
        items=tuple(LieBracket(G, t) for t in items),
        raw_count=len(tables),
        class_count=class_count,
        exhausted=base.exhausted,
    )


def enumerate_mla_homs(K: FiniteGroup, star_k: LieBracket, H: FiniteGroup) -> list[GammaMap]:
    """Families that respect both operations: group homomorphisms from K into
    (End(H), .) whose bracket behaviour matches the endomorphism structure,
    Gamma_{x*y} = Gamma_x * Gamma_y evaluated in end_mla(H)."""
    if star_k.group.cayley != K.cayley:
        raise ValidationError("star_k is not a bracket on K")
    end_group, end_bracket = end_mla(H)
    endos = endomorphisms(H)
    found = []
    for hom in homomorphisms(K, end_group):
        ok = True
        for x, y in product(range(K.order), repeat=2):
            if hom.images[star_k.star[x][y]] != end_bracket.star[hom.images[x]][hom.images[y]]:
                ok = False
                break
        if ok:
            found.append(GammaMap.make(H, K, tuple(endos[i] for i in hom.images)))
    found.sort(key=lambda gm: gm.gamma)
    return found


@dataclass(frozen=True)
class CoprimeReport:
    """Outcome of the coprime-order determination check on H x K."""

    group_order: int
    full_mode: bool
    induced_raw_count: int
    induced_class_count: Optional[int]
    all_have_h_ideal: Optional[bool] = None
    all_beta_trivial: Optional[bool] = None
    counts_consistent: Optional[bool] = None
    exhausted: bool = True

    @property
    def passed(self) -> bool:
        checks = (self.all_have_h_ideal, self.all_beta_trivial, self.counts_consistent)
        return self.exhausted and all(c is not False for c in checks)


def verify_coprime_determination(
    H: FiniteGroup, K: FiniteGroup, config: Optional[SearchConfig] = None
) -> CoprimeReport:
    """For gcd(|H|, |K|) = 1 and the trivial action: every structure on the
    direct product should keep H as an ideal and decompose with a trivial
    pairing. When the product order is within the configured bound the full
    bracket enumeration is cross-checked against the induced one; otherwise
    only the induced classification is reported."""
    if gcd(H.order, K.order) != 1:
        raise ValidationError("verify_coprime_determination requires coprime orders")
    config = config or SearchConfig()
    action = Action.trivial(H, K)
    induced = enumerate_induced(H, K, action, config)
    G = semidirect_product(action)
    if G.order > config.max_group_order:
        return CoprimeReport(
            group_order=G.order,
            full_mode=False,
            induced_raw_count=induced.raw_count,
            induced_class_count=induced.class_count,
            exhausted=induced.exhausted,
        )
    full = enumerate_brackets(G, replace(config, up_to_iso=False, require_ideal=None))
    h_sub = split_factor_subgroup(action, G)
    all_ideal = True
    all_beta_trivial = True
    for bracket in full.items:
        if not is_ideal(bracket, h_sub):
            all_ideal = False
            continue
        data = decompose_bracket(action, bracket)
        if not data.beta.is_trivial():
            all_beta_trivial = False
    consistent = {b.star for b in full.items} == {b.star for b in induced.items} and (
        full.class_count == induced.class_count
    )
    return CoprimeReport(
        group_order=G.order,
        full_mode=True,
        induced_raw_count=induced.raw_count,
        induced_class_count=induced.class_count,
        all_have_h_ideal=all_ideal,
        all_beta_trivial=all_beta_trivial,
        counts_consistent=consistent,
        exhausted=full.exhausted and induced.exhausted,
    )


def tau(n: int) -> int:
    """Number of positive divisors."""
    if n < 1:
        raise ValidationError(f"tau requires a positive integer, got {n}")
    return sum(1 for d in range(1, n + 1) if n % d == 0)
