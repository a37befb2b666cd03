"""Independent naive reference implementations used to cross-check the
optimized engines. Deliberately unoptimized and structured differently:
tables are built by recursive word expansion with no constraint propagation,
and map and pairing searches scan the function space (the bijection scan
drops a partial map only once a product it fixes fails)."""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional, Sequence

from mla_forge.brackets import LieBracket, verify_mla
from mla_forge.construction import Action, PairingMap, _c1_failure, semidirect_product
from mla_forge.errors import ValidationError
from mla_forge.groups import (
    VIOLATION_CAP,
    FiniteGroup,
    GroupViolation,
    _check_order_bound,
    _extend_from_generators,
    find_generators,
    generator_steps,
    int_row,
    int_table,
    pair_index,
)
from mla_forge.search import _check_parts


def element_words(group: FiniteGroup, gens: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    word = {group.identity: ()}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in word:
                    word[y] = word[x] + (g,)
                    nxt.append(y)
        frontier = nxt
    assert len(word) == group.order
    return word


def expand_table(group: FiniteGroup, gens, seed: dict[tuple[int, int], int]):
    """Fill a star table from generator-pair seeds by expanding both arguments
    through their generator words."""
    word = element_words(group, gens)
    mul, inv, e = group.cayley, group.inverse, group.identity
    conj = group.conj_table
    memo: dict[tuple[int, int], int] = {}

    def star(x: int, y: int) -> int:
        if x == e or y == e:
            return e
        if (x, y) in seed:
            return seed[(x, y)]
        if (x, y) in memo:
            return memo[(x, y)]
        wy = word[y]
        if len(wy) > 1:
            s = wy[0]
            rest = mul[inv[s]][y]
            v = mul[star(x, s)][conj[s][star(x, rest)]]
        else:
            s = word[x][0]
            rest = mul[inv[s]][x]
            v = mul[conj[s][star(rest, wy[0])]][star(s, wy[0])]
        memo[(x, y)] = v
        return v

    return tuple(tuple(star(x, y) for y in range(group.order)) for x in range(group.order))


def axiom_violations(group: FiniteGroup, table) -> list[tuple[str, tuple[int, ...], int, int]]:
    """Every violation of A1..A5, as (axiom, witness, left, right), by the
    definitions over every element and triple: axioms in order A1..A5,
    witnesses in lexicographic order (the order ``verify_mla`` documents).
    No reduced ranges and no conjugation table: ^u v is u v u^-1 from the
    multiplication table and inverses."""
    n, e = group.order, group.identity
    sides = _axiom_sides(group, table)
    out = [("A1", (x,), table[x][x], e) for x in range(n) if table[x][x] != e]
    for axiom, both in sides.items():
        for x, y, z in product(range(n), repeat=3):
            left, right = both(x, y, z)
            if left != right:
                out.append((axiom, (x, y, z), left, right))
    return out


def first_axiom_violation(group: FiniteGroup, table) -> Optional[tuple[str, tuple[int, ...], int, int]]:
    """A violation of A1..A5 by the same definitions, or None when the table
    is a bracket: A1 on each element, then each triple in lexicographic
    order against A2..A5, stopping at the first that fails."""
    n, e = group.order, group.identity
    for x in range(n):
        if table[x][x] != e:
            return ("A1", (x,), table[x][x], e)
    sides = _axiom_sides(group, table)
    for x, y, z in product(range(n), repeat=3):
        for axiom, both in sides.items():
            left, right = both(x, y, z)
            if left != right:
                return (axiom, (x, y, z), left, right)
    return None


def _axiom_sides(group: FiniteGroup, table):
    """The two sides of A2..A5 at (x, y, z), from the group's multiplication
    table and inverses."""
    e, mul, inv = group.identity, group.cayley, group.inverse

    def conj(u, v):  # ^u v = u v u^-1
        return mul[mul[u][v]][inv[u]]

    t = table
    return {
        "A2": lambda x, y, z: (t[x][mul[y][z]], mul[t[x][y]][conj(y, t[x][z])]),
        "A3": lambda x, y, z: (t[mul[x][y]][z], mul[conj(x, t[y][z])][t[x][z]]),
        "A4": lambda x, y, z: (
            mul[mul[t[t[x][y]][conj(y, z)]][t[t[y][z]][conj(z, x)]]][t[t[z][x]][conj(x, y)]],
            e,
        ),
        "A5": lambda x, y, z: (conj(z, t[x][y]), t[conj(z, x)][conj(z, y)]),
    }


def naive_bracket_tables(group: FiniteGroup):
    """Every valid bracket table, by trying all generator-pair seedings
    (diagonal pinned to the identity) and keeping the tables that verify."""
    gens = find_generators(group)
    if not gens:
        return [((group.identity,),)] if group.order == 1 else []
    cells = [(a, b) for a in gens for b in gens if a != b]
    found = set()
    for values in product(range(group.order), repeat=len(cells)):
        seed = {(g, g): group.identity for g in gens}
        seed.update(dict(zip(cells, values)))
        table = expand_table(group, gens, seed)
        if not verify_mla(group, table, max_violations=1):
            found.add(table)
    return sorted(found)


def bijection_scan_automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms by scanning every identity-fixing bijection.

    Elements are mapped one at a time in index order, and a partial
    bijection is dropped as soon as it breaks a product x y = z whose three
    elements it maps. Each product is checked when the last of its elements
    is mapped, so every complete bijection left is an automorphism.
    """
    n, e, mul, inv = group.order, group.identity, group.cayley, group.inverse
    images = [-1] * n
    images[e] = e
    used = [v == e for v in range(n)]
    out = []

    def preserves(x: int) -> bool:
        fx = images[x]
        for a in range(n):
            fa = images[a]
            if fa < 0:
                continue
            for p, q, fp, fq in ((a, x, fa, fx), (x, a, fx, fa)):
                fpq = images[mul[p][q]]
                if fpq >= 0 and fpq != mul[fp][fq]:
                    return False
            fb = images[mul[inv[a]][x]]  # a b = x
            if fb >= 0 and fx != mul[fa][fb]:
                return False
        return True

    def scan(i: int) -> None:
        if i == n:
            out.append(tuple(images))
            return
        if i == e:
            scan(i + 1)
            return
        for v in range(n):
            if not used[v]:
                images[i], used[v] = v, True
                if preserves(i):
                    scan(i + 1)
                images[i], used[v] = -1, False

    scan(0)
    return sorted(out)


def relabel_table(images, table, reverse=False):
    """The table carried along the bijection ``images``, after swapping its
    arguments when ``reverse`` is set."""
    n = len(images)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[images[x]][images[y]] = images[table[y][x] if reverse else table[x][y]]
    return tuple(tuple(row) for row in out)


def map_scan_homomorphisms(domain: FiniteGroup, codomain: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms domain -> codomain by scanning the full function
    space; only usable for very small groups."""
    n = domain.order
    out = []
    for images in product(range(codomain.order), repeat=n):
        ok = all(
            images[domain.cayley[a][b]] == codomain.cayley[images[a]][images[b]]
            for a in range(n)
            for b in range(n)
        )
        if ok:
            out.append(images)
    return sorted(out)


def pairing_conditions_hold(H: FiniteGroup, K: FiniteGroup, sigma, star_k, beta, x, y, z) -> bool:
    """T1, T2 and T3 of ``scan_pairings`` at the triple (x, y, z) of K."""
    mul_h = H.cayley
    mul_k, inv_k = K.cayley, K.inverse

    def conj(z, x):
        return mul_k[mul_k[z][x]][inv_k[z]]

    t1 = beta[mul_k[x][y]][z] == mul_h[sigma[x][beta[y][z]]][sigma[conj(x, star_k[y][z])][beta[x][z]]]
    t2 = beta[x][mul_k[y][z]] == mul_h[beta[x][y]][sigma[mul_k[star_k[x][y]][y]][beta[x][z]]]
    t3 = beta[conj(z, x)][conj(z, y)] == sigma[z][beta[x][y]]
    return t1 and t2 and t3


def scan_pairings(H: FiniteGroup, K: FiniteGroup, sigma, star_k) -> list[tuple[tuple[int, ...], ...]]:
    """Every table K x K -> H that is the identity on the border and the
    diagonal and satisfies, for all x, y, z in K (^z x = z x z^-1):

      T1  beta(x y, z) = sigma_x(beta(y, z)) sigma_{^x(y*z)}(beta(x, z))
      T2  beta(x, y z) = beta(x, y) sigma_{(x*y) y}(beta(x, z))
      T3  beta(^z x, ^z y) = sigma_z(beta(x, y))

    by scanning all values of the other cells; only usable when |H| to the
    number of those cells is small."""
    eH, eK = H.identity, K.identity
    rK = range(K.order)
    free = [(x, y) for x in rK for y in rK if eK not in (x, y) and x != y]
    out = []
    for values in product(range(H.order), repeat=len(free)):
        cell = dict(zip(free, values))
        beta = tuple(tuple(cell.get((x, y), eH) for y in rK) for x in rK)
        if all(pairing_conditions_hold(H, K, sigma, star_k, beta, x, y, z) for x, y, z in product(rK, repeat=3)):
            out.append(beta)
    return sorted(out)


def scan_gamma(H: FiniteGroup, K: FiniteGroup, sigma, star_k) -> list[tuple[tuple[int, ...], ...]]:
    """Every family Gamma with Gamma_1 = 0 and every other Gamma_x an
    endomorphism of H (``map_scan_homomorphisms``) that satisfies, for all
    x, y in K and h in H,

      G1  Gamma_{x y}(h) = Gamma_x(h) sigma_x(Gamma_y(h))
      G2  Gamma_{x*y}(sigma_y(h)) = Gamma_x(Gamma_y(h)) Gamma_{x y x^-1}(Gamma_x(h^-1))

    by scanning all |End(H)|^(|K|-1) families; only usable when that is small."""
    mul_h, inv_h, mul_k, inv_k = H.cayley, H.inverse, K.cayley, K.inverse
    others = [x for x in range(K.order) if x != K.identity]
    out = []
    for rows in product(map_scan_homomorphisms(H, H), repeat=len(others)):
        g = {K.identity: (H.identity,) * H.order, **dict(zip(others, rows))}
        if all(
            g[mul_k[x][y]][h] == mul_h[g[x][h]][sigma[x][g[y][h]]]
            and g[star_k[x][y]][sigma[y][h]] == mul_h[g[x][g[y][h]]][g[mul_k[mul_k[x][y]][inv_k[x]]][g[x][inv_h[h]]]]
            for x, y, h in product(range(K.order), range(K.order), range(H.order))
        ):
            out.append(tuple(g[x] for x in range(K.order)))
    return sorted(out)


def induced_pair_bracket(H: FiniteGroup, K: FiniteGroup, sigma, star_k, gamma, beta) -> dict:
    """The induction formula on explicit pairs of H x| K:

    (h,x)*(k,y) = (h k Gamma_x(k) sigma_{x*y}(h^-1 k^-1 Gamma_y(h^-1)) beta(x,y), x*y)
    """
    mul, inv = H.cayley, H.inverse
    out = {}
    for x, y, h, k in product(range(K.order), range(K.order), range(H.order), range(H.order)):
        s = star_k[x][y]
        inner = mul[mul[inv[h]][inv[k]]][gamma[y][inv[h]]]
        value = mul[mul[mul[mul[h][k]][gamma[x][k]]][sigma[s][inner]]][beta[x][y]]
        out[(h, x), (k, y)] = (value, s)
    return out


def condition_witnesses(H: FiniteGroup, K: FiniteGroup, sigma, star_k, gamma, beta) -> dict:
    """C1..C6 by their definitions; each value is the first failing tuple in
    the documented loop order, or None.

    C1: beta vanishes on the border and diagonal, witness (x,).
    C2: the identities G1, then G2, witness (x, y, h).
    C3..C6: the two-sided expansions on pairs A = (h,x), B = (k,y),
    C = (l,z), witness (x, y, z, h, k, l):

      C3  (A B) * C  =  ^A(B*C) . (A*C)
      C4  A * (B C)  =  (A*B) . ^B(A*C)
      C5  ((A*B) * ^B C) ((B*C) * ^C A) ((C*A) * ^A B) = 1
      C6  ^C(A*B)    =  ^C A * ^C B
    """
    mul_h, inv_h = H.cayley, H.inverse
    mul_k, inv_k = K.cayley, K.inverse
    rK, rH = range(K.order), range(H.order)
    eH, eK = H.identity, K.identity
    out = {}

    out["C1"] = next(
        ((x,) for x in rK if beta[x][eK] != eH or beta[eK][x] != eH or beta[x][x] != eH), None
    )

    def g1(x, y, h):
        return gamma[mul_k[x][y]][h] == mul_h[gamma[x][h]][sigma[x][gamma[y][h]]]

    def g2(x, y, h):
        xyx = mul_k[mul_k[x][y]][inv_k[x]]
        rhs = mul_h[gamma[x][gamma[y][h]]][gamma[xyx][gamma[x][inv_h[h]]]]
        return gamma[star_k[x][y]][sigma[y][h]] == rhs

    out["C2"] = next(
        ((x, y, h) for identity in (g1, g2) for x, y, h in product(rK, rK, rH) if not identity(x, y, h)),
        None,
    )

    bracket = induced_pair_bracket(H, K, sigma, star_k, gamma, beta)

    def mul(a, b):
        return (mul_h[a[0]][sigma[a[1]][b[0]]], mul_k[a[1]][b[1]])

    def inv(a):
        xi = inv_k[a[1]]
        return (sigma[xi][inv_h[a[0]]], xi)

    def conj(u, v):
        return mul(mul(u, v), inv(u))

    def star(a, b):
        return bracket[a, b]

    one = (eH, eK)
    expansions = {
        "C3": lambda A, B, C: star(mul(A, B), C) == mul(conj(A, star(B, C)), star(A, C)),
        "C4": lambda A, B, C: star(A, mul(B, C)) == mul(star(A, B), conj(B, star(A, C))),
        "C5": lambda A, B, C: mul(
            mul(star(star(A, B), conj(B, C)), star(star(B, C), conj(C, A))), star(star(C, A), conj(A, B))
        ) == one,
        "C6": lambda A, B, C: conj(C, star(A, B)) == star(conj(C, A), conj(C, B)),
    }
    for name, holds in expansions.items():
        out[name] = next(
            (
                (x, y, z, h, k, l)
                for x, y, z, h, k, l in product(rK, rK, rK, rH, rH, rH)
                if not holds((h, x), (k, y), (l, z))
            ),
            None,
        )
    return out


def direct_conditions_hold(H: FiniteGroup, K: FiniteGroup, star_k, gamma, beta) -> bool:
    """The paper's simplified C1..C6 for the trivial action, on the maps alone
    (^z x = z x z^-1):

      C1  beta vanishes on the border and the diagonal
      C2  Gamma_{x y} = Gamma_x . Gamma_y   and
          Gamma_{x*y}(h) = Gamma_x(Gamma_y(h)) Gamma_y(Gamma_x(h^-1))
      C3  beta(x y, z) = beta(x, z) beta(y, z)
      C4  beta(x, y z) = beta(x, y) beta(x, z)
      C5  Gamma_{x*y}(l) Gamma_{y*z}(h) Gamma_{z*x}(k)
          Gamma_z(beta(x,y)^-1) Gamma_x(beta(y,z)^-1) Gamma_y(beta(z,x)^-1)
          beta(x*y, ^y z) beta(y*z, ^z x) beta(z*x, ^x y) = 1
      C6  beta(^z x, ^z y) = beta(x, y)
    """
    mul_h, inv_h, eH = H.cayley, H.inverse, H.identity
    mul_k, inv_k, eK = K.cayley, K.inverse, K.identity
    rK, rH = range(K.order), range(H.order)

    def prod(*values):
        out = eH
        for v in values:
            out = mul_h[out][v]
        return out

    def conj(z, x):
        return mul_k[mul_k[z][x]][inv_k[z]]

    def bracket_term(x, y, z, h, k, l):
        return prod(
            gamma[star_k[x][y]][l], gamma[star_k[y][z]][h], gamma[star_k[z][x]][k],
            gamma[z][inv_h[beta[x][y]]], gamma[x][inv_h[beta[y][z]]], gamma[y][inv_h[beta[z][x]]],
            beta[star_k[x][y]][conj(y, z)], beta[star_k[y][z]][conj(z, x)], beta[star_k[z][x]][conj(x, y)],
        )

    return (
        all(beta[x][eK] == eH and beta[eK][x] == eH and beta[x][x] == eH for x in rK)  # C1
        and all(  # C2
            gamma[mul_k[x][y]][h] == prod(gamma[x][h], gamma[y][h])
            and gamma[star_k[x][y]][h] == prod(gamma[x][gamma[y][h]], gamma[y][gamma[x][inv_h[h]]])
            for x, y, h in product(rK, rK, rH)
        )
        and all(beta[mul_k[x][y]][z] == prod(beta[x][z], beta[y][z]) for x, y, z in product(rK, repeat=3))  # C3
        and all(beta[x][mul_k[y][z]] == prod(beta[x][y], beta[x][z]) for x, y, z in product(rK, repeat=3))  # C4
        and all(bracket_term(*t) == eH for t in product(rK, rK, rK, rH, rH, rH))  # C5
        and all(beta[conj(z, x)][conj(z, y)] == beta[x][y] for x, y, z in product(rK, repeat=3))  # C6
    )


def direct_induced_table(H: FiniteGroup, K: FiniteGroup, star_k, gamma, beta):
    """The induced table for the trivial action by the direct formula
    (h,x)*(k,y) = (Gamma_x(k) Gamma_y(h^-1) beta(x,y), x*y), with (h, x)
    encoded as h + |H| x."""
    mul, inv = H.cayley, H.inverse
    n = H.order * K.order
    table = [[0] * n for _ in range(n)]
    for x, y, h, k in product(range(K.order), range(K.order), range(H.order), range(H.order)):
        value = mul[mul[gamma[x][k]][gamma[y][inv[h]]]][beta[x][y]]
        table[h + H.order * x][k + H.order * y] = value + H.order * star_k[x][y]
    return tuple(tuple(row) for row in table)


def structure_constant_tables(group: FiniteGroup, p: int):
    """Every bracket table on an elementary abelian p-group, as the Lie
    algebra structures on F_p^d.

    On an abelian group A2 and A3 say the bracket is biadditive, hence
    F_p-bilinear, A1 that it is alternating, A4 is the Jacobi identity and
    A5 holds trivially. So: choose [e_i, e_j] in F_p^d for every i < j, keep
    the choices that satisfy Jacobi on every basis triple (Jacobi is
    trilinear and alternating), and transport each along a basis of the
    group found greedily.
    """
    n, e = group.order, group.identity
    basis, span = [], {e}
    for x in range(n):
        if x not in span:
            basis.append(x)
            powers = [e]
            for _ in range(p - 1):
                powers.append(group.mul(powers[-1], x))
            span = {group.mul(s, t) for s in span for t in powers}
    d = len(basis)
    assert n == p ** d, "not an elementary abelian p-group"

    def element(v):
        out = e
        for b, c in zip(basis, v):
            for _ in range(c):
                out = group.mul(out, b)
        return out

    vectors = list(product(range(p), repeat=d))
    elem = {v: element(v) for v in vectors}
    coords = {x: v for v, x in elem.items()}
    assert len(coords) == n
    units = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    pairs = list(combinations(range(d), 2))

    tables = set()
    for constants in product(vectors, repeat=len(pairs)):
        c = dict(zip(pairs, constants))

        def bracket(u, v):
            out = [0] * d
            for (i, j), w in c.items():
                coef = u[i] * v[j] - u[j] * v[i]
                out = [(o + coef * wk) % p for o, wk in zip(out, w)]
            return tuple(out)

        def jacobi(a, b, z):
            terms = (bracket(bracket(a, b), z), bracket(bracket(b, z), a), bracket(bracket(z, a), b))
            return all(sum(t[k] for t in terms) % p == 0 for k in range(d))

        if all(jacobi(units[i], units[j], units[k]) for i, j, k in combinations(range(d), 3)):
            table = tuple(tuple(elem[bracket(coords[x], coords[y])] for y in range(n)) for x in range(n))
            tables.add(table)
    return sorted(tables)


def section_scan_independence(action, bracket) -> bool:
    """Recompute the conjugation action and bracket family against every
    section x -> (g(x), x) with g(identity) = identity, one section at a
    time; true iff all sections give the canonical values. The loop runs over
    all |H|^(|K|-1) sections."""
    H, K = action.H, action.K
    nH = H.order
    G = semidirect_product(action)
    if bracket.group.cayley != G.cayley:
        raise ValidationError("bracket does not live on the product of the given action")
    mul, inv = G.cayley, G.inverse
    star = bracket.star
    eH, eK = H.identity, K.identity
    sig = action.sigma
    canon_gamma = []
    for x in range(K.order):
        row = []
        for k in range(nH):
            v = star[pair_index(eH, x, nH)][pair_index(k, eK, nH)]
            if v // nH != eK:
                return False
            row.append(v % nH)
        canon_gamma.append(row)
    others = [x for x in range(K.order) if x != eK]
    h_elems = [pair_index(k, eK, nH) for k in range(nH)]
    for assignment in product(range(nH), repeat=len(others)):
        g = [eH] * K.order
        for pos, x in enumerate(others):
            g[x] = assignment[pos]
        ok = True
        for x in range(K.order):
            t_x = pair_index(g[x], x, nH)
            t_inv = inv[t_x]
            row_mul = mul[t_x]
            srow = star[t_x]
            sig_x = sig[x]
            cg_x = canon_gamma[x]
            for k in range(nH):
                he = h_elems[k]
                if mul[row_mul[he]][t_inv] != pair_index(sig_x[k], eK, nH):
                    ok = False
                    break
                if srow[he] != pair_index(cg_x[k], eK, nH):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            return False
    return True


def full_scan_group_violations(
    cayley: Sequence[Sequence[int]], generators: Optional[Sequence[int]] = None
) -> list[GroupViolation]:
    """``groups.verify_group`` as it was before associativity was decided by
    Light's test: the same checks, with associativity scanned over every
    (x, y, z). Kept as the reference the reduced scan is compared with.

    Check the group axioms on a candidate Cayley table.

    Returns every violation found (up to VIOLATION_CAP); an empty list means
    the table is a group and, if generators were supplied, that they generate
    it. Entries and generators that are not integers, and tables above
    MAX_GROUP_ORDER, are input errors and raise instead.
    """
    cayley = int_table(cayley, "cayley")
    gens = int_row(generators, "generators") if generators is not None else None
    _check_order_bound(len(cayley))
    out: list[GroupViolation] = []
    n = len(cayley)
    if n == 0:
        return [GroupViolation("shape", (), "table is empty")]
    for i, row in enumerate(cayley):
        if len(row) != n:
            return [GroupViolation("shape", (i,), f"row {i} has length {len(row)}, expected {n}")]
        for j, v in enumerate(row):
            if not (0 <= v < n):
                return [GroupViolation("shape", (i, j), f"entry [{i}][{j}]={v!r} out of range 0..{n - 1}")]

    for i in range(n):
        if len(set(cayley[i])) != n:
            out.append(GroupViolation("latin-row", (i,), f"row {i} is not a permutation"))
        if len({cayley[x][i] for x in range(n)}) != n:
            out.append(GroupViolation("latin-column", (i,), f"column {i} is not a permutation"))
        if len(out) >= VIOLATION_CAP:
            return out[:VIOLATION_CAP]

    identity = None
    for e in range(n):
        if all(cayley[e][x] == x and cayley[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        out.append(GroupViolation("identity", (), "no two-sided identity element"))

    if identity is not None:
        for x in range(n):
            if not any(cayley[x][y] == identity and cayley[y][x] == identity for y in range(n)):
                out.append(GroupViolation("inverse", (x,), f"element {x} has no two-sided inverse"))
                if len(out) >= VIOLATION_CAP:
                    return out[:VIOLATION_CAP]

    for x, y, z in product(range(n), repeat=3):
        if cayley[cayley[x][y]][z] != cayley[x][cayley[y][z]]:
            out.append(
                GroupViolation("associativity", (x, y, z), f"(x*y)*z != x*(y*z) at ({x},{y},{z})")
            )
            if len(out) >= VIOLATION_CAP:
                return out[:VIOLATION_CAP]

    if gens is not None and not out and identity is not None:
        if any(not (0 <= g < n) for g in gens):
            out.append(GroupViolation("generators", gens, "generator index out of range"))
        else:
            reached = 1 + len(generator_steps(cayley, identity, gens))
            if reached != n:
                out.append(
                    GroupViolation("generators", gens, f"generators reach only {reached} of {n} elements")
                )
    return out[:VIOLATION_CAP]


def seed_vector_pairings(
    H: FiniteGroup, K: FiniteGroup, action: Action, star_k: LieBracket
) -> list[PairingMap]:
    """``search.enumerate_pairings`` as it was before the pairings ran on the
    seed walk: every seed vector filled in full, then filtered by C1 and
    T1-T3 on every triple. Kept as the reference the walk is compared with.

    Alternating pairing tables compatible with the induction conditions.

    Setting h = k = l = 1 in the two-sided expansions C3, C4 and C6 leaves
    constraints on beta alone:

      T1  beta(x y, z) = sigma_x(beta(y, z)) sigma_{^x(y*z)}(beta(x, z))
      T2  beta(x, y z) = beta(x, y) sigma_{(x*y) y}(beta(x, z))
      T3  beta(^z x, ^z y) = sigma_z(beta(x, y))

    For the trivial action these are plain bilinearity plus conjugation
    invariance, whatever star_k is. The values on the generator pairs (a, b)
    with a before b in ``find_generators``, in product order, fix a table.
    Every table passing C1, T1 and T2 obeys the reversal

      beta(y, x) = sigma_{(x*y)^-1}(beta(x, y))^-1

    (T1 at (x, y, xy), with beta(y, xy) = beta(y, x) and
    beta(x, xy) = sigma_x(beta(x, y)) from T2 and C1, and y*xy = y*x in K);
    it is the H-part of y*x = (x*y)^-1 at (1,x), (1,y) in H x| K. The
    reversal fills (b, a), T2 along the generator steps of K fills the
    generator rows, then T1 along the same steps fills every other row. A
    generator row that does not close breaks T2, so its seeds are dropped.
    Each other table is kept when it satisfies C1 and every instance of
    T1-T3; it holds its seed values, so distinct seeds give distinct tables.
    """
    _check_parts(H, K, action)
    if star_k.group.cayley != K.cayley:
        raise ValidationError("star_k is not a bracket on K")
    nH, nK = H.order, K.order
    eH, eK = H.identity, K.identity
    mul_h, inv_h = H.cayley, H.inverse
    mul_k, inv_k = K.cayley, K.inverse
    conj_k = K.conj_table
    sig = action.sigma
    star = star_k.star
    gens, steps, _ = K._walk
    # the first steps, (g, 1, g) for each generator g, are the generator rows
    steps = steps[len(gens):]
    cells = list(combinations(gens, 2))
    twists = {a: [sig[mul_k[star[a][x]][x]] for x in range(nK)] for a in gens}

    def fill(values: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], ...]]:
        b = [[eH] * nK for _ in range(nK)]
        for (a, g), v in zip(cells, values):
            b[a][g] = v
            b[g][a] = inv_h[sig[inv_k[star[a][g]]][v]]
        for a in gens:
            row = _extend_from_generators(K, H, [b[a][g] for g in gens], twists[a])
            if row is None:
                return None
            b[a] = row
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
    return [PairingMap(H, K, t) for t in sorted(t for t in tables if t is not None and acceptable(t))]
