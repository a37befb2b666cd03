"""Command-line driver.

Exit codes: 0 success, 1 mathematical failure (violations or mismatches),
2 input error, 3 search budget exhausted.

A group argument is either a path to a group JSON file or a preset name:
``Zn`` (cyclic), ``Dn`` (dihedral of order 2n), ``Qm`` (quaternion of order
m, m divisible by 4), products ``AxB``, and split products
``A:B:sigma=FILE`` where FILE holds {"sigma": [[int]]}.

One argument parser serves every :func:`main` call of a process: it is built
by :func:`build_parser` on the first call, not at import, and reused after.
That is safe because the parser keeps no state between calls: ``parse_args``
returns a fresh namespace each time, help and error text are formatted when
printed, and the command is looked up by name (``cmd_<command>``) when
``main`` runs, so a ``cmd_*`` function replaced after the first call is the
one called.
"""

from __future__ import annotations

import argparse
import copy
import os
import re
import sys
from pathlib import Path
from typing import Optional

from . import serialization as io
from .brackets import LieBracket, commutator_bracket, trivial_bracket, verify_mla
from .construction import (
    Action,
    check_theorem_conditions,
    decompose_bracket,
    induce_bracket,
    semidirect_product,
)
from .errors import (
    BoundExceededError,
    ConditionsViolatedError,
    InvalidGroupError,
    NotIdealError,
    ReconstructionMismatchError,
    ValidationError,
)
from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    direct_product,
    find_generators,
    make_cyclic,
    make_dihedral,
    make_quaternion,
)
from .scenarios import catalog, run_scenarios
from .search import DEFAULT_NODE_BUDGET, SearchConfig, enumerate_brackets

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

BUDGET_ENV = "MLA_FORGE_BUDGET"

_PRESET_TOKEN = re.compile(r"^([ZDQ])(\d+)$")
_PRESET_FULL = re.compile(r"^[ZDQ]\d+(x[ZDQ]\d+)*$")


def _is_preset(value: str) -> bool:
    return bool(_PRESET_FULL.match(value)) or (":" in value and "sigma=" in value)


def _token_group(token: str) -> FiniteGroup:
    m = _PRESET_TOKEN.match(token)
    if not m:
        raise ValidationError(f"unrecognized preset {token!r}")
    kind = m.group(1)
    try:
        num = int(m.group(2))
    except ValueError:  # more digits than int() converts
        raise BoundExceededError(f"preset {token[:12]!r}... exceeds supported bound {MAX_GROUP_ORDER}")
    if kind == "Z":
        return make_cyclic(num)
    if kind == "D":
        return make_dihedral(num)
    if num % 4 != 0:
        raise ValidationError(f"quaternion preset order must be divisible by 4, got {token!r}")
    return make_quaternion(num // 4)


def parse_preset(spec: str) -> FiniteGroup:
    """Preset grammar: Zn | Dn | Qm | AxB (direct product) | A:B:sigma=FILE.

    A product is named by its spec: a copy of the built group that keeps
    what it has computed, its walk among them.
    """
    if ":" in spec:
        group = _split_action(spec).product_group
    elif "x" in spec:
        tokens = spec.split("x")
        group = _token_group(tokens[0])
        for tok in tokens[1:]:
            group = direct_product(group, _token_group(tok))
    else:
        return _token_group(spec)
    renamed = copy.copy(group)
    renamed.name = spec
    return renamed


def _split_action(spec: str) -> Action:
    """The action of an ``A:B:sigma=FILE`` preset, FILE holding {"sigma": [[int]]}."""
    parts = spec.split(":")
    if len(parts) != 3 or not parts[2].startswith("sigma="):
        raise ValidationError(f"split-product preset must look like A:B:sigma=FILE, got {spec!r}")
    H = parse_preset(parts[0])
    K = parse_preset(parts[1])
    return Action.make(H, K, io.load_sigma(parts[2][len("sigma="):]))


def load_group_arg(value: str) -> FiniteGroup:
    if _is_preset(value):
        return parse_preset(value)
    return io.load_group(value)


def _search_config(args: argparse.Namespace) -> SearchConfig:
    budget = args.node_budget
    if budget is None:
        env = os.environ.get(BUDGET_ENV)
        try:
            budget = int(env) if env else DEFAULT_NODE_BUDGET
        except ValueError:
            raise ValidationError(f"{BUDGET_ENV} must be an integer, got {env!r}")
    return SearchConfig(
        max_group_order=getattr(args, "max_order", SearchConfig.max_group_order),
        up_to_iso=getattr(args, "up_to_iso", False),
        node_budget=budget,
    )


def _emit(args: argparse.Namespace, text_lines: list[str], doc) -> None:
    if args.format == "json":
        print(io.canonical_dumps(doc))
    else:
        for line in text_lines:
            print(line)


# -- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    if args.construction:
        data = io.load_construction(args.construction)
        report = check_theorem_conditions(data)
        doc = io.condition_report_to_doc(report)
        lines = [f"{name}: {'pass' if st['pass'] else 'FAIL at ' + str(st['witness'])}" for name, st in doc.items()]
        _emit(args, lines, doc)
        return EXIT_OK if report.passed else EXIT_MATH
    if not args.group:
        raise ValidationError("verify needs --group or --construction")

    try:
        group = load_group_arg(args.group)
    except InvalidGroupError as exc:
        doc = [
            {"axiom": v.axiom, "witness": list(v.witness), "message": v.message}
            for v in exc.violations
        ]
        _emit(args, [v.message for v in exc.violations], doc)
        return EXIT_MATH

    if args.bracket is None:
        _emit(args, ["group ok"], {"violations": []})
        return EXIT_OK
    bracket = _load_bracket_arg(args.bracket, group)
    violations = verify_mla(group, bracket)
    doc = {
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness), "left": v.left, "right": v.right}
            for v in violations
        ]
    }
    lines = (
        ["bracket ok"]
        if not violations
        else [f"{v.axiom} fails at {v.witness}: {v.left} != {v.right}" for v in violations]
    )
    _emit(args, lines, doc)
    return EXIT_OK if not violations else EXIT_MATH


def _load_bracket_arg(value: str, group: FiniteGroup) -> LieBracket:
    if value == "trivial":
        return trivial_bracket(group)
    if value == "commutator":
        return commutator_bracket(group)
    return io.load_bracket(value, group=group)


# -- enumerate ------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    group = load_group_arg(args.group)
    config = _search_config(args)
    result = enumerate_brackets(group, config)
    doc = io.enumeration_to_doc(result)
    lines = [
        f"group: {group.name} (order {group.order})",
        f"raw_count: {result.raw_count}",
        f"class_count: {result.class_count}",
        f"exhausted: {result.exhausted}",
    ]
    for i, bracket in enumerate(result.items):
        lines.append(f"item {i}: " + "; ".join(",".join(map(str, row)) for row in bracket.star))
    if args.emit:  # written first, so that a path that cannot be a directory prints nothing
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        for i, bracket in enumerate(result.items):
            io.save_bracket(bracket, out / f"bracket_{i:04d}.json")
    _emit(args, lines, doc)
    return EXIT_OK if result.exhausted else EXIT_BUDGET


# -- induce / decompose ----------------------------------------------------------


def cmd_induce(args: argparse.Namespace) -> int:
    data = io.load_construction(args.data)
    try:
        bracket = induce_bracket(data)
    except ConditionsViolatedError as exc:
        name, status = exc.report.first_failure()
        _emit(
            args,
            [f"condition {name} fails at witness {status.witness}"],
            {"failed_condition": name, "witness": list(status.witness)},
        )
        return EXIT_MATH
    doc = io.bracket_to_doc(bracket)
    if args.out:
        Path(args.out).write_text(io.canonical_dumps(doc), encoding="utf-8")
        _emit(args, [f"bracket written to {args.out}"], {"written": str(args.out)})
    else:
        print(io.canonical_dumps(doc))
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    action = _action_from_group_arg(args.group)
    group = semidirect_product(action)
    bracket = io.load_bracket(args.bracket, group=group)
    data = decompose_bracket(action, bracket)
    doc = io.construction_to_doc(data)
    gamma_desc = _describe_gamma(data)
    lines = ["decomposition ok", f"starK: {data.star_k.star}", f"beta trivial: {data.beta.is_trivial()}"]
    lines.extend(gamma_desc)
    if args.emit:  # written first, as for enumerate
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        io.save_construction(data, out / "construction.json")
        io.save_bracket(data.star_k, out / "starK.json")
        (out / "gamma.json").write_text(
            io.canonical_dumps({"gamma": [list(r) for r in data.gamma.gamma]}), encoding="utf-8"
        )
        (out / "beta.json").write_text(
            io.canonical_dumps({"beta": [list(r) for r in data.beta.beta]}), encoding="utf-8"
        )
    _emit(args, lines, doc)
    return EXIT_OK


def _describe_gamma(data) -> list[str]:
    H, K = data.H, data.K
    lines = []
    for x in find_generators(K):
        row = data.gamma.gamma[x]
        mult = _as_multiplication(H, row)
        desc = f"mult-by-{mult}" if mult is not None else str(row)
        lines.append(f"gamma[{K.element_name(x)}]: {desc}")
    return lines


def _as_multiplication(H, row) -> Optional[int]:
    """For H cyclic on the element 1, describe an endomorphism table as
    multiplication by k."""
    if find_generators(H) != (1,):
        return None
    k = row[1]
    if all(row[h] == (h * k) % H.order for h in range(H.order)):
        return k
    return None


def _action_from_group_arg(spec: str) -> Action:
    """The action of a product preset: A:B:sigma=FILE, or the trivial action of
    B on A for a direct product AxB (B itself may be a product)."""
    if ":" in spec:
        return _split_action(spec)
    head, sep, rest = spec.partition("x")
    if not sep:
        raise ValidationError("decompose needs a product preset like Z4xD4 or A:B:sigma=FILE")
    return Action.trivial(_token_group(head), parse_preset(rest))


# -- scenarios ---------------------------------------------------------------------


def cmd_scenarios(args: argparse.Namespace) -> int:
    if args.list:
        lines = [f"{s.name}: {s.summary}" for s in catalog()]
        _emit(args, lines, [{"name": s.name, "summary": s.summary} for s in catalog()])
        return EXIT_OK
    names = [args.only] if args.only is not None else None
    config = _search_config(args)
    outcomes = run_scenarios(names, config)
    doc = []
    lines = []
    all_ok = True
    for oc in outcomes:
        status = "pass" if oc.passed else "FAIL"
        lines.append(f"{oc.name}: {status}")
        if not oc.passed:
            all_ok = False
            lines.append(f"  expected: {oc.expected}")
            lines.append(f"  actual:   {oc.actual}")
        doc.append({"name": oc.name, "passed": oc.passed, "expected": oc.expected, "actual": oc.actual})
    _emit(args, lines, doc)
    return EXIT_OK if all_ok else EXIT_MATH


# -- argument plumbing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mla-forge",
        description="construct, verify, enumerate and classify bracket structures on finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="verify a group, a bracket, or construction data")
    p.add_argument("--group")
    p.add_argument("--bracket", help="bracket file, or the names 'trivial' / 'commutator'")
    p.add_argument("--construction", help="construction data file (checks C1..C6)")
    common(p)

    p = sub.add_parser("enumerate", help="enumerate bracket structures on a group")
    p.add_argument("--group", required=True)
    p.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    p.add_argument("--max-order", type=int, default=SearchConfig.max_group_order, dest="max_order")
    p.add_argument("--emit", help="directory for the enumerated bracket files")
    common(p)
    p.add_argument("--node-budget", type=int, default=None, dest="node_budget")

    p = sub.add_parser("induce", help="build the bracket induced by a construction file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="output bracket file")
    common(p)

    p = sub.add_parser("decompose", help="extract construction data from a bracket")
    p.add_argument("--group", required=True, help="product preset, e.g. Z4xD4 or A:B:sigma=FILE")
    p.add_argument("--bracket", required=True)
    p.add_argument("--emit", help="directory for the extracted component files")
    common(p)

    p = sub.add_parser("scenarios", help="run the built-in regression catalog")
    p.add_argument("--only", help="run a single scenario by name")
    p.add_argument("--list", action="store_true", help="list scenario names without running")
    common(p)
    p.add_argument("--node-budget", type=int, default=None, dest="node_budget")
    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (NotIdealError, ReconstructionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValidationError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
