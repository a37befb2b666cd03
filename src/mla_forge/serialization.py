"""Canonical JSON file formats.

Documents serialize with keys in a fixed order and no insignificant
whitespace, so write -> read -> write is byte-identical.

  group         {"name": str, "order": n, "cayley": [[int]], "generators": [int]?}
  bracket       {"group": <group doc | path string>, "star": [[int]]}
  sigma         {"sigma": [[int]]} or the bare table [[int]]
  construction  {"H": <group doc>, "K": <group doc>, "sigma": [[int]],
                 "starK": [[int]], "gamma": [[int]], "beta": [[int]]}
  report        {"C1": {"pass": bool, "witness": [int] | null}, ..., "C6": ...}
  enumeration   {"raw_count": n, "class_count": m, "exhausted": bool, "items": [...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .brackets import LieBracket
from .construction import Action, ConditionReport, ConstructionData, GammaMap, PairingMap
from .errors import ValidationError
from .groups import FiniteGroup, int_table
from .search import EnumerationResult


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _load_json(path: Union[str, Path]) -> Any:
    """The document a file holds; every way the file can fail to become one
    is a ValidationError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal beyond int()'s digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise ValidationError(f"{path} is not valid JSON: nested too deeply")


# -- groups -----------------------------------------------------------------


def group_to_doc(group: FiniteGroup) -> dict:
    doc: dict[str, Any] = {"name": group.name, "order": group.order}
    doc["cayley"] = [list(row) for row in group.cayley]
    if group.generators is not None:
        doc["generators"] = list(group.generators)
    return doc


def group_from_doc(doc: Any) -> FiniteGroup:
    """The group a document describes.

    The table is checked first, so a table that is not a group raises
    InvalidGroupError, with its violations, whatever else the document holds.
    """
    if not isinstance(doc, dict):
        raise ValidationError("group document must be a JSON object")
    name = doc.get("name")
    group = FiniteGroup.from_table(name, doc.get("cayley"), generators=doc.get("generators"))
    # a lone surrogate is a valid JSON escape but cannot be printed as UTF-8
    if not isinstance(name, str) or any("\ud800" <= c <= "\udfff" for c in name):
        raise ValidationError("group document needs a string 'name' of Unicode text")
    order = doc.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order != group.order:
        raise ValidationError(f"declared order {order} does not match table size {group.order}")
    return group


def load_group(path: Union[str, Path]) -> FiniteGroup:
    return group_from_doc(_load_json(path))


def save_group(group: FiniteGroup, path: Union[str, Path]) -> None:
    Path(path).write_text(canonical_dumps(group_to_doc(group)), encoding="utf-8")


# -- brackets ---------------------------------------------------------------


def bracket_to_doc(bracket: LieBracket, group_ref: Optional[str] = None) -> dict:
    group: Any = group_ref if group_ref is not None else group_to_doc(bracket.group)
    return {"group": group, "star": [list(row) for row in bracket.star]}


def bracket_from_doc(
    doc: Any, base_dir: Optional[Path] = None, group: Optional[FiniteGroup] = None
) -> LieBracket:
    """The bracket a document describes, on ``group`` when one is given: the
    document's own group, embedded or a file, must then have its Cayley table."""
    if not isinstance(doc, dict):
        raise ValidationError("bracket document must be a JSON object")
    ref = doc.get("group")
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        ref = _load_json(path)
    if group is None:
        group = group_from_doc(ref)
    elif not isinstance(ref, dict) or int_table(ref.get("cayley"), "cayley") != group.cayley:
        raise ValidationError(f"the bracket's group does not have the Cayley table of {group.name}")
    return LieBracket.make(group, doc.get("star"))


def load_bracket(path: Union[str, Path], group: Optional[FiniteGroup] = None) -> LieBracket:
    p = Path(path)
    return bracket_from_doc(_load_json(p), base_dir=p.parent, group=group)


def save_bracket(bracket: LieBracket, path: Union[str, Path], group_ref: Optional[str] = None) -> None:
    Path(path).write_text(canonical_dumps(bracket_to_doc(bracket, group_ref)), encoding="utf-8")


# -- construction data ------------------------------------------------------


def construction_to_doc(data: ConstructionData) -> dict:
    return {
        "H": group_to_doc(data.H),
        "K": group_to_doc(data.K),
        "sigma": [list(row) for row in data.action.sigma],
        "starK": [list(row) for row in data.star_k.star],
        "gamma": [list(row) for row in data.gamma.gamma],
        "beta": [list(row) for row in data.beta.beta],
    }


def construction_from_doc(doc: Any) -> ConstructionData:
    if not isinstance(doc, dict):
        raise ValidationError("construction document must be a JSON object")
    H = group_from_doc(doc.get("H"))
    K = group_from_doc(doc.get("K"))
    action = Action.make(H, K, doc.get("sigma"))
    star_k = LieBracket.make(K, doc.get("starK"))
    gamma = GammaMap.make(H, K, doc.get("gamma"))
    beta = PairingMap.make(H, K, doc.get("beta"))
    return ConstructionData.make(action, star_k, gamma, beta)


def load_sigma(path: Union[str, Path]) -> Any:
    """The action tables a sigma file holds, unchecked: ``Action.make`` checks them."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        return doc
    if "sigma" not in doc:
        raise ValidationError(f"{path} has no 'sigma' field")
    return doc["sigma"]


def load_construction(path: Union[str, Path]) -> ConstructionData:
    return construction_from_doc(_load_json(path))


def save_construction(data: ConstructionData, path: Union[str, Path]) -> None:
    Path(path).write_text(canonical_dumps(construction_to_doc(data)), encoding="utf-8")


# -- reports and enumeration results ----------------------------------------


def condition_report_to_doc(report: ConditionReport) -> dict:
    doc = {}
    for name, status in report.statuses:
        doc[name] = {
            "pass": status.passed,
            "witness": list(status.witness) if status.witness is not None else None,
        }
    return doc


def enumeration_to_doc(result: EnumerationResult) -> dict:
    return {
        "raw_count": result.raw_count,
        "class_count": result.class_count,
        "exhausted": result.exhausted,
        "items": [bracket_to_doc(b) for b in result.items],
    }
