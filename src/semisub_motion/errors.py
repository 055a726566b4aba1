"""Exception hierarchy, and the one checker of every document the package
reads (configs, campaign and dataset manifests, checkpoints): a table maps
each key of a JSON object to a nested table, to ``[spec]`` (a non-empty list
of ``spec`` entries) or to a ``Rule``.  A key written ``"key?"`` may be
absent or null; a key the table does not name is an error.
"""

from __future__ import annotations

import json
import math
import reprlib
from collections import namedtuple
from pathlib import Path


class SemisubError(Exception):
    """Base class for all package errors."""


class DomainError(SemisubError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigurationError(SemisubError, ValueError):
    """A configuration is inconsistent or infeasible (e.g. dt too coarse)."""


class NumericalError(SemisubError, ArithmeticError):
    """A computation produced non-finite values or failed to converge."""


class DegenerateDataError(SemisubError, ValueError):
    """Input data carries no usable signal (e.g. zero variance)."""


_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "any": lambda v: True,
}


# A value of type ``kind`` (a key of ``_KINDS``) for which ``within`` holds;
# ``phrase`` names that range in an error.
Rule = namedtuple("Rule", "kind phrase within", defaults=("", lambda v: True))
STR, ANY, NUMBER = Rule("str"), Rule("any"), Rule("float")  # NUMBER: NaN and inf too
FLOAT = Rule("float", "finite", lambda v: -math.inf < v < math.inf)
POSITIVE = Rule("float", "positive and finite", lambda v: 0 < v < math.inf)


def at_least(low, kind: str = "int") -> Rule:
    """A finite number of type ``kind`` no smaller than ``low``."""
    return Rule(kind, f">= {low}" if kind == "int" else f"finite and >= {low}",
                lambda v: low <= v < math.inf)


def one_of(*choices) -> Rule:
    """A value equal to one of ``choices``, of the first choice's type."""
    return Rule(type(choices[0]).__name__, f"one of {', '.join(map(str, choices))}",
                lambda v: v in choices)


def check(doc, table: dict, error: type[SemisubError] = DomainError,
          where: str = "") -> None:
    """Raise ``error`` with a one-line message, prefixed by ``where``, unless
    ``doc`` matches ``table``."""

    def fail(path, wanted, value):
        raise error(f"{where}{path or 'document'} must be {wanted}, "
                    f"got {reprlib.repr(value)}")

    def walk(value, spec, path):
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                fail(path, "an object", value)
            keys = {key.rstrip("?"): key for key in spec}
            lacks = sorted(k for k, key in keys.items() if key == k and k not in value)
            unknown = [repr(k) for k in value if k not in keys]
            for problem, names in (("lacks", lacks), ("has unknown key", unknown)):
                if names:
                    raise error(f"{where}{path and path + ' '}{problem} "
                                f"{', '.join(names)}")
            for k, item in value.items():
                if item is not None or keys[k] == k:  # null is absent if optional
                    walk(item, spec[keys[k]], f"{path}.{k}" if path else k)
        elif isinstance(spec, list):
            if not isinstance(value, list) or not value:
                fail(path, "a non-empty list", value)
            if spec[0] is NUMBER and all(type(v) in (int, float) for v in value):
                return  # a row of plain numbers in one pass; else name the bad one
            for i, item in enumerate(value):
                walk(item, spec[0], f"{path}[{i}]")
        elif not _KINDS[spec.kind](value):
            fail(path, spec.kind, value)
        elif not spec.within(value):
            fail(path, spec.phrase, value)

    walk(doc, table, "")


def read_document(path, version: int, table: dict) -> dict:
    """The JSON object in ``path``, checked to carry ``format_version``
    ``version`` and to match ``table``; anything else is a DomainError."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    check(doc, {"format_version": one_of(version), **table}, where=f"{path}: ")
    return doc
