"""Scenario trees as JSON: atoms with rational masses, named partitions,
an optional filtration (by partition name), and named variables.

Values parse exactly: "p/q", decimal strings, "inf"/"-inf", or JSON
numbers (booleans are not numbers), at most MAX_LITERAL_DIGITS digits
long; the CLI parses its own numbers the same way. Validation is eager
with precise diagnostics: every malformed document or unreadable file
raises a ValidationError or ParseError, and a scenario that loads is
structurally sound.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, ValidationError
from .extreal import ExtReal, parse_ext
from .space import Filtration, FiniteProbabilitySpace, Partition, RandomVariable


@dataclass(frozen=True)
class Scenario:
    space: FiniteProbabilitySpace
    partitions: dict[str, Partition]
    variables: dict[str, RandomVariable]
    filtration: Filtration | None = None

    def partition(self, name: str) -> Partition:
        if name not in self.partitions:
            raise ValidationError(f"unknown partition {name!r}")
        return self.partitions[name]

    def variable(self, name: str) -> RandomVariable:
        if name not in self.variables:
            raise ValidationError(f"unknown variable {name!r}")
        return self.variables[name]


# The most digits a literal may spell: its length plus the digits a decimal
# exponent adds ("1e5000" is a 5,001-digit integer). Checked before Fraction
# expands the text, which takes over a second for "1e2000000" alone; it also
# keeps values far below the interpreter's 4,300-digit int-to-str limit,
# which a report meets when it renders them.
MAX_LITERAL_DIGITS = 100

_EXPONENT = re.compile(r"e([+-]?\d+(?:_\d+)*)\s*$", re.IGNORECASE)


def _digits(raw) -> int:
    if isinstance(raw, int):
        return raw.bit_length() * 30103 // 100000 + 1  # log10(2) = 0.30103
    text = repr(raw) if isinstance(raw, float) else raw
    if not isinstance(text, str):
        return 0  # not a literal at all; parse_ext rejects it
    exponent = _EXPONENT.search(text)
    if exponent is None or len(text) > MAX_LITERAL_DIGITS:
        return len(text)
    return len(text) + abs(int(exponent.group(1)))


def _literal(raw, where: str) -> ExtReal:
    if isinstance(raw, bool):
        raise ValidationError(f"{where}: {raw!r} is not a number")
    if _digits(raw) > MAX_LITERAL_DIGITS:
        raise ValidationError(f"{where}: literal longer than {MAX_LITERAL_DIGITS} digits")
    try:
        return parse_ext(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: bad value {raw!r} ({exc})") from None


def _section(doc: dict, key: str, kind: type):
    # an optional top-level container; absent or null reads as empty
    value = doc.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ValidationError(f"{key!r} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ValidationError("scenario root must be a JSON object")
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ValidationError("scenario needs a nonempty 'atoms' array")
    labels: list[str] = []
    probs: list[Fraction] = []
    for entry in atoms:
        if not isinstance(entry, dict) or "label" not in entry or "prob" not in entry:
            raise ValidationError("each atom needs 'label' and 'prob'")
        labels.append(str(entry["label"]))
        p = _literal(entry["prob"], f"atom {entry['label']!r}")
        if not p.is_finite:
            raise ValidationError(f"atom {entry['label']!r}: probability must be finite")
        probs.append(p.frac)
    space = FiniteProbabilitySpace(tuple(labels), tuple(probs))

    partitions: dict[str, Partition] = {}
    for name, cells in _section(doc, "partitions", dict).items():
        if not (
            isinstance(cells, list)
            and all(isinstance(c, list) and all(isinstance(l, str) for l in c) for c in cells)
        ):
            raise ValidationError(f"partition {name!r} must be a list of lists of atom labels")
        try:
            partitions[name] = Partition.from_labels(space, cells)
        except ValidationError as exc:
            raise ValidationError(f"partition {name!r}: {exc}") from None

    filtration_names = tuple(_section(doc, "filtration", list))
    filtration = None
    if filtration_names:
        parts = []
        for name in filtration_names:
            if not (isinstance(name, str) and name in partitions):
                raise ValidationError(f"filtration references unknown partition {name!r}")
            parts.append(partitions[name])
        try:
            filtration = Filtration(filtration_names, tuple(parts))
        except ValidationError as exc:
            raise ValidationError(f"filtration: {exc}") from None

    variables: dict[str, RandomVariable] = {}
    for name, mapping in _section(doc, "variables", dict).items():
        if not isinstance(mapping, dict):
            raise ValidationError(f"variable {name!r} must map atoms to values")
        values = {k: _literal(v, f"variable {name!r} at {k!r}") for k, v in mapping.items()}
        try:
            variables[name] = RandomVariable.of(space, values)
        except ValidationError as exc:
            raise ValidationError(f"variable {name!r}: {exc}") from None

    return Scenario(
        space=space,
        partitions=partitions,
        variables=variables,
        filtration=filtration,
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read scenario {str(path)!r}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # past the interpreter's digit or nesting limit
        raise ValidationError(f"scenario {str(path)!r}: {exc}") from None
    return parse_scenario(doc)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "atoms": [
            {"label": a, "prob": str(p)} for a, p in zip(s.space.atoms, s.space.probs)
        ],
        "partitions": {
            name: part.label_cells() for name, part in sorted(s.partitions.items())
        },
        "filtration": list(s.filtration.times if s.filtration else ()),
        "variables": {
            name: rv.as_mapping() for name, rv in sorted(s.variables.items())
        },
    }


def dump_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")


CANONICAL_DOC = {
    "atoms": [
        {"label": "a", "prob": "1/4"},
        {"label": "b", "prob": "1/4"},
        {"label": "c", "prob": "1/4"},
        {"label": "d", "prob": "1/4"},
    ],
    "partitions": {
        "F0": [["a", "b", "c", "d"]],
        "H": [["a", "b"], ["c", "d"]],
        "F2": [["a"], ["b"], ["c"], ["d"]],
    },
    "filtration": ["F0", "H", "F2"],
    "variables": {
        "X": {"a": "1", "b": "3", "c": "2", "d": "6"},
        "Y": {"a": "-1", "b": "3", "c": "2", "d": "6"},
        "Z": {"a": "3", "b": "3", "c": "6", "d": "6"},
        "rho0": {"a": "1/2", "b": "3/2", "c": "1", "d": "1"},
        "spike": {"a": "inf", "b": "2", "c": "1", "d": "1"},
    },
}


def canonical_scenario() -> Scenario:
    """The built-in four-atom uniform scenario used when none is supplied."""
    return parse_scenario(CANONICAL_DOC)
