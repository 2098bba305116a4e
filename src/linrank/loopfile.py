"""Line-oriented loop file format.

    # integer base-2 logarithm
    vars: x1 x2
    guard: x1 >= 2
    update: 2*x1' <= x1, 2*x1' + 1 >= x1, x2' = x2 + 1, x2' >= 1

The `vars:` line comes first; then either one `single:` section over
(x, x') or a `guard:` section (unprimed variables only) followed by an
`update:` section.  Constraints are separated by commas and/or newlines and
use `<=`, `=` or `>=` -- strict relations are rejected at parse time.
Coefficients are integers or `p/q` fractions in ASCII digits; decimals
are rejected.
Serialization emits the same grammar and round-trips losslessly.
A malformed file raises `LoopParseError`, which carries the 1-based line
and column of the offending token (the first error in reading order).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .constraints import ConstraintSystem, LinConstraint, LoopModel, VarSpace


class LoopParseError(ValueError):
    """Syntax or semantic error in a loop file, with 1-based position."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*'?)"
    r"|(?P<rel><=|>=|=|<|>)"
    r"|(?P<op>[*+-])"
    r"|(?P<bad>\S)"
)

_SECTIONS = ("single", "guard", "update")


def _tokenize(text: str, line_no: int, col_base: int):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, col_base + m.start() + 1
        if kind == "bad":
            raise LoopParseError(f"unexpected character {m.group()!r}", line_no, col)
        tokens.append((kind, m.group(), col))
    return tokens


def _parse_constraint(tokens, line, variables, allow_primed) -> LinConstraint:
    """Parse one `lhs rel rhs` constraint from its (non-empty) token list in
    one left-to-right pass: each term goes into the coefficients with its
    side's sign (+1 before the relation, -1 after) and each constant into
    the right-hand side with the opposite one.  The first error met is
    raised, at the column of its token, or of the last token when the
    constraint stops short."""
    coeffs = [Fraction(0)] * len(variables)
    const = Fraction(0)
    rel, side, first = None, 1, True  # first: no term yet on this side
    end = (None, None, tokens[-1][2])
    i = 0
    while True:
        kind, value, col = tokens[i] if i < len(tokens) else end
        if kind is None or kind == "rel":
            if kind and rel:
                raise LoopParseError("unexpected second relation", line, col)
            if first:
                raise LoopParseError("empty side of constraint", line, col)
            if kind is None:
                if rel is None:
                    raise LoopParseError("expected a relation (<=, = or >=)", line, col)
                return LinConstraint(tuple(coeffs), rel, const)
            if value in ("<", ">"):
                raise LoopParseError("strict inequality not allowed in loop files", line, col)
            rel, side, first = value, -1, True
            i += 1
            continue
        sign = side
        if kind == "op" and value in "+-":
            sign = -side if value == "-" else side
            i += 1
            kind, value, col = tokens[i] if i < len(tokens) else end
        elif not first:
            raise LoopParseError("expected '+' or '-' between terms", line, col)
        first = False
        i += 1
        if kind == "num":
            try:
                magnitude = Fraction(value)
            except ZeroDivisionError:
                raise LoopParseError("zero denominator", line, col) from None
            except ValueError:  # more digits than int() converts
                raise LoopParseError("number has too many digits", line, col) from None
            nkind, nvalue, ncol = tokens[i] if i < len(tokens) else end
            if nkind == "name":
                raise LoopParseError("missing '*' between coefficient and variable", line, ncol)
            if nvalue != "*":
                const -= sign * magnitude
                continue
            kind, value, col = tokens[i + 1] if i + 1 < len(tokens) else (None, None, col)
            i += 2
            if kind != "name":
                raise LoopParseError("expected a variable after '*'", line, col)
        elif kind == "name":
            magnitude = 1
        else:
            raise LoopParseError("expected a term", line, col)
        if value.endswith("'") and not allow_primed:
            raise LoopParseError(f"primed variable {value!r} not allowed in a guard", line, col)
        if value not in variables:
            raise LoopParseError(f"undeclared variable {value!r}", line, col)
        coeffs[variables.index(value)] += sign * magnitude


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_loop(text: str) -> LoopModel:
    """Parse a loop file; raises LoopParseError with line/column on errors."""
    space: VarSpace | None = None
    sections: dict[str, list[tuple[int, int, str]]] = {}
    at: dict[str, tuple[int, int]] = {}  # each header's line and column
    current: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        header = stripped.split(":", 1)[0].strip().lower() if ":" in stripped else None
        if space is None:
            if header != "vars":
                raise LoopParseError("expected 'vars:' as the first declaration",
                                     line_no, indent + 1)
            names: list[str] = []
            body_col = indent + stripped.index(":") + 2  # 1-based column after the colon
            for m in re.finditer(r"\S+", stripped.split(":", 1)[1]):
                name, col = m.group(), body_col + m.start()
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                    raise LoopParseError(f"bad variable name {name!r}", line_no, col)
                if name in names:
                    raise LoopParseError(f"duplicate variable name {name!r}", line_no, col)
                names.append(name)
            if not names:
                raise LoopParseError("'vars:' declares no variables", line_no, indent + 1)
            space = VarSpace(tuple(names))
            at["vars"] = (line_no, indent + 1)
            continue
        if header in _SECTIONS:
            if header in sections:
                raise LoopParseError(f"duplicate section '{header}:'", line_no, indent + 1)
            sections[header] = []
            at[header] = (line_no, indent + 1)
            current = header
            rest = stripped.split(":", 1)[1]
            col_base = indent + stripped.index(":") + 1
            if rest.strip():
                sections[header].append((line_no, col_base, rest))
        elif header == "vars":
            raise LoopParseError("duplicate 'vars:' declaration", line_no, indent + 1)
        else:
            if current is None:
                raise LoopParseError("constraint before any section header",
                                     line_no, indent + 1)
            sections[current].append((line_no, indent, line[indent:]))

    if space is None:
        raise LoopParseError("empty loop file: missing 'vars:' declaration", 1, 1)
    order = list(sections)
    if order not in (["single"], ["guard", "update"]):
        # At the first header that breaks the grammar, else where the file stops short.
        bad = next((h for i, h in enumerate(order)
                    if order[: i + 1] not in (["single"], ["guard"], ["guard", "update"])), None)
        combined = "single" in order and len(order) > 1
        message = ("'single:' cannot be combined with 'guard:'/'update:'" if combined
                   else "expected a 'single:' section, or 'guard:' then 'update:'")
        raise LoopParseError(message, *at[bad or list(at)[-1]])

    def parse_section(name: str, variables: tuple[str, ...], allow_primed: bool):
        rows: list[LinConstraint] = []
        for line_no, col_base, chunk in sections[name]:
            offset = 0
            for piece in chunk.split(","):
                if piece.strip():
                    tokens = _tokenize(piece, line_no, col_base + offset)
                    rows.append(_parse_constraint(tokens, line_no, variables, allow_primed))
                offset += len(piece) + 1
        return ConstraintSystem(variables, tuple(rows))

    if "single" in sections:
        single = parse_section("single", space.combined_names, allow_primed=True)
        return LoopModel(space, single=single)
    guard = parse_section("guard", space.names, allow_primed=False)
    update = parse_section("update", space.combined_names, allow_primed=True)
    return LoopModel(space, guard=guard, update=update)


def serialize_loop(loop: LoopModel) -> str:
    """Render in the loop file grammar; parse_loop(serialize_loop(m)) == m."""
    lines = [f"vars: {' '.join(loop.space.names)}"]
    if loop.single is not None:
        lines.append("single:")
        lines.extend(f"  {row}" for row in loop.single.render())
    else:
        lines.append("guard:")
        lines.extend(f"  {row}" for row in loop.guard.render())
        lines.append("update:")
        lines.extend(f"  {row}" for row in loop.update.render())
    return "\n".join(lines) + "\n"
