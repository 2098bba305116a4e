"""Line-oriented loop file format.

    # integer base-2 logarithm
    vars: x1 x2
    guard: x1 >= 2
    update: 2*x1' <= x1, 2*x1' + 1 >= x1, x2' = x2 + 1, x2' >= 1

The `vars:` line comes first; then either one `single:` section over
(x, x') or a `guard:` section (unprimed variables only) followed by an
`update:` section.  Constraints are separated by commas and/or newlines and
use `<=`, `=` or `>=` -- strict relations are rejected at parse time.
Coefficients are integers or `p/q` fractions; decimals are rejected.
Serialization emits the same grammar and round-trips losslessly.
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
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*'?)"
    r"|(?P<rel><=|>=|=|<|>)"
    r"|(?P<op>[*+-])"
    r")"
)

_SECTIONS = ("single", "guard", "update")


def _tokenize(text: str, line_no: int, col_base: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_col = col_base + pos + (len(text[pos:]) - len(stripped))
            raise LoopParseError(f"unexpected character {stripped[0]!r}", line_no, bad_col + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), col_base + m.start(kind) + 1))
        pos = m.end()
    return tokens


class _TermParser:
    """Parses one `lhs rel rhs` constraint from a token list."""

    def __init__(self, tokens, line_no, variables, allow_primed):
        self.tokens = tokens
        self.i = 0
        self.line = line_no
        self.variables = variables
        self.allow_primed = allow_primed

    def error(self, message: str):
        col = self.tokens[self.i][2] if self.i < len(self.tokens) else (
            self.tokens[-1][2] if self.tokens else 1
        )
        raise LoopParseError(message, self.line, col)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> LinConstraint:
        lhs_coeffs, lhs_const = self.parse_side(stop_at_rel=True)
        kind, value, col = self.take()
        if kind != "rel":
            raise LoopParseError("expected a relation (<=, = or >=)", self.line,
                                 col or (self.tokens[-1][2] if self.tokens else 1))
        if value in ("<", ">"):
            raise LoopParseError(
                "strict inequality not allowed in loop files", self.line, col
            )
        rhs_coeffs, rhs_const = self.parse_side(stop_at_rel=False)
        if self.i != len(self.tokens):
            self.error("trailing input after constraint")
        coeffs = tuple(a - b for a, b in zip(lhs_coeffs, rhs_coeffs))
        return LinConstraint(coeffs, value, rhs_const - lhs_const)

    def parse_side(self, stop_at_rel: bool):
        coeffs = [Fraction(0)] * len(self.variables)
        const = Fraction(0)
        first = True
        while True:
            kind, value, col = self.peek()
            if kind is None or (stop_at_rel and kind == "rel"):
                if first:
                    self.error("empty side of constraint")
                return coeffs, const
            if kind == "rel":
                self.error("unexpected second relation")
            sign = Fraction(1)
            if kind == "op" and value in "+-":
                sign = Fraction(-1) if value == "-" else Fraction(1)
                self.take()
                kind, value, col = self.peek()
            elif not first:
                self.error("expected '+' or '-' between terms")
            first = False
            if kind == "num":
                self.take()
                try:
                    magnitude = Fraction(value)
                except ZeroDivisionError:
                    raise LoopParseError("zero denominator", self.line, col) from None
                nkind, nvalue, ncol = self.peek()
                if nkind == "op" and nvalue == "*":
                    self.take()
                    vkind, vname, vcol = self.take()
                    if vkind != "name":
                        raise LoopParseError("expected a variable after '*'", self.line,
                                             vcol or col)
                    coeffs[self.var_index(vname, vcol)] += sign * magnitude
                elif nkind == "name":
                    raise LoopParseError("missing '*' between coefficient and variable",
                                         self.line, ncol)
                else:
                    const += sign * magnitude
            elif kind == "name":
                self.take()
                coeffs[self.var_index(value, col)] += sign
            else:
                self.error("expected a term")

    def var_index(self, name: str, col: int) -> int:
        if name.endswith("'") and not self.allow_primed:
            raise LoopParseError(
                f"primed variable {name!r} not allowed in a guard", self.line, col
            )
        try:
            return self.variables.index(name)
        except ValueError:
            raise LoopParseError(f"undeclared variable {name!r}", self.line, col) from None


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_loop(text: str) -> LoopModel:
    """Parse a loop file; raises LoopParseError with line/column on errors."""
    space: VarSpace | None = None
    sections: dict[str, list[tuple[int, int, str]]] = {}
    order: list[str] = []
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
            names = stripped.split(":", 1)[1].split()
            if not names:
                raise LoopParseError("'vars:' declares no variables", line_no, indent + 1)
            if len(set(names)) != len(names):
                raise LoopParseError("duplicate variable name", line_no, indent + 1)
            for name in names:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                    raise LoopParseError(f"bad variable name {name!r}", line_no, indent + 1)
            space = VarSpace(tuple(names))
            continue
        if header in _SECTIONS:
            if header in sections:
                raise LoopParseError(f"duplicate section '{header}:'", line_no, indent + 1)
            sections[header] = []
            order.append(header)
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
    if "single" in sections and ("guard" in sections or "update" in sections):
        raise LoopParseError("'single:' cannot be combined with 'guard:'/'update:'", 1, 1)
    if "single" not in sections and order != ["guard", "update"]:
        raise LoopParseError("expected a 'single:' section, or 'guard:' then 'update:'", 1, 1)

    def parse_section(name: str, variables: tuple[str, ...], allow_primed: bool):
        rows: list[LinConstraint] = []
        for line_no, col_base, chunk in sections[name]:
            offset = 0
            for piece in chunk.split(","):
                if piece.strip():
                    tokens = _tokenize(piece, line_no, col_base + offset)
                    parser = _TermParser(tokens, line_no, variables, allow_primed)
                    rows.append(parser.parse())
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
