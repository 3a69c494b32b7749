"""Words in signed generators and presentation files.

A word is a freely reduced tuple of (generator index, sign) letters; the
empty word is the identity.  Presentations are parsed from a small
line-oriented text format:

    gens: <name>(, <name>)*
    rel [<label>]: <expr>

where expr ::= term ('*' term)*, term ::= atom ('^' int)?, and
atom ::= name | '(' expr ')' | '[' expr ',' expr ']'.  The commutator
shorthand [x, y] expands to x y x^-1 y^-1.  '#' starts a comment.  The
optional relator label (a bare identifier) is an extension of the base
grammar used to address relators from the command line.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple


class GeneratorSymbol(NamedTuple):
    index: int
    sign: int  # +1 or -1


def _reduce(letters: Iterable[Tuple[int, int]]) -> Tuple[GeneratorSymbol, ...]:
    stack: list[GeneratorSymbol] = []
    for idx, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if idx < 0:
            raise ValueError(f"negative generator index {idx}")
        sym = GeneratorSymbol(idx, sign)
        if stack and stack[-1].index == idx and stack[-1].sign == -sign:
            stack.pop()
        else:
            stack.append(sym)
    return tuple(stack)


class Word:
    """Freely reduced word, immutable; compare words by their letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Tuple[int, int]] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def max_index(self) -> int:
        return max((idx for idx, _ in self.letters), default=-1)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True, eq=False)
class Presentation:
    """Generator names plus freely reduced relator words with unique labels."""

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...] = ()
    labels: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("presentation needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be unique")
        for name in self.generators:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid generator name {name!r}")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"rel{i}" for i in range(len(self.relators)))
            )
        if len(self.labels) != len(self.relators):
            raise ValueError("one label per relator required")
        repeated = [lab for i, lab in enumerate(self.labels) if lab in self.labels[:i]]
        if repeated:
            raise ValueError(f"duplicate relator label {repeated[0]!r}")
        for rel in self.relators:
            if rel.max_index() >= len(self.generators):
                raise ValueError("relator uses an unknown generator index")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def relator_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no relator labeled {label!r}") from None

    def word_str(self, w: Word) -> str:
        if not w.letters:
            raise ValueError("cannot print the empty word as an expression")
        parts = []
        run_idx, run_exp = None, 0
        for idx, sign in list(w.letters) + [(-1, 0)]:
            if idx == run_idx and (sign > 0) == (run_exp > 0):
                run_exp += sign
                continue
            if run_idx is not None and run_idx >= 0:
                name = self.generators[run_idx]
                parts.append(name if run_exp == 1 else f"{name}^{run_exp}")
            run_idx, run_exp = idx, sign
        return "*".join(parts)

    def to_text(self) -> str:
        lines = ["gens: " + ", ".join(self.generators)]
        default_labels = all(
            lab == f"rel{i}" for i, lab in enumerate(self.labels)
        )
        for i, rel in enumerate(self.relators):
            tag = "rel" if default_labels else f"rel {self.labels[i]}"
            lines.append(f"{tag}: {self.word_str(rel)}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


# A relator's letter count is bounded before any power or commutator is
# built, so that a short expression such as t^1000000000000 (in a
# certificate, say) is refused rather than expanded.  The shipped presets
# need at most 12 letters, and zn:<n> needs n.
_MAX_LETTERS = 10 ** 6


class _ExprParser:
    def __init__(self, text: str, line: int, col0: int, gen_index: dict):
        self.text = text
        self.line = line
        self.col0 = col0
        self.pos = 0
        self.gen_index = gen_index

    def error(self, msg: str):
        raise PresentationSyntaxError(msg, self.line, self.col0 + self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        m = re.match(r"-?\d+", self.text[self.pos:])
        if not m:
            self.error("expected an integer exponent")
        self.pos += m.end()
        return int(m.group())

    def check_length(self, n: int, at: int):
        """Refuse n letters, naming the operator token at position at."""
        if n > _MAX_LETTERS:
            self.pos = at
            self.error(f"relator longer than {_MAX_LETTERS} letters")

    def parse_expr(self) -> list:
        letters = self.parse_term()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            letters += self.parse_term()
            self.check_length(len(letters), at)
        return letters

    def parse_term(self) -> list:
        letters = self.parse_atom()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            k = self.parse_int()
            self.check_length(len(letters) * abs(k), at)
            if k >= 0:
                letters = letters * k
            else:
                inv = [(i, -s) for i, s in reversed(letters)]
                letters = inv * (-k)
        return letters

    def parse_atom(self) -> list:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            letters = self.parse_expr()
            self.expect(")")
            return letters
        if ch == "[":
            at = self.pos
            self.pos += 1
            x = self.parse_expr()
            self.expect(",")
            y = self.parse_expr()
            self.expect("]")
            self.check_length(2 * (len(x) + len(y)), at)
            xi = [(i, -s) for i, s in reversed(x)]
            yi = [(i, -s) for i, s in reversed(y)]
            return x + y + xi + yi
        m = _NAME_RE.match(self.text[self.pos:])
        if not m:
            self.error("expected a generator name, '(' or '['")
        name = m.group()
        if name not in self.gen_index:
            self.error(f"unknown generator {name!r}")
        self.pos += m.end()
        return [(self.gen_index[name], 1)]

    def parse_full(self) -> list:
        letters = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return letters


_REL_RE = re.compile(r"rel(?:\s+([A-Za-z_][A-Za-z0-9_]*))?\s*:")


def parse_presentation(text: str) -> Presentation:
    generators: Optional[Tuple[str, ...]] = None
    gen_index: dict = {}
    relators: list[Word] = []
    labels: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if stripped.startswith("gens"):
            rest = stripped[len("gens"):].lstrip()
            if not rest.startswith(":"):
                raise PresentationSyntaxError("expected ':' after 'gens'", lineno, indent + 5)
            if generators is not None:
                raise PresentationSyntaxError("duplicate gens line", lineno, indent + 1)
            names = [n.strip() for n in rest[1:].split(",")]
            if names == [""]:
                raise PresentationSyntaxError("empty generator list", lineno, indent + 6)
            for n in names:
                if not _NAME_RE.fullmatch(n):
                    raise PresentationSyntaxError(f"invalid generator name {n!r}", lineno, indent + 6)
                if n in gen_index:
                    raise PresentationSyntaxError(f"duplicate generator {n!r}", lineno, indent + 6)
                gen_index[n] = len(gen_index)
            generators = tuple(names)
            continue
        m = _REL_RE.match(stripped)
        if m:
            if generators is None:
                raise PresentationSyntaxError("'rel' before 'gens'", lineno, indent + 1)
            label = m.group(1) or f"rel{len(relators)}"
            expr = stripped[m.end():]
            col0 = indent + m.end() + 1
            parser = _ExprParser(expr, lineno, col0, gen_index)
            rel = Word(parser.parse_full())
            if not len(rel):
                raise PresentationSyntaxError(
                    "relator freely reduces to the identity", lineno, col0
                )
            relators.append(rel)
            labels.append(label)
            continue
        raise PresentationSyntaxError("expected 'gens:' or 'rel:'", lineno, indent + 1)
    if generators is None:
        raise PresentationSyntaxError("missing gens line", 1, 1)
    return Presentation(generators, tuple(relators), tuple(labels))
