"""Words in signed generators and presentation files.

A word is a freely reduced tuple of (generator index, sign) letters; the
empty word is the identity.  Presentations are parsed from a small
line-oriented text format:

    gens: <name>(, <name>)*
    rel [<label>]: <expr>

where expr ::= term ('*' term)*, term ::= atom ('^' int)?, and
atom ::= name | '(' expr ')' | '[' expr ',' expr ']'.  The commutator
shorthand [x, y] expands to x y x^-1 y^-1.  '#' starts a comment.  The
optional relator label (a bare identifier other than `none` and
`longest`, which name --exclude-relator policies) is an extension of the
base grammar used to address relators from the command line.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple


def _reduce(letters: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    stack: list[Tuple[int, int]] = []
    for idx, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if idx < 0:
            raise ValueError(f"negative generator index {idx}")
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
    return tuple(stack)


class Word(tuple):
    """Freely reduced word: a tuple of (generator index, sign) letters."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Tuple[int, int]] = ()):
        return super().__new__(cls, _reduce(letters))

    @property
    def letters(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _generators_fault(names: Sequence[str]) -> Optional[str]:
    """The rule that the generator list names breaks, or None."""
    if not names:
        return "empty generator list"
    for k, name in enumerate(names):
        if not _NAME_RE.fullmatch(name):
            return f"invalid generator name {name!r}"
        if name in names[:k]:
            return f"duplicate generator {name!r}"
    return None


def _relator_fault(
    label: str, earlier: Sequence[str], word: Optional[Word] = None, n_generators: int = 0
) -> Optional[str]:
    """The rule that relator `label: word` after the labels earlier breaks, or None.

    Without a word only the label is checked.
    """
    if not _NAME_RE.fullmatch(label):
        return f"invalid relator label {label!r}"
    if label in ("none", "longest"):
        return f"relator label {label!r} is reserved"
    if label in earlier:
        return f"duplicate relator label {label!r}"
    if word is None:
        return None
    if not word:
        return f"relator {label} freely reduces to the identity"
    if max(idx for idx, _ in word) >= n_generators:
        return "relator uses an unknown generator index"
    return None


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True, eq=False)
class Presentation:
    """Generator names plus freely reduced relator words with unique labels.

    The parser's rules hold for any presentation, so to_text parses back:
    names and labels are identifiers, no label is `none` or `longest`, and
    no relator is the empty word.
    """

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...] = ()
    labels: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"rel{i}" for i in range(len(self.relators))))
        if len(self.labels) != len(self.relators):
            raise ValueError("one label per relator required")
        faults = (_relator_fault(label, self.labels[:k], rel, len(self.generators))
                  for k, (label, rel) in enumerate(zip(self.labels, self.relators)))
        if fault := _generators_fault(self.generators) or next(filter(None, faults), None):
            raise ValueError(fault)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def relator_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no relator labeled {label!r}") from None

    def word_str(self, w: Word) -> str:
        if not w:
            raise ValueError("cannot print the empty word as an expression")
        parts = []
        run_idx, run_exp = None, 0
        for idx, sign in [*w, (-1, 0)]:
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
# need at most 12 letters, and zn:<n> needs n.  Brackets nest at most
# _MAX_DEPTH deep, which bounds the parser's recursion; the presets nest 1.
_MAX_LETTERS = 10 ** 6
_MAX_DEPTH = 100


class _ExprParser:
    def __init__(self, text: str, line: int, col0: int, gen_index: dict):
        self.text = text
        self.line = line
        self.col0 = col0
        self.pos = 0
        self.depth = 0
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
        if ch in ("(", "["):
            if self.depth == _MAX_DEPTH:
                self.error(f"brackets nested more than {_MAX_DEPTH} deep")
            at = self.pos
            self.pos += 1
            self.depth += 1
            x = self.parse_expr()
            if ch == "(":
                self.expect(")")
            else:
                self.expect(",")
                y = self.parse_expr()
                self.expect("]")
                self.check_length(2 * (len(x) + len(y)), at)
                x = x + y + [(i, -s) for i, s in reversed(x)] + [(i, -s) for i, s in reversed(y)]
            self.depth -= 1
            return x
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


_REL_RE = re.compile(rf"rel(?:\s+({_NAME_RE.pattern}))?\s*:")


def parse_presentation(text: str) -> Presentation:
    generators: Optional[Tuple[str, ...]] = None
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
            generators = tuple(n.strip() for n in rest[1:].split(",")) if rest[1:].strip() else ()
            if fault := _generators_fault(generators):
                raise PresentationSyntaxError(fault, lineno, indent + 6)
            gen_index = {name: k for k, name in enumerate(generators)}
            continue
        m = _REL_RE.match(stripped)
        if m:
            if generators is None:
                raise PresentationSyntaxError("'rel' before 'gens'", lineno, indent + 1)
            label = m.group(1) or f"rel{len(relators)}"
            at = indent + max(m.start(1), 0) + 1  # the label's column, or rel's if none
            if fault := _relator_fault(label, labels):
                raise PresentationSyntaxError(fault, lineno, at)
            expr = stripped[m.end():]
            col0 = indent + m.end() + 1
            parser = _ExprParser(expr, lineno, col0, gen_index)
            rel = Word(parser.parse_full())
            if fault := _relator_fault(label, labels, rel, len(generators)):
                raise PresentationSyntaxError(fault, lineno, col0)
            relators.append(rel)
            labels.append(label)
            continue
        raise PresentationSyntaxError("expected 'gens:' or 'rel:'", lineno, indent + 1)
    if generators is None:
        raise PresentationSyntaxError("missing gens line", 1, 1)
    return Presentation(generators, tuple(relators), tuple(labels))
