import random

import pytest

from gapcert import words
from gapcert.presets import load_preset
from gapcert.words import (
    Presentation,
    PresentationSyntaxError,
    Word,
    parse_presentation,
)


def test_free_reduce_cancellation_to_identity():
    assert Word([(0, 1), (0, -1)]).letters == ()


def test_free_reduce_inner_cancellation():
    w = Word([(0, 1), (1, 1), (1, -1), (0, 1)])
    assert w.letters == ((0, 1), (0, 1))


def test_free_reduce_idempotent_on_random_sequences():
    rng = random.Random(7)
    for _ in range(200):
        seq = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        once = Word(seq)
        assert Word(once.letters).letters == once.letters


def test_a_word_is_an_immutable_tuple_of_its_letters():
    w = Word([(1, -1), (0, 1), (0, -1), (2, 1)])
    assert w == ((1, -1), (2, 1)) and isinstance(w, tuple)
    assert len(w) == 2 and list(w) == [(1, -1), (2, 1)]
    # words compare and hash by their letters
    assert w == Word([(1, -1), (2, 1)]) and hash(w) == hash(Word(w.letters))
    assert type(w.letters) is tuple
    with pytest.raises(AttributeError):
        w.letters = ()
    with pytest.raises(AttributeError):
        w.extra = 1


def _letters(rels):
    return [w.letters for w in parse_presentation("gens: a, b\n" + rels).relators]


def test_invert_trivial_cases():
    # the parser inverts words as letter lists
    text = "rel: (a*b^-1)^-1\nrel: ((a*b^-1)^-1)^-1\nrel: (a^-1)^-1\n"
    assert _letters(text) == [((1, 1), (0, -1)), ((0, 1), (1, -1)), ((0, 1),)]


def test_concat_cases():
    # the parser concatenates letter lists, and Word reduces the result
    text = "rel: a*b*(a*b)^-1*a\nrel: (a*b)^-1*a*b*b\nrel: a*a\n"
    assert _letters(text) == [((0, 1),), ((1, 1),), ((0, 1), (0, 1))]


def test_word_pow():
    text = "rel: a^3\nrel: a^-2\nrel: a^0*b\nrel: (a*b)^-2\n"
    assert _letters(text) == [((0, 1),) * 3, ((0, -1),) * 2, ((1, 1),), ((1, -1), (0, -1)) * 2]


def test_parse_simple_cyclic():
    p = parse_presentation("gens: t\nrel: t^3\n")
    assert p.generators == ("t",)
    assert [w.letters for w in p.relators] == [((0, 1),) * 3]


def test_parse_commutator_shorthand():
    p = parse_presentation("gens: a,b\nrel: [a,b]\n")
    assert p.relators[0].letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_nested_and_powers():
    p = parse_presentation("gens: a, b\nrel: (a*b^-1)^2 * [b, a]^-1\n")
    # (a b^-1)^2 [b, a]^-1 = a b^-1 a b^-1 a b a^-1 b^-1
    assert p.relators[0].letters == ((0, 1), (1, -1)) * 2 + ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_comments_and_labels():
    text = "# header\ngens: a, b  # inline\nrel cab: [a, b]\n"
    p = parse_presentation(text)
    assert p.labels == ("cab",)
    assert p.relator_index("cab") == 0
    with pytest.raises(KeyError):
        p.relator_index("missing")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("rel: a\n", "'rel' before 'gens'"),
        ("gens: a\nrel: b\n", "unknown generator"),
        ("gens:\nrel: a\n", "empty generator"),
        ("gens: a, a\n", "duplicate generator"),
        ("gens: a\nrel: a*\n", "expected"),
        ("gens: a\nrel: (a\n", "expected"),
        ("gens: a\nrel: a^x\n", "integer exponent"),
        ("gens: a\nrel: a*a^-1\n", "reduces to the identity"),
        ("bogus line\n", "expected 'gens:'"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(PresentationSyntaxError) as exc:
        parse_presentation(text)
    assert fragment in str(exc.value)
    assert exc.value.line >= 1 and exc.value.column >= 1


@pytest.mark.parametrize("label", ["none", "longest"])
def test_reserved_relator_labels_are_refused_at_the_label(label):
    with pytest.raises(PresentationSyntaxError, match=f"relator label '{label}' is reserved") as exc:
        parse_presentation(f"gens: a\nrel x: a^2\n  rel  {label}: a^3\n")
    assert (exc.value.line, exc.value.column) == (3, 8)


@pytest.mark.parametrize(
    "text,position",
    [
        pytest.param("gens: a\nrel x: a^2\n  rel  x: a^3\n", (3, 8), id="explicit"),
        pytest.param("gens: a\nrel rel1: a^2\n  rel: a^3\n", (3, 3), id="default_after_explicit"),
        pytest.param("gens: a\nrel: a^2\nrel rel0: a^3\n", (3, 5), id="explicit_after_default"),
    ],
)
def test_duplicate_relator_labels_are_refused_at_the_label(text, position):
    with pytest.raises(PresentationSyntaxError, match="duplicate relator label") as exc:
        parse_presentation(text)
    assert (exc.value.line, exc.value.column) == position


def _parts(p):
    return p.generators, [w.letters for w in p.relators], p.labels


def test_print_parse_round_trip():
    text = "gens: a, b\nrel: [a,b]\nrel: a^3*b^-2\n"
    p = parse_presentation(text)
    assert _parts(parse_presentation(p.to_text())) == _parts(p)


def test_print_parse_round_trip_with_labels():
    text = "gens: a, b\nrel one: [a,b]\nrel two: a^5\n"
    p = parse_presentation(text)
    assert _parts(parse_presentation(p.to_text())) == _parts(p)


def test_presentation_validation():
    with pytest.raises(ValueError, match="^relator uses an unknown generator index$"):
        Presentation(("a",), (Word([(3, 1)]),))
    with pytest.raises(ValueError, match="^one label per relator required$"):
        Presentation(("a",), (Word([(0, 1)]),), ("x", "y"))


@pytest.mark.parametrize(
    "generators, message",
    [
        ((), "empty generator list"),
        (("a", "b", "a"), "duplicate generator 'a'"),
        (("a", "2b"), "invalid generator name '2b'"),
        (("a", ""), "invalid generator name ''"),
    ],
    ids=["empty", "duplicate", "not_a_name", "empty_name"],
)
def test_presentation_and_parser_give_one_message_per_generator_rule(generators, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Presentation(generators)
    with pytest.raises(PresentationSyntaxError, match=f"^line 1, column 6: {message}$"):
        parse_presentation("gens: " + ", ".join(generators) + "\n")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("gens: a\nrel e: a*a^-1\n", "relator e freely reduces to the identity", (2, 7)),
        ("gens: a\nrel: a^2\n rel: a^0\n", "relator rel1 freely reduces to the identity", (3, 6)),
    ],
    ids=["labelled", "default_label"],
)
def test_an_empty_relator_is_refused_by_its_label_at_its_expression(text, message, position):
    with pytest.raises(PresentationSyntaxError, match=f"{message}$") as exc:
        parse_presentation(text)
    assert (exc.value.line, exc.value.column) == position


@pytest.mark.parametrize(
    "relators, labels, message",
    [
        ((Word([(0, 1)] * 3),), ("bad label",), "invalid relator label 'bad label'"),
        ((Word([(0, 1)] * 3),), ("",), "invalid relator label ''"),
        ((Word([]),), (), "relator rel0 freely reduces to the identity"),
        ((Word([(0, 1), (0, -1)]),), ("e",), "relator e freely reduces to the identity"),
        # --exclude-relator reads these as policies, so no relator could be excluded by them
        ((Word([(0, 1)] * 3),), ("none",), "relator label 'none' is reserved"),
        ((Word([(0, 1)] * 3),), ("longest",), "relator label 'longest' is reserved"),
    ],
    ids=["space", "empty_label", "empty_word", "cancelling_word", "none", "longest"],
)
def test_presentation_applies_the_parser_rules(relators, labels, message):
    # a presentation the parser would refuse cannot be built, so to_text
    # never writes a file that fails to parse
    with pytest.raises(ValueError, match=f"^{message}$"):
        Presentation(("a",), relators, labels)


_HAND_BUILT = Presentation(
    ("x", "y_2"),
    (Word([(0, 1), (1, 1), (0, -1), (1, -1)]), Word([(0, 1)] * 4), Word([(1, -1)] * 2 + [(0, 1)])),
    ("comm", "rel0", "Mixed_1"),
)


@pytest.mark.parametrize(
    "p",
    [*(load_preset(name)[0] for name in ("z3", "zn:5", "z2-abelian", "free:2", "sl3z", "sl3z-mod:2")),
     _HAND_BUILT],
    ids=["z3", "zn:5", "z2-abelian", "free:2", "sl3z", "sl3z-mod:2", "hand_built"],
)
def test_every_presentation_prints_text_that_parses_back(p):
    assert _parts(parse_presentation(p.to_text())) == _parts(p)


@pytest.mark.parametrize(
    "text,label",
    [
        ("gens: a\nrel x: a^2\nrel x: a^3\n", "x"),
        ("gens: a\nrel rel1: a^2\nrel: a^3\n", "rel1"),
    ],
    ids=["explicit", "explicit_then_default"],
)
def test_duplicate_relator_labels_are_rejected(text, label):
    with pytest.raises(ValueError, match=f"duplicate relator label '{label}'"):
        parse_presentation(text)


@pytest.mark.parametrize("expr", ["t^1000000000000", "(t^1000000)^1000000"])
def test_a_huge_power_is_refused_before_it_is_built(expr):
    # expanded, either relator would ask for 8 TB
    with pytest.raises(PresentationSyntaxError, match="longer than 1000000 letters") as exc:
        parse_presentation(f"gens: t\nrel: {expr}\n")
    assert (exc.value.line, exc.value.column) == (2, 6 + expr.rindex("^"))


@pytest.mark.parametrize(
    "expr,token",
    [("t^11", "^"), ("(a*b)^-6", "^"), ("[a^3, b^3]", "["), ("a^6*b^5", "*"),
     ("a*b*a*b*a*b*a*b*a*b*a", "*")],
)
def test_the_letter_cap_counts_each_power_commutator_and_product(monkeypatch, expr, token):
    monkeypatch.setattr(words, "_MAX_LETTERS", 10)
    with pytest.raises(PresentationSyntaxError, match="longer than 10 letters") as exc:
        parse_presentation(f"gens: a, b, t\nrel: {expr}\n")
    assert f"rel: {expr}"[exc.value.column - 1] == token
    assert len(parse_presentation("gens: a, b\nrel: [a^2, b^3]\nrel: (a*b)^5\n").relators) == 2
