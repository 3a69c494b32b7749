import random

import pytest

from gapcert import words
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
    with pytest.raises(ValueError):
        Presentation(("a",), (Word([(3, 1)]),))
    with pytest.raises(ValueError):
        Presentation(())


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
