import random

import pytest

from gapcert.words import (
    Presentation,
    PresentationSyntaxError,
    Word,
    parse_presentation,
)


def test_free_reduce_cancellation_to_identity():
    assert Word([(0, 1), (0, -1)]) == Word.identity()


def test_free_reduce_inner_cancellation():
    w = Word([(0, 1), (1, 1), (1, -1), (0, 1)])
    assert w.letters == ((0, 1), (0, 1))


def test_free_reduce_idempotent_on_random_sequences():
    rng = random.Random(7)
    for _ in range(200):
        seq = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        once = Word(seq)
        assert Word(once.letters) == once


def test_invert_trivial_cases():
    assert Word.identity().inverse() == Word.identity()
    w = Word([(0, 1), (1, -1)])
    assert w.inverse().letters == ((1, 1), (0, -1))
    assert w.inverse().inverse() == w


def test_concat_cases():
    w = Word([(0, 1), (1, 1)])
    assert Word.identity() * w == w
    assert w * w.inverse() == Word.identity()
    assert w.inverse() * w == Word.identity()
    assert (Word([(0, 1)]) * Word([(0, 1)])).letters == ((0, 1), (0, 1))


def test_concat_associative_random():
    rng = random.Random(11)
    for _ in range(100):
        u, v, w = (
            Word([(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
            for _ in range(3)
        )
        assert (u * v) * w == u * (v * w)


def test_word_pow():
    t = Word([(0, 1)])
    assert (t ** 3).letters == ((0, 1),) * 3
    assert (t ** -2).letters == ((0, -1),) * 2
    assert t ** 0 == Word.identity()


def test_parse_simple_cyclic():
    p = parse_presentation("gens: t\nrel: t^3\n")
    assert p.generators == ("t",)
    assert p.relators == (Word([(0, 1)] * 3),)


def test_parse_commutator_shorthand():
    p = parse_presentation("gens: a,b\nrel: [a,b]\n")
    assert p.relators[0] == Word([(0, 1), (1, 1), (0, -1), (1, -1)])


def test_parse_nested_and_powers():
    p = parse_presentation("gens: a, b\nrel: (a*b^-1)^2 * [b, a]^-1\n")
    expected = (
        Word([(0, 1), (1, -1)]) ** 2
        * (Word([(1, 1), (0, 1), (1, -1), (0, -1)])).inverse()
    )
    assert p.relators[0] == expected


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


def test_print_parse_round_trip():
    text = "gens: a, b\nrel: [a,b]\nrel: a^3*b^-2\n"
    p = parse_presentation(text)
    assert parse_presentation(p.to_text()) == p


def test_print_parse_round_trip_with_labels():
    text = "gens: a, b\nrel one: [a,b]\nrel two: a^5\n"
    p = parse_presentation(text)
    q = parse_presentation(p.to_text())
    assert q == p and q.labels == p.labels


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
