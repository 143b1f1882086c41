"""Tests for the canonical text encoding (the paper's input measure)."""

from fractions import Fraction

import pytest

from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.relational.encoding import (
    decode_structure,
    decode_unreliable_database,
    encode_error_function,
    encode_structure,
    encoded_size,
)
from repro.util.errors import ProbabilityError, VocabularyError


@pytest.fixture
def sample():
    return (
        StructureBuilder(["a", "b", 3])
        .relation("E", 2)
        .relation("S", 1)
        .add("E", ("a", "b"))
        .add("E", ("b", 3))
        .add("S", (3,))
        .build()
    )


class TestRoundTrip:
    def test_encode_decode_identity(self, sample):
        assert decode_structure(encode_structure(sample)) == sample

    def test_encoding_is_deterministic(self, sample):
        assert encode_structure(sample) == encode_structure(sample)

    def test_comments_and_blanks_ignored(self, sample):
        text = "# a comment\n\n" + encode_structure(sample)
        assert decode_structure(text) == sample

    def test_missing_universe_rejected(self):
        with pytest.raises(VocabularyError):
            decode_structure("relation E 2\n")

    def test_tuple_for_undeclared_relation_rejected(self):
        with pytest.raises(VocabularyError):
            decode_structure("universe 1\ntuple E 1 1\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(VocabularyError):
            decode_structure("universe 1\nbogus\n")


class TestSizes:
    def test_error_function_renders_fractions(self, sample):
        mu = {Atom("E", ("a", "b")): Fraction(1, 10)}
        text = encode_error_function(mu)
        assert "1/10" in text

    def test_encoded_size_grows_with_data(self, sample):
        small = encoded_size(sample, {})
        big = encoded_size(
            sample, {atom: Fraction(1, 7) for atom in sample.atoms()}
        )
        assert big > small


HEADER = "universe 1 'a'\nrelation E 2\n"


class TestDecodeErrors:
    """Every error a database document can raise, message and all.

    Line numbers of structure errors count the document's lines other
    than ``error`` lines.
    """

    @pytest.mark.parametrize("text, error, message", [
        ("universe 1 a\n", VocabularyError,
         "cannot parse universe element 'a'"),
        ("universe 1\nrelation E\n", VocabularyError,
         "line 2: bad relation line 'relation E'"),
        ("error E 1/2 1 1\nuniverse 1\ntuple E 1 1\n", VocabularyError,
         "line 2: tuple for undeclared relation 'E'"),
        ("universe 1\n\nerror E 1/2 1 1\nbogus 1\n", VocabularyError,
         "line 3: unknown directive 'bogus'"),
        ("relation E 2\n", VocabularyError,
         "encoding is missing the universe line"),
        (HEADER + "error E\n", VocabularyError,
         "line 3: bad error line 'error E'"),
        (HEADER + "error E 1/2 1 b\n", VocabularyError,
         "cannot parse universe element 'b'"),
        (HEADER + "error F 1/2 1 1\n", VocabularyError,
         "unknown relation 'F'"),
        (HEADER + "error E 1/2 1\n", VocabularyError,
         "atom E(1) has arity 1, relation has 2"),
        (HEADER + "error E 1/2 1 2\n", VocabularyError,
         "atom E(1, 2) mentions 2, not in universe"),
        (HEADER + "error E 3/2 1 'a'\n", ProbabilityError,
         "probability 3/2 outside [0, 1]"),
        (HEADER + "error E -1/2 1 'a'\n", ProbabilityError,
         "probability -1/2 outside [0, 1]"),
    ])
    def test_message(self, text, error, message):
        with pytest.raises(error) as raised:
            decode_unreliable_database(text)
        assert str(raised.value) == message

    def test_probabilities_parse_exactly(self):
        db = decode_unreliable_database(
            HEADER + "error E 2/4 1 'a'\nerror E 1 'a' 1\nerror E 0.25 1 1\n"
        )
        assert db.mu(Atom("E", (1, "a"))) == Fraction(1, 2)
        assert db.mu(Atom("E", ("a", 1))) == 1
        assert db.mu(Atom("E", (1, 1))) == Fraction(1, 4)
        assert db.uncertain_atoms() == (Atom("E", (1, "a")), Atom("E", (1, 1)))
