"""Property tests for the word machinery, over random words."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from e0graph.coxeter import CoxeterGroup

LABELS = ["A3", "B3", "I2(5)", "I2(6)", "A1xA1", "D4"]


@lru_cache(maxsize=None)
def group(label):
    return CoxeterGroup.from_spec(label)


def words_for(label):
    g = group(label)
    return st.lists(st.integers(1, g.rank), max_size=14).map(tuple)


@st.composite
def labelled_words(draw):
    label = draw(st.sampled_from(LABELS))
    return label, draw(words_for(label))


@given(labelled_words())
@settings(max_examples=300, deadline=None)
def test_reduce_word_properties(lw):
    label, word = lw
    g = group(label)
    reduced = g.reduce_word(word)
    assert g.is_reduced(reduced)
    assert g.element_from_word(reduced) == g.element_from_word(word)
    assert g.reduce_word(reduced) == reduced
    assert len(reduced) == g.element_from_word(word).length
    assert len(reduced) % 2 == len(word) % 2  # the sign character (-1)^l
    assert reduced == g.element_from_word(word).word  # the lexmin word


@given(labelled_words())
@settings(max_examples=300, deadline=None)
def test_is_reduced_matches_length(lw):
    label, word = lw
    g = group(label)
    assert g.is_reduced(word) == (g.element_from_word(word).length == len(word))


@given(labelled_words(), st.data())
@settings(max_examples=200, deadline=None)
def test_appending_a_letter_steps_length_by_one(lw, data):
    label, word = lw
    g = group(label)
    s = data.draw(st.integers(1, g.rank))
    before = g.element_from_word(word).length
    after = g.element_from_word(word + (s,)).length
    assert abs(after - before) == 1
