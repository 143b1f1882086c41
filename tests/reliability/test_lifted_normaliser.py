"""The lifted engine and the dichotomy classifier normalise queries alike.

:func:`is_hierarchical` and :func:`has_self_join` refuse exactly the
queries the classifier places outside its fragment (not first-order,
not Boolean, not conjunctive), and :func:`is_safe` is the verdict's
flag, whichever form — text, formula, ``FOQuery`` or
``ConjunctiveQuery`` — the query comes in.
"""

import random

import pytest

from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.evaluator import FOQuery
from repro.logic.parser import parse
from repro.logic.safety import classify_dichotomy
from repro.reliability.lifted import has_self_join, is_hierarchical, is_safe
from repro.util.errors import QueryError

from tests.logic.test_safety_differential import _seeds, random_sjf_cq

OUT_OF_FRAGMENT = {"not_first_order", "not_boolean", "not_conjunctive"}

#: Text -> how many of its four forms can be built (an unparsable text
#: has only itself; a disjunction has no ConjunctiveQuery form).
EXTRA = {
    "exists y. E(x, y) & S(y)": 4,  # k-ary CQ
    "exists x. R(x) | T(x)": 3,  # disjunction
    "exists x. R(x) &": 1,  # unparsable
}

TEXTS = [
    (str(random_sjf_cq(random.Random(seed)).to_formula()), 4)
    for seed in _seeds()
] + sorted(EXTRA.items())


def _forms(text):
    forms = [text]
    for make in (parse, FOQuery, ConjunctiveQuery.from_text):
        try:
            forms.append(make(text))
        except QueryError:
            pass
    return forms


@pytest.mark.parametrize("text, expected_forms", TEXTS)
def test_one_normaliser_for_lifted_and_classifier(text, expected_forms):
    forms = _forms(text)
    assert len(forms) == expected_forms
    for query in forms:
        verdict = classify_dichotomy(query)
        refused = verdict.reason in OUT_OF_FRAGMENT
        for oracle in (is_hierarchical, has_self_join):
            try:
                oracle(query)
            except QueryError:
                assert refused, (oracle.__name__, text, type(query))
            else:
                assert not refused, (oracle.__name__, text, type(query))
        assert is_safe(query) == verdict.safe, (text, type(query))
