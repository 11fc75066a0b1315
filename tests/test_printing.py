"""Printed forms are pinned bytes.

The digests below were computed before the printer and the functionals
were rewritten, so any change to the canonical text of an element, a
``Poly`` or a prover certificate shows up here:

- ``to_json`` of the 200 seeded constant-coefficient relations of the
  prover benchmark (``m`` = 2, 3, supports of 2-6 terms), whose recipe is
  rebuilt here;
- ``str`` and the numerator's and denominator's ``repr`` of random
  elements of seven towers, and of their sums, differences, products,
  powers and quotients.
"""

import hashlib
import random
from itertools import product

import pytest

from deltatower.elements import Element
from deltatower.relations import MonomialRelation, run_reduction
from deltatower.tower import build_spec, random_element

SEEDED_RELATIONS = 200
PRINT_UTYPES = [(2, 2), (3,), (1, 1, 1), (2, 1, 2), (3, 3), (3, 3, 3), (1, 2, 3)]
ELEMENTS_PER_TOWER = 30

# full sha256 of the texts joined by newlines
JSON_DIGESTS = {
    0: "965e188ff747d3c7be8462c7539af8da88e4374dbeb3d73e98e73a91bfe2c05b",
    1: "a1a4b97180ef58a034c87b99f0e59c529f686c8a0cdb42ad6d29ebab85c03a2f",
}
ELEMENT_DIGESTS = {
    (2, 2): "fb02c287cb0b7661217d94ba8f84b43933dacf357a56af66addc2745139a7557",
    (3,): "11e227aa122fd930dc94004bdd45fd0131e4d6d1644006a19a5698cc85f82d50",
    (1, 1, 1): "5780da44524f3f3dd5dbe09cdc6edc0fba2ec1c2193c6779c7867ef4bcd3ce82",
    (2, 1, 2): "72724f463055df382e9c5ea0d4018324daaa241a3519efbcc72af3be531fd72d",
    (3, 3): "743e16f2201529be09945cc7f8870f2895ccd27ee40e8da88a6941a5a408ed7e",
    (3, 3, 3): "dca97d88d7a671f17e1651827499c320df9eebd968bb71d16abdcd0c8e01b59a",
    (1, 2, 3): "0f0e5274038bbce7d2aef1f6c51592874df8b7a8ee3bd3d23ed70aaf7ca39b43",
}


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def seeded_relations(seed: int):
    """The prover benchmark's seeded relations: supports of 2-6 terms drawn
    from the exponent vectors of degree 1-3 in m = 2 or 3 generators of
    (3,), with coefficients 1-5."""
    spec = build_spec((3,))
    rng = random.Random(f"prover:{seed}")
    relations = []
    for k in range(SEEDED_RELATIONS):
        m, size = 2 + k % 2, 2 + k % 5
        pool = [r for r in product(range(4), repeat=m) if 1 <= sum(r) <= 3]
        support = rng.sample(pool, size)
        coefficients = {r: Element.from_rational(rng.randint(1, 5)) for r in support}
        relations.append(MonomialRelation(1, tuple(spec.generators(1)[:m]), coefficients))
    return spec, relations


def printed_elements(utype) -> list[str]:
    """str, and repr of num and den, of random elements of the tower and of
    their sums, differences, products, powers and quotients."""
    spec = build_spec(utype)
    rng = random.Random(f"print:{utype}")
    texts = []
    for _ in range(ELEMENTS_PER_TOWER):
        a, b = random_element(rng, spec), random_element(rng, spec)
        derived = [a, b, a + b, a - b, -a, a * b, a**2, b**-1, a * b**2 - 3]
        if not b.is_zero():
            derived.append(a / b)
        for x in derived:
            texts += [str(x), repr(x.num), repr(x.den)]
    return texts


@pytest.mark.parametrize("seed", sorted(JSON_DIGESTS))
def test_seeded_certificates_unchanged(seed):
    spec, relations = seeded_relations(seed)
    texts = [run_reduction(G, spec).to_json() for G in relations]
    assert _digest(texts) == JSON_DIGESTS[seed]


@pytest.mark.parametrize("utype", PRINT_UTYPES, ids=str)
def test_printed_elements_unchanged(utype):
    assert _digest(printed_elements(utype)) == ELEMENT_DIGESTS[utype]
