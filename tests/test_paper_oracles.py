"""Statements of the paper checked on the corpus fixtures, beyond the
battery that ``hopfkit corpus`` reports.

For cocommutative B, the flip-stable coinvariants are the cofree Hopf
algebra and the flip x/y |-> y/x is the antipode of the envelope.  For
commutative B the dual B* is cocommutative, and the cofree Hopf algebra of
B* has the dimension of the Hopf envelope of B.
"""

import pytest

from hopfkit.bialgebra import dual_bialgebra
from hopfkit.cofree import cocommutative_cofree, cofree_hopf
from hopfkit.corpus import named_fixtures, random_fixtures
from hopfkit.envelope import cocommutative_envelope_check, hopf_envelope
from hopfkit.linalg import image

from oracle_utils import is_commutative

FIXTURES = named_fixtures() + random_fixtures(20240801, 6)
COCOMMUTATIVE = [fx for fx in FIXTURES if fx.bialgebra.is_cocommutative()]
COMMUTATIVE = [fx for fx in FIXTURES if is_commutative(fx.bialgebra)]


def _ids(fixtures):
    return [fx.name for fx in fixtures]


def test_the_corpus_has_both_kinds():
    assert (len(FIXTURES), len(COCOMMUTATIVE), len(COMMUTATIVE)) == (30, 24, 22)


def _cocommutative_oracles(b):
    f = b.field
    cc = cocommutative_cofree(b)
    assert image(f, cc.structure_map.matrix) == image(f, cofree_hopf(b).structure_map.matrix)
    assert cocommutative_envelope_check(b)
    return cc


@pytest.mark.parametrize("fx", COCOMMUTATIVE, ids=_ids(COCOMMUTATIVE))
def test_cocommutative_cofree_is_the_cofree_hopf_algebra(fx):
    _cocommutative_oracles(fx.bialgebra)


@pytest.mark.parametrize("fx", COMMUTATIVE, ids=_ids(COMMUTATIVE))
def test_dual_of_a_commutative_bialgebra(fx):
    cc = _cocommutative_oracles(dual_bialgebra(fx.bialgebra))
    assert cc.hopf.dim == hopf_envelope(fx.bialgebra).hopf.dim
