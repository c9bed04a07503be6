"""Shared fixtures: the example bialgebras and their derived objects,
built once per session because every pipeline stage is deterministic."""

import pytest

from hopfkit.canonical import build_boxslash
from hopfkit.envelope import hopf_envelope
from hopfkit.families import quotient_quantum_plane
from hopfkit.fields import QQ
from hopfkit.monoid import cyclic_group, monogenic, monoid_bialgebra


@pytest.fixture(scope="session")
def qqp():
    return quotient_quantum_plane(QQ)


@pytest.fixture(scope="session")
def qqp_oslash(qqp_envelope):
    return qqp_envelope.space


@pytest.fixture(scope="session")
def qqp_boxslash(qqp):
    return build_boxslash(qqp)


@pytest.fixture(scope="session")
def qqp_envelope(qqp):
    return hopf_envelope(qqp)


@pytest.fixture(scope="session")
def kc2():
    return monoid_bialgebra(cyclic_group(2), QQ)


@pytest.fixture(scope="session")
def km23():
    return monoid_bialgebra(monogenic(2, 3), QQ)


@pytest.fixture(scope="session")
def corpus_results():
    from hopfkit.corpus import run_corpus

    results, ok = run_corpus()
    return results, ok
