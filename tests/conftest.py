"""Shared fixtures: small structures and databases used across the suite."""

from fractions import Fraction

import pytest

from repro.kernels.cache import clear_caches
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.rng import make_rng


@pytest.fixture(autouse=True)
def _fresh_kernel_caches():
    """Isolate tests from the process-global compilation cache.

    Counter assertions (grounding, kernels.cache.*) would otherwise
    depend on which tests ran earlier in the process.  The persistent
    tier is deactivated too: a test that configures it must not leave
    later tests writing pickles into its (deleted) tmp directory.
    """
    from repro.kernels import cache_persist

    cache_persist.deactivate()
    clear_caches()
    yield
    cache_persist.deactivate()
    clear_caches()


@pytest.fixture(autouse=True)
def _no_active_cost_model():
    """Keep the module-level cost model inert between tests.

    A test that installs a cost model must not silently reorder the
    executor chains of every later test in the process.
    """
    from repro.runtime import costmodel

    previous = costmodel.set_model(None)
    yield
    costmodel.set_model(previous)


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def triangle():
    """A 3-node graph a->b->c with an S flag on b."""
    builder = StructureBuilder(["a", "b", "c"])
    builder.relation("E", 2)
    builder.relation("S", 1)
    builder.add("E", ("a", "b"))
    builder.add("E", ("b", "c"))
    builder.add("S", ("b",))
    return builder.build()


@pytest.fixture
def triangle_db(triangle):
    """The triangle with a few uncertain atoms at mixed rates."""
    mu = {
        Atom("E", ("a", "c")): Fraction(1, 10),
        Atom("E", ("a", "b")): Fraction(1, 4),
        Atom("S", ("a",)): Fraction(1, 3),
        Atom("S", ("b",)): Fraction(1, 5),
    }
    return UnreliableDatabase(triangle, mu)


@pytest.fixture
def certain_db(triangle):
    """The triangle with no uncertainty at all."""
    return UnreliableDatabase(triangle)
