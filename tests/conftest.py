import pytest

import helistar as hs
from helistar import closure_solver


@pytest.fixture(autouse=True)
def nothing_remembered():
    """Each test starts with no band remembered, so a test of the solver's work sees fresh solves.

    Session and module fixtures are set up before this one and keep what they solved.
    """
    closure_solver._SOLVED.clear()


@pytest.fixture(scope="session")
def tetrahelix():
    sols = hs.solve_band(hs.BandSpec(3, 1))
    assert len(sols) == 1
    return sols[0]


@pytest.fixture(scope="session")
def band52():
    """Both branches of the five-strip shift-two band, theta ascending."""
    return hs.solve_band(hs.BandSpec(5, 2))


@pytest.fixture(scope="session")
def solutions_5_12():
    """(n, s) -> branch list for the full mirror-half shift range."""
    out = {}
    for n in range(5, 13):
        for s in range(1, n // 2 + 1):
            out[(n, s)] = hs.solve_band(hs.BandSpec(n, s))
    return out


@pytest.fixture(scope="session")
def catalog_entries():
    return hs.enumerate_catalog(5, 12, include_compounds=True)


@pytest.fixture(scope="session")
def entry_solutions(catalog_entries, solutions_5_12):
    """Catalog entries paired with their underlying branch solutions."""
    pairs = []
    for e in catalog_entries:
        sol = solutions_5_12[(e.n_strips, e.shift)][e.branch_index - 1]
        assert abs(sol.params.theta - e.theta) < 1e-12
        pairs.append((e, sol))
    return pairs
