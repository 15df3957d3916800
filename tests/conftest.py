import pytest

from graphconvex import Graph, convexity


@pytest.fixture
def lettered_square():
    """The 4-cycle a-x-y-z-a; y sits opposite a.

    This is the running counterexample used throughout the suite: the
    distance function d(., a) takes the value 2 at y while both neighbors
    of y are at distance 1, so it is neither convex nor subharmonic at y.
    """
    return Graph([("a", "x"), ("x", "y"), ("y", "z"), ("z", "a")])


@pytest.fixture
def ranked_passes(monkeypatch):
    """The sites k at which ``is_convex_at`` reached the ranked pass."""
    real, seen = convexity._ranked_convex, []

    def ranked(m, k, *args):
        seen.append(k)
        return real(m, k, *args)

    monkeypatch.setattr(convexity, "_ranked_convex", ranked)
    return seen


def complete_graph(n):
    return Graph([(i, j) for i in range(n) for j in range(i + 1, n)])
