import pytest
from hypothesis import HealthCheck, settings

from hlab.hypergraph import complete_graph, graph_from_edges

settings.register_profile(
    "lab",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture
def k3():
    return complete_graph(3, 2)


@pytest.fixture
def k4():
    return complete_graph(4, 2)


@pytest.fixture
def c4():
    return graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def p3():
    return graph_from_edges(3, 2, [(0, 1), (1, 2)])


@pytest.fixture
def walks(monkeypatch):
    """The (lo, hi) levels of every level walk run during the test."""
    import hlab.measure
    import hlab.supersat

    seen = []
    original = hlab.measure._walk

    def recorded(levels, workers, per_block):
        seen.append([(lo, hi) for lo, hi, *_ in levels])
        return original(levels, workers, per_block)

    for mod in (hlab.measure, hlab.supersat):
        monkeypatch.setattr(mod, "_walk", recorded)
    return seen
