import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajforge import netgrid as ng


@st.composite
def networks(draw):
    """A grid of random size, or a link graph with random downstream lists."""
    if draw(st.booleans()):
        return ng.GridNetwork(ng.GridSpec(draw(st.integers(2, 7)), draw(st.integers(2, 7))))
    n = draw(st.integers(1, 8))
    links = st.lists(st.integers(0, n - 1), max_size=ng.N_ACTIONS)
    return ng.LinkGraph(draw(st.lists(links, min_size=n, max_size=n)))


@pytest.fixture
def grid3():
    return ng.GridNetwork(ng.GridSpec(3, 3))


class TestApplyAction:
    def test_stay(self, grid3):
        assert ng.apply_action(grid3, 4, 4) == 4

    def test_corner_boundary(self, grid3):
        with pytest.raises(ng.BoundaryError):
            ng.apply_action(grid3, 0, 0)  # shift (-1, -1) from (0, 0)

    def test_declared_mapping(self, grid3):
        # action 8 is shift (+1, +1): (1,1) -> (2,2) on a 3x3 grid
        assert ng.apply_action(grid3, grid3.cell_of(1, 1), 8) == grid3.cell_of(2, 2)

    def test_mapping_table(self):
        shifts = [ng.action_shift(a) for a in range(9)]
        assert shifts == [(-1, -1), (0, -1), (1, -1), (-1, 0), (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]


class TestFeasibleActions:
    def test_interior_all_nine(self):
        grid = ng.GridNetwork(ng.GridSpec(5, 5))
        assert np.flatnonzero(grid.feasible[grid.cell_of(2, 2)]).tolist() == list(range(9))

    def test_corner(self, grid3):
        assert np.flatnonzero(grid3.feasible[0]).tolist() == [4, 5, 7, 8]

    def test_linkgraph_out_degree(self):
        graph = ng.LinkGraph([[1, 2, 0], [2], [0]])
        assert np.flatnonzero(graph.feasible[0]).tolist() == [0, 1, 2]

    @given(networks())
    def test_matches_apply_action_property(self, net):
        assert net.feasible.shape == (net.n_positions, ng.N_ACTIONS)
        for pos in range(net.n_positions):
            for a in range(ng.N_ACTIONS):
                try:
                    ng.apply_action(net, pos, a)
                    applies = True
                except (ng.BoundaryError, ng.ConnectivityError):
                    applies = False
                assert net.feasible[pos, a] == applies

    def test_table_read_only(self, grid3):
        with pytest.raises(ValueError):
            grid3.feasible[0, 0] = True


class TestActionIndexOf:
    def test_first_element(self):
        graph = ng.LinkGraph([[4, 7, 9] + [0] * 0, [], [], [], [], [], [], [], [], []])
        assert ng.action_index_of(graph, 0, 4) == 0

    def test_third_element(self):
        graph = ng.LinkGraph([[4, 7, 9], [], [], [], [], [], [], [], [], []])
        assert ng.action_index_of(graph, 0, 9) == 2

    def test_not_downstream(self):
        graph = ng.LinkGraph([[4, 7, 9], [], [], [], [], [], [], [], [], []])
        with pytest.raises(ng.ConnectivityError):
            ng.action_index_of(graph, 0, 5)

    def test_round_trip_property(self, grid3):
        for cell in range(grid3.n_positions):
            for a in np.flatnonzero(grid3.feasible[cell]).tolist():
                nxt = ng.apply_action(grid3, cell, a)
                assert ng.action_index_of(grid3, cell, nxt) == a


class TestShortestHops:
    def test_same_cell(self, grid3):
        assert ng.shortest_hops(grid3, 4, 4) == 0

    def test_adjacent(self, grid3):
        assert ng.shortest_hops(grid3, 0, 1) == 1

    def test_diagonal_corner(self, grid3):
        assert ng.shortest_hops(grid3, grid3.cell_of(0, 0), grid3.cell_of(2, 2)) == 2

    def test_unreachable(self):
        graph = ng.LinkGraph([[1], [], [1]])
        assert ng.shortest_hops(graph, 0, 2) is None

    def test_triangle_inequality_property(self):
        grid = ng.GridNetwork(ng.GridSpec(4, 4))
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.integers(0, grid.n_positions, size=3)
            dab = ng.shortest_hops(grid, a, b)
            dbc = ng.shortest_hops(grid, b, c)
            dac = ng.shortest_hops(grid, a, c)
            assert dac <= dab + dbc

    def test_hops_to_matches_pointwise(self, grid3):
        dest = grid3.cell_of(2, 1)
        table = ng.hops_to(grid3, dest)
        for cell in range(grid3.n_positions):
            assert table[cell] == ng.shortest_hops(grid3, cell, dest)


class TestLinkGraphIO:
    def test_round_trip(self, tmp_path):
        graph = ng.LinkGraph([[1, 2], [2], [0, 1, 2]], coords={0: (139.5, 35.6), 2: (139.7, 35.7)})
        path = tmp_path / "net.links"
        ng.save_link_graph(graph, path)
        loaded = ng.load_link_graph(path)
        assert loaded.adjacency == graph.adjacency
        assert loaded.coords == graph.coords

    def test_out_degree_cap(self):
        with pytest.raises(ValueError, match="out-degree"):
            ng.LinkGraph([list(range(10))] + [[] for _ in range(10)])

    def test_bad_reference(self):
        with pytest.raises(ValueError, match="unknown downstream"):
            ng.LinkGraph([[5]])
