import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajforge import netgrid as ng
from trajforge import synthgen as sg

from helpers import reference_hops_to


@st.composite
def networks(draw):
    """A grid of random size, or a link graph with random downstream lists."""
    if draw(st.booleans()):
        return ng.GridNetwork(ng.GridSpec(draw(st.integers(2, 7)), draw(st.integers(2, 7))))
    n = draw(st.integers(1, 8))
    links = st.lists(st.integers(0, n - 1), max_size=ng.N_ACTIONS)
    return ng.LinkGraph(draw(st.lists(links, min_size=n, max_size=n)))


class TestGridSpec:
    @pytest.mark.parametrize(
        "width, height, message",
        [
            (2.5, 3, "width must be an integer, got 2.5"),  # used to build 8 cells whose moves wrap across rows
            (3, 3.0, "height must be an integer, got 3.0"),  # used to be saved as a #grid header load_dataset refuses
            (True, 3, "width must be an integer, got True"),
            (1, 3, "width must be >= 2, got 1"),
            (3, 0, "height must be >= 2, got 0"),
        ],
    )
    def test_bad_side_rejected_by_name(self, width, height, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ng.GridSpec(width, height)

    @pytest.mark.parametrize("cell_size_m", [None, "1", float("nan"), float("inf")])
    def test_bad_cell_size_rejected_by_name(self, cell_size_m):
        with pytest.raises(ValueError, match=f"^cell_size_m must be a finite real number, got {re.escape(repr(cell_size_m))}$"):
            ng.GridSpec(3, 3, cell_size_m)


@pytest.fixture
def grid3():
    return ng.GridNetwork(ng.GridSpec(3, 3))


class TestCellOf:
    @pytest.mark.parametrize("row, col", [(-1, 0), (3, 0), (0, -1), (0, 4)])
    def test_cell_outside_grid_rejected_by_name(self, row, col):
        grid = ng.GridNetwork(ng.GridSpec(4, 3))  # 4 columns, 3 rows
        with pytest.raises(ng.BoundaryError, match=f"^{re.escape(f'cell ({row}, {col}) outside 4x3 grid')}$"):
            grid.cell_of(row, col)


class TestApplyAction:
    """An action leads to `succ[pos, a]`; -1 marks one that the network does not have, whose error is `infeasible_error`."""

    def test_stay(self, grid3):
        assert grid3.succ[4, 4] == 4

    def test_corner_boundary(self, grid3):
        assert grid3.succ[0, 0] == -1 and grid3.infeasible_error is ng.BoundaryError  # shift (-1, -1) from (0, 0)

    def test_declared_mapping(self, grid3):
        # action 8 is shift (+1, +1): (1,1) -> (2,2) on a 3x3 grid
        assert grid3.succ[grid3.cell_of(1, 1), 8] == grid3.cell_of(2, 2)

    def test_link_graph_infeasible(self):
        graph = ng.LinkGraph([[1], []])
        assert graph.succ[1, 0] == -1 and graph.infeasible_error is ng.ConnectivityError

    def test_mapping_table(self, grid3):
        # the centre cell's successors spell out the (dx, dy) shift of each action
        row, col = np.divmod(grid3.succ[grid3.cell_of(1, 1)], 3)
        shifts = list(zip((col - 1).tolist(), (row - 1).tolist()))
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
        # an action is feasible exactly where it leads to a position of the network
        assert net.feasible.shape == (net.n_positions, ng.N_ACTIONS)
        assert np.array_equal(net.feasible, (0 <= net.succ) & (net.succ < net.n_positions))
        assert (net.succ >= -1).all()

    def test_table_read_only(self, grid3):
        with pytest.raises(ValueError):
            grid3.feasible[0, 0] = True


class TestShortestHops:
    """`net.hops[b, a]`: the fewest moves from a to b, -1 when b cannot be reached."""

    def test_same_cell(self, grid3):
        assert grid3.hops[4, 4] == 0

    def test_adjacent(self, grid3):
        assert grid3.hops[1, 0] == 1

    def test_diagonal_corner(self, grid3):
        assert grid3.hops[grid3.cell_of(2, 2), grid3.cell_of(0, 0)] == 2

    def test_unreachable(self):
        graph = ng.LinkGraph([[1], [], [1]])
        assert graph.hops[2, 0] == -1

    def test_triangle_inequality_property(self):
        grid = ng.GridNetwork(ng.GridSpec(4, 4))
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.integers(0, grid.n_positions, size=3)
            assert grid.hops[c, a] <= grid.hops[b, a] + grid.hops[c, b]

    def test_hops_to_matches_pointwise(self, grid3):
        # a grid move shifts row and column by at most one each: hops are the Chebyshev distance
        table = grid3.hops[grid3.cell_of(2, 1)]
        for row in range(3):
            for col in range(3):
                assert table[grid3.cell_of(row, col)] == max(abs(row - 2), abs(col - 1))

    def test_hops_table_read_only(self, grid3):
        n = grid3.n_positions
        assert "hops" not in vars(grid3)  # built on first read, then kept
        assert grid3.hops.dtype == np.int32 and grid3.hops.shape == (n, n)
        assert vars(grid3)["hops"] is grid3.hops
        with pytest.raises(ValueError):
            grid3.hops[0, 5] = 5

    @pytest.mark.parametrize("dest", [-1, 3, 2**64])
    def test_hops_to_destination_outside_network(self, dest):
        # the table has no row for it, a row index of -1 would read the last one, and one past int64 used to
        # escape from the intp cast as a bare OverflowError: the table's readers refuse each by name
        net, prefs = ng.LinkGraph([[1], [2], [0]]), sg.PreferenceParams(np.zeros((1, sg.N_FEATURES)))
        message = f"^row 0: destination {dest} outside network of 3 positions$"
        with pytest.raises(sg.GenerationError, match=message):
            sg.oracle_rows(prefs, net, [0], [dest])
        with pytest.raises(sg.GenerationError, match=message):
            sg.roll_out(net, [0], [dest], np.zeros((1, 2)), None)

    @given(networks())
    def test_table_matches_reference_search_property(self, net):
        np.testing.assert_array_equal(net.hops, [reference_hops_to(net, dest) for dest in range(net.n_positions)])

    def test_dead_end_has_no_feasible_action(self):
        graph = ng.LinkGraph([[1], [], [0, 1]])
        assert graph.dead_end.tolist() == [False, True, False]
        assert not ng.GridNetwork(ng.GridSpec(2, 2)).dead_end.any()

    @given(networks())
    def test_breadth_first_equations_property(self, net):
        for dest in range(net.n_positions):
            hops = net.hops[dest]
            assert hops[dest] == 0
            for pos in range(net.n_positions):
                if pos == dest:
                    continue
                after = hops[net.succ[pos][net.feasible[pos]]]
                reachable = after[after >= 0]
                if hops[pos] >= 0:
                    assert hops[pos] == 1 + reachable.min()
                else:
                    assert reachable.size == 0


class TestLinkGraphIO:
    def test_round_trip(self, tmp_path):
        graph = ng.LinkGraph([[1, 2], [2], [0, 1, 2]], coords={0: (139.5, 35.6), 2: (139.7, 35.7)})
        path = tmp_path / "net.links"
        ng.save_link_graph(graph, path)
        loaded = ng.load_link_graph(path)
        assert loaded.adjacency == graph.adjacency
        assert loaded.coords == graph.coords

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1: x", "invalid literal for int"),
            ("x: 1", "invalid literal for int"),
            ("# coords a 1.0 2.0", "invalid literal for int"),
            ("# coords 0 1.0 y", "could not convert string to float"),
            ("# coords 0 1.0", "malformed coords line"),
            ("0 1", "expected 'link_id: down,...'"),
            ("-1: 0", "negative link -1"),
            ("0: 0", "duplicate link 0"),
            ("1: -1", "link 1 references unknown downstream link -1"),
            ("1: 7", "link 1 references unknown downstream link 7"),  # links 0 and 1 only
            ("1: " + ",".join(["0"] * 10), "link 1 has out-degree 10 > 9"),
            # coords that used to load silently, and that save_link_graph wrote back
            ("# coords 7 1.0 2.0", "coords of unknown link 7"),
            ("# coords -1 1.0 2.0", "coords of unknown link -1"),
            ("# coords 0 nan 2.0", "non-finite coords nan 2.0"),
            ("# coords 0 1.0 -inf", "non-finite coords 1.0 -inf"),
        ],
    )
    def test_malformed_line_named_by_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "net.links"
        path.write_text(f"0: 0\n\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}"):
            ng.load_link_graph(path)

    def test_file_without_link_line_rejected(self, tmp_path):
        path = tmp_path / "net.links"
        path.write_text("# coords 0 1.0 2.0\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty link graph$"):
            ng.load_link_graph(path)

    def test_repeated_coords_named_by_both_lines(self, tmp_path):
        # the last line used to win
        path = tmp_path / "net.links"
        path.write_text("# coords 0 1.0 2.0\n0: 0\n# coords 0 3.0 4.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: duplicate coords of link 0, first at line 1$"):
            ng.load_link_graph(path)

    def test_out_degree_cap(self):
        with pytest.raises(ValueError, match="out-degree"):
            ng.LinkGraph([list(range(10))] + [[] for _ in range(10)])

    def test_bad_reference(self):
        with pytest.raises(ValueError, match="unknown downstream"):
            ng.LinkGraph([[5]])

    @pytest.mark.parametrize("down, shown", [(1.5, "1.5"), (True, "True"), (np.float64(1.0), "1.0")])
    def test_non_integer_downstream_named(self, down, shown):
        # a row of succ used to read each of these as the move 0 -> 1
        with pytest.raises(ValueError, match=f"^link 0 references non-integer downstream link {re.escape(shown)}$"):
            ng.LinkGraph([[down], []])
