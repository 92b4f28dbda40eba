"""Tests for edge-list and JSON graph I/O."""

import bz2
import gzip

import pytest

from repro.graph.graph import Graph
from repro.graph.io import (
    read_edge_list,
    read_edge_list_arrays,
    read_json_graph,
    write_edge_list,
    write_json_graph,
)


def test_edge_list_roundtrip(tmp_path, small_powerlaw_graph):
    path = tmp_path / "graph.txt"
    write_edge_list(small_powerlaw_graph, path)
    loaded = read_edge_list(path)
    assert loaded == small_powerlaw_graph


def test_edge_list_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n\n0 1\n1 2\n# trailing\n")
    g = read_edge_list(path)
    assert g.number_of_edges() == 2


def test_edge_list_skips_self_loops(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n0 1\n")
    g = read_edge_list(path)
    assert g.number_of_edges() == 1


def test_edge_list_string_vertices(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("alice bob\nbob carol\n")
    g = read_edge_list(path)
    assert g.has_edge("alice", "bob")
    assert g.has_edge("bob", "carol")


def test_edge_list_malformed_line_raises(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("justonetoken\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_edge_list_duplicate_edges_collapse(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 0\n0 1\n")
    assert read_edge_list(path).number_of_edges() == 1


def test_write_edge_list_sorts_integer_vertices_numerically(tmp_path):
    # repr-sorting put vertex 10 before vertex 2; the type-stable key must
    # order numerically, making write → read round-trips order-deterministic
    g = Graph([(10, 2), (2, 1), (10, 1), (3, 10)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    lines = [
        line for line in path.read_text().splitlines()
        if not line.startswith("#")
    ]
    assert lines == ["1 2", "1 10", "2 10", "3 10"]
    # a second write of the re-read graph is byte-identical
    reread = read_edge_list(path)
    second = tmp_path / "g2.txt"
    write_edge_list(reread, second)
    assert second.read_text() == path.read_text()
    assert reread == g


def test_write_edge_list_mixed_types_is_deterministic(tmp_path):
    g = Graph([(10, "b"), (2, "b"), ("a", 2), (10, 2)])
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_edge_list(g, first)
    write_edge_list(read_edge_list(first), second)
    assert first.read_text() == second.read_text()


def test_read_edge_list_gzip_and_bz2(tmp_path):
    payload = "# c\n0 1\n1 2\n"
    gz = tmp_path / "g.txt.gz"
    with gzip.open(gz, "wt", encoding="utf-8") as fh:
        fh.write(payload)
    bz = tmp_path / "g.txt.bz2"
    with bz2.open(bz, "wt", encoding="utf-8") as fh:
        fh.write(payload)
    for path in (gz, bz):
        g = read_edge_list(path)
        assert g.number_of_edges() == 2 and g.has_edge(0, 1)


def test_read_edge_list_delimiter(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,1\n1,2\n")
    g = read_edge_list(path, delimiter=",")
    assert g.number_of_edges() == 2 and g.has_edge(1, 2)


class TestReadEdgeListArrays:
    """The array reader must agree with the dict reader on every input."""

    def assert_matches_dict_reader(self, path, **kwargs):
        expected = read_edge_list(path, **kwargs)
        got = read_edge_list_arrays(path, **kwargs)
        assert got.to_graph() == expected
        return got

    def test_integers_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# head\n\n0 1\n10 2\n2 0\n# tail\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.number_of_edges() == 3

    def test_round_trip_through_write_edge_list(self, tmp_path, small_powerlaw_graph):
        path = tmp_path / "g.txt"
        write_edge_list(small_powerlaw_graph, path)
        self.assert_matches_dict_reader(path)

    def test_self_loops_and_duplicates(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n1 0\n0 1\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.number_of_edges() == 1

    def test_extra_columns_are_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1700000000\n1 2 1700000001\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.number_of_edges() == 2

    def test_non_integer_extra_columns_do_not_become_vertices(self, tmp_path):
        # float timestamps force the label path, which must still only read
        # the first two columns (no phantom "0.5" vertices)
        path = tmp_path / "g.txt"
        path.write_text("1 2 0.5\n2 3 1.5\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.number_of_vertices() == 3
        assert set(cg.vertices()) == {1, 2, 3}

    def test_ragged_rows_match_dict_reader(self, tmp_path):
        # per-line column counts differ, including a token total that
        # coincidentally divides by the first line's count — the reader must
        # not reshape blindly
        path = tmp_path / "g.txt"
        path.write_text("1 2 3\n4 5\n6 7 8 9\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.has_edge(6, 7) and not cg.has_edge(7, 8)

    def test_negative_integer_labels(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 0\n0 -2\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.has_edge(-1, 0)

    def test_string_labels(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\nbob carol\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.has_edge("alice", "bob")

    def test_mixed_labels_parse_per_token(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a 1\n1 2\n2 a\n")
        cg = self.assert_matches_dict_reader(path)
        assert cg.has_edge("a", 1) and cg.has_edge(1, 2)

    def test_gzip_bz2_and_delimiter(self, tmp_path):
        gz = tmp_path / "g.txt.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as fh:
            fh.write("0 1\n1 2\n")
        assert self.assert_matches_dict_reader(gz).number_of_edges() == 2
        bz = tmp_path / "g.csv.bz2"
        with bz2.open(bz, "wt", encoding="utf-8") as fh:
            fh.write("0,1\n1,2\n")
        got = self.assert_matches_dict_reader(bz, delimiter=",")
        assert got.number_of_edges() == 2

    def test_empty_and_comment_only_files(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing here\n\n")
        cg = read_edge_list_arrays(path)
        assert cg.number_of_vertices() == 0 and cg.number_of_edges() == 0

    def test_single_column_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("justonetoken\n")
        with pytest.raises(ValueError):
            read_edge_list_arrays(path)

    def test_short_line_raises_like_dict_reader(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\nc\n")
        with pytest.raises(ValueError):
            read_edge_list(path)
        with pytest.raises(ValueError):
            read_edge_list_arrays(path)


def test_json_roundtrip(tmp_path, two_clique_bridge_graph):
    path = tmp_path / "graph.json"
    write_json_graph(two_clique_bridge_graph, path)
    loaded = read_json_graph(path)
    assert loaded == two_clique_bridge_graph


def test_json_preserves_isolated_vertices(tmp_path):
    g = Graph(edges=[(0, 1)], vertices=[7])
    path = tmp_path / "graph.json"
    write_json_graph(g, path)
    loaded = read_json_graph(path)
    assert loaded.has_vertex(7)
    assert loaded.degree(7) == 0


def test_json_missing_edges_key_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [1, 2]}')
    with pytest.raises(ValueError):
        read_json_graph(path)
