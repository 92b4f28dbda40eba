"""Tests for edge-list and JSON graph I/O."""

import bz2
import gzip
import random

import pytest

import repro.graph.csr_graph as csr_graph_module
import repro.graph.io as io_module
from repro.graph.graph import Graph, sorted_vertices
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


#: Every route of read_edge_list_arrays, as TestParserDifferential names them.
ROUTES = (
    "fromstring+bitmap", "fromstring+unique", "tokens+bitmap",
    "tokens+unique", "labels", "ragged", "error",
)


class TestParserDifferential:
    """Seeded mutations of edge-list text: both readers give the same graph.

    Each case must give the same labels (type and value, in sorted order)
    and the same edge set from :func:`read_edge_list_arrays` as from the
    dict reader :func:`read_edge_list`, or make both raise the same error
    class.  The array reader has several routes, and each named case states
    the one it takes:

    * ``fromstring`` — digits, space, tab and newline only, no token over
      18 bytes: ``np.fromstring`` parses the stream;
    * ``tokens`` — any other byte, or a long token: ``np.array`` converts
      the split tokens like ``int``;
    * ``+bitmap`` or ``+unique`` — how ids are assigned to integer labels:
      a presence bitmap when their span is at most twice the endpoint
      count, ``np.unique`` otherwise;
    * ``labels`` — a rectangular file with a token that is no int64;
    * ``ragged`` — rows whose token counts differ (by space, tab and
      newline, or by ``str.split``), or a file read with a ``delimiter``
      that has whitespace inside a line or an empty field: parsed line by
      line.  Any other delimited file has its delimiters replaced by
      spaces and takes the routes above.
    """

    @pytest.fixture
    def routes(self, monkeypatch):
        """The steps each ``read_edge_list_arrays`` call took."""
        taken = []

        def spy(module, name, record=None):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                taken.append(record(result) if record else name)
                return result

            monkeypatch.setattr(module, name, wrapper)

        spy(io_module, "_uniform_columns", lambda result: "plain" if result[1] else "")
        spy(io_module, "_ragged_pairs")
        spy(io_module, "_pairs_from_label_tokens")
        spy(csr_graph_module.np, "unique")
        return taken

    @staticmethod
    def route_of(taken):
        if "_ragged_pairs" in taken:
            return "ragged"
        if "_pairs_from_label_tokens" in taken:
            return "labels"
        parse = "fromstring" if "plain" in taken else "tokens"
        return parse + ("+unique" if "unique" in taken else "+bitmap")

    @staticmethod
    def outcome(reader, path, **kwargs):
        """``(labels, edges)`` a reader gives, or the class of its error."""
        try:
            graph = reader(path, **kwargs)
        except Exception as exc:  # compared by class across the readers
            return type(exc)
        labels = [(type(v), v) for v in sorted_vertices(graph.vertices())]
        return labels, {frozenset(edge) for edge in graph.edges()}

    def check(self, tmp_path, text, routes, **kwargs):
        """Assert both readers agree on ``text``; return the array route."""
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        expected = self.outcome(read_edge_list, path, **kwargs)
        del routes[:]
        got = self.outcome(read_edge_list_arrays, path, **kwargs)
        assert got == expected, (text, kwargs)
        if isinstance(got, type):
            return "error"
        graph = read_edge_list_arrays(path, **kwargs)
        # ids follow the sorted label order (the lazy clique views rely on it)
        assert list(graph.labels) == sorted_vertices(list(graph.labels))
        return self.route_of(routes)

    @pytest.mark.parametrize(
        "text, route",
        [
            ("0 1\n1 2\n2 0\n", "fromstring+bitmap"),
            ("0\f1\n1 2\n2 0\n", "ragged"),
            ("0 1\f\n1 2\n2 0\n", "tokens+bitmap"),
            ("0\v1\n1 2\n", "ragged"),
            ("0 1\v\n1 2\n", "tokens+bitmap"),
            ("0\xa01\n1 2\n", "ragged"),
            ("0 1\xa0\n1 2\n", "tokens+bitmap"),
            ("\uff10 1\n1 \uff12\n", "tokens+bitmap"),
            ("+5 1\n1 2\n", "tokens+bitmap"),
            ("007 1\n1 2\n", "fromstring+bitmap"),
            ("9223372036854775807 1\n1 2\n", "tokens+unique"),
            ("1000000000000000000 1\n1 2\n", "tokens+unique"),
            ("9223372036854775808 1\n1 2\n", "labels"),
            ("99999999999999999999 1\n1 2\n", "labels"),
            ("-3 1\n1 -2\n-2 -3\n", "tokens+bitmap"),
            ("0 1000\n1000 5000\n", "fromstring+unique"),
            ("-7 1000000\n", "tokens+unique"),
            ("4 7", "fromstring+bitmap"),
            ("0 1  \n1 2 \n2 0\t\n", "fromstring+bitmap"),
            ("0 1 2\n3 4\n", "ragged"),
            ("0 1\n2 3 4 5\n", "ragged"),
            ("0 1 9\n1 2 9\n", "fromstring+bitmap"),
            ("0 1 x\n1 2 y\n", "labels"),
            ("0 1\n\f\n1 2\n", "ragged"),
            ("0 1\n1 2\f3\n", "ragged"),
            ("0 1\n# c\n1\f2\n3 4\n", "ragged"),
            ("0 1\n# note\n1 2\n", "fromstring+bitmap"),
            ("5 5\n0 1\n", "fromstring+bitmap"),
            ("a b\nb c\nc a\n", "labels"),
            ("0 1\n2\n", "error"),
        ],
        ids=lambda value: value if value in ROUTES else None,
    )
    def test_named_cases(self, tmp_path, routes, text, route):
        assert self.check(tmp_path, text, routes) == route

    @pytest.mark.parametrize(
        "text", ["0 1\n\n1 2\n2 0\n", "0 1\n \t\n1 2\n\n\n2 0\n", "0 1\n  \n1 2"]
    )
    def test_inner_blank_lines_keep_the_whole_stream_route(
        self, tmp_path, routes, text
    ):
        # the byte pass finds the empty lines; the rest is rectangular
        assert self.check(tmp_path, text, routes) == "fromstring+bitmap"

    @pytest.mark.parametrize(
        "text, delimiter, route",
        [
            ("0,1\n1,2\n2,0\n", ",", "fromstring+bitmap"),
            ("a b,c\nc,d\n", ",", "ragged"),
            (" 1 , 2\n2 ,3\n", ",", "ragged"),
            ("a , b\nb,c\n", ",", "ragged"),
            ("a\tb,c\nc,d\n", ",", "ragged"),
            ("0 1\t2\n2\t3 4\n", "\t", "ragged"),
            ("0,,1\n,2\n", ",", "ragged"),
            ("0;1;7\n# c\n1;2\n", ";", "ragged"),
            ("0,1\n2\n", ",", "error"),
            ("0 1\n", ",", "error"),
        ],
        ids=lambda value: value if value in ROUTES else None,
    )
    def test_named_delimiter_cases(self, tmp_path, routes, text, delimiter, route):
        # a delimiter splits at itself only: whitespace stays inside a field
        # and an empty field is a field, as in the dict reader
        assert self.check(tmp_path, text, routes, delimiter=delimiter) == route

    @pytest.mark.parametrize(
        "text, delimiter, route",
        [
            ("0;1\n1;2\n", ";", "fromstring+bitmap"),
            ("0::1\n1::2\n", "::", "fromstring+bitmap"),
            ("0:::1\n1::2\n", "::", "labels"),
            ("a,b\nb,c\n", ",", "labels"),
            ("0,1,7\n1,2\n", ",", "ragged"),
            ("0,1,\n1,2\n", ",", "ragged"),
            (",0,1\n1,2\n", ",", "ragged"),
            ("0,1\n1,,2\n", ",", "ragged"),
            ("0,1\f\n1,2\n", ",", "ragged"),
            ("0,1\n1,2\xe9\n", ",", "ragged"),
            ("0 1\n1 2\n", " ", "ragged"),
            ("0,1\n2\n", ",", "error"),
        ],
        ids=lambda value: value if value in ROUTES else None,
    )
    def test_delimited_whole_stream_routes(
        self, tmp_path, routes, text, delimiter, route
    ):
        # a delimited file with no whitespace and no empty field takes the
        # whole-stream routes once its delimiters become spaces
        assert self.check(tmp_path, text, routes, delimiter=delimiter) == route

    SEPARATORS = ("\f", "\v", "\xa0", "\t", "  ", "\x1c", "\u3000")
    LONG_INTS = (
        "9223372036854775807", "9223372036854775808",
        "1" + "0" * 18, "9" * 19, "1" * 20, "-9223372036854775808",
    )

    @classmethod
    def mutate(cls, rng, lines):
        """One seeded mutation of a list of edge-list lines (in place)."""
        at = rng.randrange(len(lines))
        tokens = lines[at].split(" ")
        pick = rng.randrange(len(tokens))
        kind = rng.randrange(12)
        if kind == 0:  # another separator between two tokens
            lines[at] = lines[at].replace(" ", rng.choice(cls.SEPARATORS), 1)
        elif kind == 1:  # a full-width digit
            digits = [i for i, ch in enumerate(lines[at]) if ch.isdigit()]
            if digits:
                i = rng.choice(digits)
                ch = chr(0xFF10 + int(lines[at][i]))
                lines[at] = lines[at][:i] + ch + lines[at][i + 1:]
        elif kind in (2, 3):  # a sign, leading zeros or a long integer
            tokens[pick] = rng.choice(("+", "-", "00", "007")) + tokens[pick]
            if kind == 3:
                tokens[pick] = rng.choice(cls.LONG_INTS)
            lines[at] = " ".join(tokens)
        elif kind == 4:  # sparse labels: spread every integer apart
            lines[:] = [
                " ".join(str(int(t) * 10**6) if t.isdigit() else t
                         for t in line.split(" "))
                for line in lines
            ]
        elif kind == 5:  # trailing whitespace
            lines[at] += rng.choice((" ", "  ", "\t", " \f"))
        elif kind == 6:  # a single edge
            lines[:] = [lines[at]]
        elif kind == 7:  # a ragged row: one token fewer or more
            if len(tokens) > 2 and rng.random() < 0.5:
                tokens.pop()
            else:
                tokens.append(str(rng.randrange(50)))
            lines[at] = " ".join(tokens)
        elif kind == 8:  # an extra column on every row
            lines[:] = [f"{line} {rng.randrange(9)}" for line in lines]
        elif kind == 9:  # a blank, whitespace-only or comment line
            lines.insert(at, rng.choice(("", " ", "\f", "\xa0", "# c", " # c")))
        elif kind == 10:  # a self-loop
            label = str(rng.randrange(30, 40))
            lines.insert(at, f"{label} {label}")
        else:  # a negative label
            tokens[pick] = "-" + str(rng.randrange(1, 30))
            lines[at] = " ".join(tokens)

    def test_seeded_mutations(self, tmp_path, routes):
        rng = random.Random(20240607)
        delimiters = random.Random(20240608)
        seen = {}
        delimited = {}
        for case in range(300):
            lines = [
                f"{rng.randrange(30)} {rng.randrange(30)}"
                for _ in range(rng.randrange(1, 12))
            ]
            for _ in range(rng.randrange(1, 4)):
                self.mutate(rng, lines)
            text = "\n".join(lines) + rng.choice(("", "\n"))
            route = self.check(tmp_path, text, routes)
            seen[route] = seen.get(route, 0) + 1
            if case % 2:
                # the same mutation as a delimited file: every space becomes
                # the delimiter, so padding turns into empty fields and the
                # other separators stay inside a field
                delimiter = delimiters.choice((",", ";", "\t"))
                route = self.check(
                    tmp_path, text.replace(" ", delimiter), routes,
                    delimiter=delimiter,
                )
                delimited[route] = delimited.get(route, 0) + 1
        # the mutations reach every route, so the agreement is not vacuous
        assert set(seen) == set(ROUTES), seen
        assert set(delimited) == set(ROUTES), delimited


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
