import io
import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma import (BEST_KNOWN_COLORS, DimacsError, build_graph, dimacs,
                    load_instance, parse_dimacs, render_dimacs)
from chroma.bench import CSV_FIELDS, RunResult, read_results_csv, write_results
from chroma.dimacs import read_reference_table

from conftest import SEPARATORS, dimacs_texts, edge_lists, results_csv_texts

TRIANGLE = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


class TestParse:
    def test_minimal_triangle(self):
        parsed = parse_dimacs(TRIANGLE)
        assert parsed.vertex_count == 3
        assert parsed.edges == [(0, 1), (1, 2), (0, 2)]
        assert parsed.declared_edge_count == 3
        assert parsed.warnings == []

    def test_comments_blanks_and_trailing_whitespace(self):
        text = (
            "c a comment first\n"
            "\n"
            "p edge 3 3   \n"
            "c mid-file comment\n"
            "e 1 2\n"
            "   \n"
            "e 2 3\t\n"
            "e 1 3\n"
            "c trailing comment\n"
        )
        parsed = parse_dimacs(text)
        assert parsed.vertex_count == 3
        assert parsed.edges == [(0, 1), (1, 2), (0, 2)]
        assert parsed.warnings == []

    def test_indented_comment_is_a_comment(self):
        parsed = parse_dimacs("  c indented comment\np edge 2 1\n\tc tab-indented\ne 1 2\n")
        assert parsed.edges == [(0, 1)]
        assert parsed.warnings == []

    def test_p_col_header_is_a_synonym_for_p_edge(self):
        parsed = parse_dimacs("p col 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert parsed == parse_dimacs(TRIANGLE)

    def test_multiple_spaces_between_fields(self):
        parsed = parse_dimacs("p  edge   2    1\ne   1    2\n")
        assert parsed.vertex_count == 2
        assert parsed.edges == [(0, 1)]

    def test_missing_p_line(self):
        with pytest.raises(DimacsError, match="missing p line"):
            parse_dimacs("c nothing here\n")

    def test_edge_before_header(self):
        with pytest.raises(DimacsError, match="e line before p line"):
            parse_dimacs("e 1 2\np edge 3 3\n")

    def test_duplicate_header(self):
        with pytest.raises(DimacsError, match="duplicate p line"):
            parse_dimacs("p edge 3 3\np edge 3 3\n")

    def test_endpoint_out_of_range_reports_line(self):
        with pytest.raises(DimacsError, match=r"^line 3: endpoint out of range"):
            parse_dimacs("p edge 3 1\nc pad\ne 1 4\n")

    def test_self_loop_names_its_line_in_file_indices(self):
        with pytest.raises(DimacsError, match=r"^line 3: self-loop: e 3 3$"):
            parse_dimacs("p edge 3 2\ne 1 2\ne 3 3\n")

    def test_zero_endpoint_rejected(self):
        # DIMACS endpoints are 1-indexed
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p edge 3 1\ne 0 2\n")

    def test_malformed_lines(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 3\n")
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 3 3\ne 1\n")
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 3 3\ne one two\n")

    @pytest.mark.parametrize("text,message", [
        # forms Python's int() reads but a DIMACS number is not
        ("p edge 20 1\ne 1_0 2\n", "line 2: non-integer endpoint: 'e 1_0 2'"),
        ("p edge 20 1\ne 1 +2\n", "line 2: non-integer endpoint: 'e 1 +2'"),
        ("p edge 20 1\ne \uff11 2\n", "line 2: non-integer endpoint: 'e \uff11 2'"),
        ("p edge 20 1\ne 1 \u0662\n", "line 2: non-integer endpoint: 'e 1 \u0662'"),
        ("p edge 2_0 1\n", "line 1: non-integer p line fields: 'p edge 2_0 1'"),
        ("p edge +20 1\n", "line 1: non-integer p line fields: 'p edge +20 1'"),
        ("c x\np edge 20 \uff11\n",
         "line 2: non-integer p line fields: 'p edge 20 \uff11'"),
        # the messages these inputs always had
        ("p edge -1 0\n", "line 1: negative count in p line"),
        ("p edge 3 -2\n", "line 1: negative count in p line"),
        ("p edge 3 1\ne -1 2\n", "line 2: endpoint out of range [1, 3]: e -1 2"),
        ("p edge 3 1\ne 1 2.0\n", "line 2: non-integer endpoint: 'e 1 2.0'"),
    ])
    def test_numbers_are_ascii_digits(self, text, message):
        with pytest.raises(DimacsError) as info:
            parse_dimacs(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["1_0", "0_5", "\uff15", "\u0665.0", " 5", "5 ",
                                      "\t5", "5\n", "", "five"])
    def test_a_float_with_underscores_non_ascii_or_spaces_is_refused(self, text):
        with pytest.raises(ValueError) as info:
            dimacs._number(text)
        assert str(info.value) == f"could not convert string to float: {text!r}"

    def test_edge_count_mismatch_is_warning_not_error(self):
        parsed = parse_dimacs("p edge 3 5\ne 1 2\ne 2 3\n")
        assert parsed.edges == [(0, 1), (1, 2)]
        assert any("declares 5" in w for w in parsed.warnings)

    def test_unknown_line_type_warned_and_ignored(self):
        parsed = parse_dimacs("p edge 2 1\nn 1 4\ne 1 2\n")
        assert parsed.edges == [(0, 1)]
        assert any("unknown line type 'n'" in w for w in parsed.warnings)

    @given(st.lists(st.one_of(
        st.text(max_size=20),
        st.lists(st.sampled_from(["p", "edge", "col", "e", "c", "0", "1", "2",
                                  "3", "-1", "x", "2.5", "99999"]),
                 max_size=5).map(" ".join),
    ), max_size=12).map("\n".join))
    def test_fuzzed_text_raises_nothing_but_value_error(self, text):
        # only the parse: build_graph would allocate per declared vertex
        try:
            parse_dimacs(text)
        except ValueError:
            pass

    @given(edge_lists(min_n=1, max_n=10))
    def test_render_parse_round_trip(self, drawn):
        n, edges = drawn
        canonical = sorted({(u, v) if u < v else (v, u) for u, v in edges})
        parsed = parse_dimacs(render_dimacs(n, edges, comment="round trip"))
        assert parsed.vertex_count == n
        assert sorted(parsed.edges) == canonical
        assert parsed.warnings == []


def outcome(parse, text):
    try:
        return parse(text)
    except DimacsError as exc:
        return str(exc)


def assert_paths_agree(text):
    """parse_dimacs, whose strict path takes the text or hands it on, gives
    what the line parser alone gives: the same ParsedDimacs or message."""
    assert outcome(parse_dimacs, text) == outcome(dimacs._parse_lines, text)


# Texts on which the strict path must hand over to the line parser, or agree
# with it at the edge of what it takes.
STRICT_EDGE_CASES = [
    # a separator inside a comment line would hide the second p line
    *(f"c x{sep}p edge 3 1\np edge 3 1\ne 1 2\n" for sep in SEPARATORS),
    "p edge 3 1\ne 1 4\n",
    "p edge 3 1\ne 4 1\n",
    "p edge 3 1\ne 0 2\n",
    "p edge 3 1\ne 2 0\n",
    # a leading zero: the line parser reads it, the endpoint table does not
    "p edge 3 1\ne 01 2\n",
    "p edge 3 1\ne 1 02\n",
    "p edge 3 2\ne 1 2\ne 2 2\n",
    "p edge 3 1\ne 1 2 3\n",
    "p edge 4 2\ne 1\n2 e 3 4\n",
    "p edge 3 1\ne 1 2",
    "p edge 3 1\ne 1 2\n\n",
    "p edge 3 1\ne 1 " + "1" * 5000 + "\n",  # beyond int's digit limit
    "p edge 3 0\n",
    "p edge 3 0",
]


class TestStrictPath:
    @settings(max_examples=300)
    @given(dimacs_texts())
    def test_agrees_with_the_line_parser(self, text):
        assert_paths_agree(text)

    @pytest.mark.parametrize("text", STRICT_EDGE_CASES)
    def test_agrees_on_the_edge_cases(self, text):
        assert_paths_agree(text)

    def test_rendered_and_dsjc_shaped_files_take_it(self, monkeypatch):
        def refuse(text):
            raise AssertionError("the line parser was called")

        monkeypatch.setattr(dimacs, "_parse_lines", refuse)
        rendered = render_dimacs(5, [(0, 1), (3, 1), (4, 0)], comment="two\nlines")
        assert parse_dimacs(rendered).edges == [(0, 1), (0, 4), (1, 3)]
        # DSJC files list each edge in both directions, so the count matches
        dsjc = ("c FILE: DSJC125.1.col\nc SOURCE: David Johnson\nc\n"
                "p edge 125 4\ne 1 5\ne 5 1\ne 125 2\ne 2 125\n")
        parsed = parse_dimacs(dsjc)
        assert parsed.vertex_count == 125
        assert parsed.edges == [(0, 4), (4, 0), (124, 1), (1, 124)]
        assert parsed.warnings == []


def assert_only_checked_endpoints(text, directory):
    """If parse_dimacs accepts the text, every endpoint lies in [0, n) and no
    edge is a self-loop; load_instance, which builds its graph from these
    endpoints without checking them, then gives the graph that build_graph
    gives after checking them."""
    try:
        parsed = parse_dimacs(text)
    except DimacsError:
        return
    n = parsed.vertex_count
    for u, v in parsed.edges:
        assert 0 <= u < n and 0 <= v < n and u != v, (u, v)
    path = directory / "trusted.col"
    path.write_bytes(text.encode())
    assert load_instance(path).graph == build_graph(n, parsed.edges)


@pytest.fixture(scope="module")
def module_tmp_path(tmp_path_factory):
    """One directory for every example of a hypothesis test, which cannot
    take a fresh tmp_path per example."""
    return tmp_path_factory.mktemp("examples")


class TestCheckedEndpoints:
    """load_instance trusts the parse: these tests hold both parse paths to
    the checks that build_graph would make."""

    @settings(max_examples=300)
    @given(text=dimacs_texts())
    def test_accepted_texts_hold_only_checked_endpoints(self, module_tmp_path, text):
        assert_only_checked_endpoints(text, module_tmp_path)

    @pytest.mark.parametrize("text", STRICT_EDGE_CASES)
    def test_accepted_edge_cases_hold_only_checked_endpoints(self, tmp_path, text):
        assert_only_checked_endpoints(text, tmp_path)


class TestVertexCap:
    CAP = dimacs.MAX_VERTICES

    def test_the_cap_itself_loads_on_the_strict_path(self, monkeypatch):
        def refuse(text):
            raise AssertionError("the line parser was called")

        monkeypatch.setattr(dimacs, "_parse_lines", refuse)
        parsed = parse_dimacs(f"p edge {self.CAP} 1\ne {self.CAP} 1\n")
        assert parsed.vertex_count == self.CAP
        assert parsed.edges == [(self.CAP - 1, 0)]

    @pytest.mark.parametrize("text,line,count", [
        (f"p edge {dimacs.MAX_VERTICES + 1} 0\n", 1, dimacs.MAX_VERTICES + 1),
        (f"c x\np edge {dimacs.MAX_VERTICES + 1} 1\ne 1 2\n", 2, dimacs.MAX_VERTICES + 1),
        ("p edge 100000000 0\n", 1, 10**8),
        ("c off the strict shape\r\np col 100000000 0\n", 2, 10**8),
    ])
    def test_more_vertices_are_refused_on_the_p_line_by_both_paths(self, text, line,
                                                                    count):
        assert_paths_agree(text)
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == (
            f"line {line}: {count} vertices exceed the limit of {self.CAP}")

    def test_the_refusal_allocates_nothing_sized_by_the_p_line(self):
        text = f"p edge {self.CAP + 1} 0\n"
        tracemalloc.start()
        try:
            with pytest.raises(DimacsError):
                parse_dimacs(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLoadInstance:
    def test_builtin_reference_lookup(self, tmp_path):
        path = tmp_path / "DSJC125.5.col"
        path.write_text(TRIANGLE)  # lookup is by file stem, not content
        record = load_instance(path)
        assert record.name == "DSJC125.5"
        assert record.best_known_colors == 17

    def test_explicit_reference_table(self, tmp_path):
        path = tmp_path / "DSJC250.1.col"
        path.write_text(TRIANGLE)
        assert load_instance(path, BEST_KNOWN_COLORS).best_known_colors == 8
        assert load_instance(path, {}).best_known_colors is None

    def test_unknown_instance_has_no_reference(self, tmp_path):
        path = tmp_path / "toy.col"
        path.write_text(TRIANGLE)
        record = load_instance(path)
        assert record.best_known_colors is None
        assert record.graph.edge_count == 3

    def test_missing_file_error_carries_path(self, tmp_path):
        path = tmp_path / "nope.col"
        with pytest.raises(OSError, match="nope.col") as exc_info:
            load_instance(path)
        assert str(exc_info.value).count(str(path)) == 1

    def test_parse_error_carries_path(self, tmp_path):
        path = tmp_path / "bad.col"
        path.write_text("e 1 2\n")
        with pytest.raises(DimacsError, match="bad.col"):
            load_instance(path)

    def test_duplicate_edges_collapse_into_graph(self, tmp_path):
        path = tmp_path / "dup.col"
        # an edge given three times and one given twice, in both orientations
        path.write_text("p edge 4 5\ne 1 2\ne 2 1\ne 1 2\ne 3 4\ne 4 3\n")
        graph = load_instance(path).graph
        assert graph.edge_count == 2
        assert graph.neighbor_masks == (0b0010, 0b0001, 0b1000, 0b0100)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.col"
        path.write_bytes(b"\xef\xbb\xbf" + TRIANGLE.encode())
        assert load_instance(path).graph.edge_count == 3


SAMPLE_ROWS = [
    RunResult("DSJC125.5", "HC", 3, 20, True, 4271.2154, 17, 17.65),
    RunResult("toy", "ILS", 1, 4, True, 0.5, None, None),
]


class TestReferenceTable:
    def test_reads_name_count_pairs(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("# best known\ntoy20 4\nDSJC125.1, 5\n")
        assert read_reference_table(path) == {"toy20": 4, "DSJC125.1": 5}

    @pytest.mark.parametrize("count", ["x", "0", "-3", "4.5", "+5", "1_7", "\uff15"])
    def test_bad_count_names_its_line(self, tmp_path, count):
        path = tmp_path / "refs.txt"
        path.write_text(f"toy20 4\ntoy30 {count}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"refs\.txt:2: .*'{re.escape(count)}'"):
            read_reference_table(path)

    def test_a_name_listed_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("toy20 3\n# again\ntoy20 4\n")
        with pytest.raises(ValueError,
                           match=r"refs\.txt:3: toy20 already listed at line 1$"):
            read_reference_table(path)


class TestWriteResults:
    def test_csv_header_only_when_empty(self):
        out = io.StringIO()
        write_results([], out)
        assert out.getvalue() == (
            "instance,method,seed,k_colors,proper,wall_seconds,best_known,diff_percent\n"
        )

    def test_csv_row_formats(self):
        out = io.StringIO()
        write_results(SAMPLE_ROWS, out)
        lines = out.getvalue().splitlines()
        assert lines[1] == "DSJC125.5,HC,3,20,true,4271.215,17,17.65"
        assert lines[2] == "toy,ILS,1,4,true,0.500,,"

    def test_csv_round_trip(self):
        out = io.StringIO()
        comma = RunResult("a,b", "TS", 2, 5, True, 1.25, None, None)
        write_results(SAMPLE_ROWS + [comma], out)
        rows = read_results_csv(io.StringIO(out.getvalue()))
        assert [r.instance for r in rows] == ["DSJC125.5", "toy", "a,b"]
        assert rows[2] == comma
        assert rows[0].diff_percent == 17.65
        assert rows[0].best_known == 17
        assert rows[1].best_known is None
        assert rows[1].diff_percent is None

    def test_json_round_trip_identical_fields(self):
        out = io.StringIO()
        write_results(SAMPLE_ROWS, out, fmt="json")
        payload = json.loads(out.getvalue())
        assert payload[0] == {
            "instance": "DSJC125.5",
            "method": "HC",
            "seed": 3,
            "k_colors": 20,
            "proper": True,
            "wall_seconds": 4271.215,
            "best_known": 17,
            "diff_percent": 17.65,
        }
        assert payload[1]["best_known"] is None

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            write_results([], io.StringIO(), fmt="xml")


HEADER = ",".join(CSV_FIELDS) + "\n"


class TestReadResults:
    def test_short_row_names_its_line(self):
        stream = io.StringIO(HEADER + "tri,HC,1,3,true,0.001,,\na,HC\n")
        with pytest.raises(ValueError, match="results CSV:3: expected 8 fields"):
            read_results_csv(stream)

    def test_long_row_names_its_line(self):
        stream = io.StringIO(HEADER + "tri,HC,1,3,true,0.001,,,extra\n")
        with pytest.raises(ValueError, match="results CSV:2: expected 8 fields"):
            read_results_csv(stream)

    @pytest.mark.parametrize("row,bad", [
        ("tri,HC,x,3,true,0.001,,", "'x'"),
        ("tri,HC,1,three,true,0.001,,", "'three'"),
        ("tri,HC,1,3,true,fast,,", "'fast'"),
        ("tri,HC,1,3,true,0.001,2.5,", "'2.5'"),
    ])
    def test_malformed_value_names_its_line(self, row, bad):
        stream = io.StringIO(HEADER + "tri,HC,1,3,true,0.001,,\n" + row + "\n")
        with pytest.raises(ValueError, match=f"results CSV:3: .*{bad}"):
            read_results_csv(stream)

    @pytest.mark.parametrize("proper", ["TRUE", "True", "1", "yes", ""])
    def test_proper_other_than_true_or_false_names_its_line(self, proper):
        stream = io.StringIO(HEADER + "tri,HC,1,3,true,0.001,,\n"
                             f"tri,SA,1,3,{proper},0.001,,\n")
        with pytest.raises(ValueError, match=f"results CSV:3: proper must be true or "
                                             f"false, got '{proper}'"):
            read_results_csv(stream)

    def test_proper_reads_true_and_false(self):
        # run_benchmark writes only proper rows, so a false one is not ranked
        assert read_results_csv(io.StringIO(HEADER + "tri,HC,1,3,true,0.001,,\n"))[0].proper
        stream = io.StringIO(HEADER + "tri,HC,1,3,true,0.001,,\ntri,SA,1,4,false,0.001,,\n")
        with pytest.raises(ValueError, match="results CSV:3: proper is false"):
            read_results_csv(stream)

    def test_negative_seed_and_its_diff_read_back(self):
        # manifests and --seed accept a negative seed
        stream = io.StringIO(HEADER + "tri,HC,-5,3,true,0.000,4,-25.00\n")
        row, = read_results_csv(stream)
        assert (row.seed, row.diff_percent) == (-5, -25.0)

    @given(results_csv_texts())
    def test_fuzzed_rows_raise_nothing_but_value_error(self, text):
        try:
            read_results_csv(io.StringIO(text))
        except ValueError:
            pass
