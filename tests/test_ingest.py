"""Profile file loading, canonical export, manifests, and synthesis."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeineq import (
    BadSpec,
    CiteIneqError,
    ParseError,
    Publication,
    ResearcherProfile,
    SchemaError,
    SynthSpec,
    ValidationError,
    index_pair,
    load_manifest,
    load_profile,
    synth_profile,
    write_profile,
)
from citeineq import ingest
from citeineq.profiles import MAX_CITATIONS, MAX_YEAR, MIN_YEAR
from helpers import gini_pairwise, row_by_row_load

BOM = b"\xef\xbb\xbf"

publication_lists = st.lists(
    st.builds(
        Publication,
        pub_id=st.text(min_size=1, max_size=6),
        year=st.integers(MIN_YEAR, MAX_YEAR),
        citations=st.integers(0, MAX_CITATIONS),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda pub: pub.pub_id,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = "pub_id,year,citations\np1,2001,10\np2,2003,0\n"


class TestCsvLoading:
    def test_happy_path(self, tmp_path):
        profile = load_profile(write(tmp_path, "a.csv", GOOD_CSV))
        assert profile.name == "a"
        assert [(p.pub_id, p.year, p.citations) for p in profile.publications] == [
            ("p1", 2001, 10),
            ("p2", 2003, 0),
        ]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(GOOD_CSV.replace("\n", "\r\n").encode())
        assert len(load_profile(path).publications) == 2

    def test_rows_sorted_by_year(self, tmp_path):
        text = "pub_id,year,citations\nlate,2010,1\nearly,1999,5\n"
        profile = load_profile(write(tmp_path, "b.csv", text))
        assert [p.pub_id for p in profile.publications] == ["early", "late"]

    def test_no_rows_dropped(self, tmp_path):
        rows = [f"p{i},{2000 + i % 5},{i}" for i in range(57)]
        text = "pub_id,year,citations\n" + "\n".join(rows) + "\n"
        profile = load_profile(write(tmp_path, "c.csv", text))
        assert len(profile.publications) == 57

    def test_wrong_header(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_profile(write(tmp_path, "d.csv", "id,year,cites\np1,2001,1\n"))

    def test_negative_citations_reports_line(self, tmp_path):
        text = "pub_id,year,citations\np1,2001,5\np2,2002,-3\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_profile(write(tmp_path, "e.csv", text))

    def test_malformed_citations_reports_line(self, tmp_path):
        text = "pub_id,year,citations\np1,2001,abc\n"
        with pytest.raises(ParseError, match="line 2"):
            load_profile(write(tmp_path, "f.csv", text))

    def test_two_digit_year_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="4-digit"):
            load_profile(write(tmp_path, "g.csv", "pub_id,year,citations\np1,99,4\n"))
        text = "pub_id,year,citations\np1,2001,4\np2,1500,4\n"
        with pytest.raises(ValidationError, match="line 3: .*year 1500"):
            load_profile(write(tmp_path, "g1500.csv", text))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError, match="3 fields"):
            load_profile(write(tmp_path, "h.csv", "pub_id,year,citations\np1,2001\n"))

    def test_duplicate_pub_id(self, tmp_path):
        text = "pub_id,year,citations\np1,2001,5\np1,2002,6\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_profile(write(tmp_path, "i.csv", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="missing.csv"):
            load_profile(tmp_path / "missing.csv")

    def test_citation_cap_is_inclusive(self, tmp_path):
        text = f"pub_id,year,citations\np1,2001,{MAX_CITATIONS}\np2,2002,1\n"
        assert load_profile(write(tmp_path, "cap.csv", text)).citations.max() == MAX_CITATIONS
        text = f"pub_id,year,citations\np1,2001,1\np2,2002,{MAX_CITATIONS + 1}\n"
        with pytest.raises(ValidationError, match="line 3: .*citations"):
            load_profile(write(tmp_path, "over.csv", text))

    def test_year_bound_is_2100(self, tmp_path):
        text = "pub_id,year,citations\np1,2001,1\np2,{},3\n"
        assert load_profile(write(tmp_path, "ok.csv", text.format(2100))).years.tolist() == [2001, 2100]
        with pytest.raises(ValidationError, match=r"^line 3: .*year 2101"):
            load_profile(write(tmp_path, "late.csv", text.format(2101)))

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + GOOD_CSV.encode())
        plain = write(tmp_path, "plain.csv", GOOD_CSV)
        assert load_profile(path).publications == load_profile(plain).publications


class TestJsonLoading:
    def doc(self, **overrides):
        base = {
            "schema_version": 1,
            "name": "J Doe",
            "tags": ["prize"],
            "publications": [
                {"id": "x1", "year": 2005, "citations": 12},
                {"id": "x2", "year": 2001, "citations": 3},
            ],
        }
        base.update(overrides)
        return base

    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "p.json", json.dumps(self.doc()))
        profile = load_profile(path)
        assert profile.name == "J Doe"
        assert profile.tags == ["prize"]
        assert [p.pub_id for p in profile.publications] == ["x2", "x1"]

    def test_wrong_schema_version(self, tmp_path):
        path = write(tmp_path, "q.json", json.dumps(self.doc(schema_version=2)))
        with pytest.raises(SchemaError, match="schema_version 2"):
            load_profile(path)

    def test_missing_schema_version(self, tmp_path):
        doc = self.doc()
        del doc["schema_version"]
        with pytest.raises(SchemaError):
            load_profile(write(tmp_path, "r.json", json.dumps(doc)))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ParseError):
            load_profile(write(tmp_path, "s.json", "{not json"))

    def test_non_integer_citations(self, tmp_path):
        doc = self.doc(publications=[{"id": "x", "year": 2001, "citations": "many"}])
        with pytest.raises(ValidationError):
            load_profile(write(tmp_path, "t.json", json.dumps(doc)))

    @pytest.mark.parametrize("field", ["year", "citations"])
    def test_boolean_field_rejected(self, tmp_path, field):
        doc = self.doc()
        doc["publications"][1][field] = True
        with pytest.raises(ValidationError, match=r"publications\[1\]"):
            load_profile(write(tmp_path, "bool.json", json.dumps(doc)))

    def test_count_above_cap_rejected(self, tmp_path):
        doc = self.doc()
        doc["publications"][0]["citations"] = 10**20
        with pytest.raises(ValidationError, match=r"publications\[0\]: .*citations"):
            load_profile(write(tmp_path, "huge.json", json.dumps(doc)))

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(BOM + json.dumps(self.doc()).encode())
        assert load_profile(path).name == "J Doe"

    @pytest.mark.parametrize("field", ["name", "tags", "id"])
    def test_unpaired_surrogate_escape_rejected(self, tmp_path, field):
        doc = self.doc()
        if field == "id":
            doc["publications"][0]["id"] = "\ud800"
        else:
            doc[field] = "\udfff" if field == "name" else ["\ud83d"]
        with pytest.raises(ParseError, match="unpaired surrogate"):
            load_profile(write(tmp_path, "s.json", json.dumps(doc)))

    def test_surrogate_pair_escape_accepted(self, tmp_path):
        path = write(tmp_path, "pair.json", json.dumps(self.doc(name="J \U0001f600")))
        assert "\\ud83d\\ude00" in path.read_text()
        assert load_profile(path).name == "J \U0001f600"

    def test_missing_publication_field(self, tmp_path):
        doc = self.doc(publications=[{"id": "x", "year": 2001}])
        with pytest.raises(ParseError):
            load_profile(write(tmp_path, "u.json", json.dumps(doc)))


def csv_text(rows, blank_after=()) -> str:
    """Profile CSV text of rows of cells, with an empty line after each row index in ``blank_after``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["pub_id", "year", "citations"])
    for i, row in enumerate(rows):
        writer.writerow(row)
        if i in blank_after:
            out.write("\n")
    return out.getvalue()


def json_text(records) -> str:
    return json.dumps({"schema_version": 1, "name": "J", "tags": ["t"], "publications": records})


def profile_file(tmp_path, fmt: str, rows):
    """A CSV or JSON profile file of (pub_id, year, citations) rows, in their order."""
    if fmt == "csv":
        return write(tmp_path, "p.csv", csv_text(rows))
    return write(tmp_path, "p.json", json_text([dict(zip(("id", "year", "citations"), row)) for row in rows]))


def load_outcome(load, path):
    """What loading ``path`` gives: the error's type and message, or the result."""
    try:
        return load(path)
    except CiteIneqError as exc:
        return type(exc), str(exc)


def columnar_load(path):
    """``load_profile``'s result in the form of ``row_by_row_load``'s."""
    profile = load_profile(path)
    rows = [(pub.pub_id, pub.year, pub.citations) for pub in profile.publications]
    assert profile.years.tolist() == [year for _, year, _ in rows]
    assert profile.citations.tolist() == [cites for _, _, cites in rows]
    return profile.name, profile.tags, rows


#: Padding that the CSV integer parse strips; the last is not whitespace to ``int`` alone.
PADS = ["", " ", "\t", "\x1c"]

#: The faults a record may be given, each as (field, values it may take).
#: A field of None drops one of the keys listed; values of None copy the id
#: of a record drawn from the profile.
FAULTS = [
    *((field, ["x", "1.5", "", " ", "1e3", "true", "0x10", "12", 1.5, None, [2000]])
      for field in ("year", "citations")),  # not an integer (a CSV cell or a JSON value)
    ("year", [MIN_YEAR - 1, 0, -1, -(2**63) - 1]),
    ("year", [MAX_YEAR + 1, 2**63 - 1, 2**63, 2**64 + 1, 10**30]),
    ("citations", [-1, -(2**63), -(2**64)]),
    ("citations", [MAX_CITATIONS + 1, 2**63 - 1, 2**63, 10**30]),
    *((field, [True, False]) for field in ("year", "citations")),  # a JSON boolean
    ("id", [""]),
    ("id", None),
    (None, ["id", "year", "citations"]),  # a missing key, or a CSV row short of a cell
]


@st.composite
def faulty_records(draw):
    """Up to eight publication records with zero to three injected faults."""
    records = [
        {
            "id": f"p{i}" + draw(st.sampled_from(["", "\0", "\nq", ","])),
            "year": draw(st.integers(MIN_YEAR, MAX_YEAR)),
            "citations": draw(st.integers(0, MAX_CITATIONS) | st.integers(0, 9)),
        }
        for i in range(draw(st.integers(0, 8)))
    ]
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        rec = draw(st.sampled_from(records))
        field, values = draw(st.sampled_from(FAULTS))
        if field is None:
            rec.pop(draw(st.sampled_from(values)), None)
        elif values is None:
            rec["id"] = draw(st.sampled_from(records)).get("id", "p0")
        else:
            rec[field] = draw(st.sampled_from(values))
    return records


def csv_cell(value, pad: str) -> str:
    """A record value as a CSV cell; an integer is padded."""
    return f"{pad}{value}{pad}" if type(value) is int else str(value)


class TestRowErrorOrder:
    """The columnar loader against the row-by-row reference: the same rows,
    or the same error type and message."""

    @settings(max_examples=300, deadline=None)
    @given(faulty_records(), st.tuples(st.sampled_from(PADS), st.sampled_from(PADS)), st.sets(st.integers(0, 8)))
    def test_csv_matches_row_by_row(self, tmp_path_factory, records, pads, blank_after):
        rows = [
            [csv_cell(rec[key], pad) for key, pad in zip(("id", "year", "citations"), ["", *pads]) if key in rec]
            for rec in records
        ]
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        path.write_text(csv_text(rows, blank_after), encoding="utf-8")
        assert load_outcome(columnar_load, path) == load_outcome(row_by_row_load, path)

    @settings(max_examples=300, deadline=None)
    @given(faulty_records())
    def test_json_matches_row_by_row(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("json") / "p.json"
        path.write_text(json_text(records), encoding="utf-8")
        assert load_outcome(columnar_load, path) == load_outcome(row_by_row_load, path)

    @pytest.mark.parametrize("line_5", [["p4", "abc", "1"], ["p4", "2001"]], ids=["not-integer", "two-cells"])
    def test_validation_error_on_line_3_beats_parse_error_on_line_5(self, tmp_path, line_5):
        rows = [["p1", "2001", "1"], ["p2", "1500", "1"], ["p3", "2001", "1"], line_5]
        path = write(tmp_path, "v.csv", csv_text(rows))
        with pytest.raises(ValidationError, match=r"^line 3: publication 'p2': year 1500 "):
            load_profile(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            (["", "2001", "x"], "line 2: citations 'x' is not an integer"),
            (["p1", "abc", "-1"], "line 2: year 'abc' is not an integer"),
            (["p1", "1500", "1.0"], "line 2: citations '1.0' is not an integer"),
        ],
    )
    def test_parse_error_beats_validation_error_in_same_row(self, tmp_path, row, message):
        path = write(tmp_path, "p.csv", csv_text([row]))
        with pytest.raises(ParseError) as info:
            load_profile(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_duplicate_reported_by_its_first_repeat(self, tmp_path, fmt):
        # in (year, pub_id) order, or in id order, the first duplicate would be 'a'
        rows = [("z", 2003, 1), ("a", 2001, 1), ("z", 2000, 1), ("a", 2002, 1)]
        with pytest.raises(ValidationError) as info:
            load_profile(profile_file(tmp_path, fmt, rows))
        assert str(info.value) == "duplicate pub_id 'z'"


class TestPublication:
    @pytest.mark.parametrize(
        "fields, message",
        [
            (("p", True, 1), "year True"),
            (("p", 2000, False), "got False"),
            (("", 2000, 1), "pub_id must be a nonempty string"),
            (("p", 2000, MAX_CITATIONS + 1), f"got {MAX_CITATIONS + 1}"),
            (("p", 2000, -1), "got -1"),
        ],
    )
    def test_construction_validates(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            Publication(*fields)
        with pytest.raises(ValidationError, match=message):
            Publication(**dict(zip(("pub_id", "year", "citations"), fields)))

    def test_is_a_tuple_equal_to_its_fields(self):
        # the cost of the NamedTuple, accepted in Publication's docstring
        pub = Publication("p", 2000, 3)
        assert pub == ("p", 2000, 3) and hash(pub) == hash(("p", 2000, 3))
        pub_id, year, citations = pub
        assert (pub_id, year, citations) == (pub.pub_id, pub.year, pub.citations)
        assert repr(pub) == "Publication(pub_id='p', year=2000, citations=3)"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ids_differing_by_a_trailing_nul_stay_distinct(self, tmp_path, fmt):
        rows = [("a\0", 2001, 1), ("b", 2000, 3), ("a", 2001, 2)]
        profile = load_profile(profile_file(tmp_path, fmt, rows))
        assert [(p.pub_id, p.year, p.citations) for p in profile.publications] == [
            ("b", 2000, 3), ("a", 2001, 2), ("a\0", 2001, 1)
        ]
        assert profile.citations.tolist() == [3, 2, 1]


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_then_load_is_identity(self, tmp_path, fmt):
        spec = SynthSpec(model="powerlaw", n_papers=40, exponent=2.2, seed=9)
        profile = synth_profile(spec)
        path = write_profile(profile, tmp_path / f"out.{fmt}")
        reloaded = load_profile(path)
        assert reloaded.publications == profile.publications
        if fmt == "json":
            assert reloaded.name == profile.name
            assert reloaded.tags == profile.tags

    @given(publication_lists)
    def test_csv_round_trip_is_exact(self, tmp_path_factory, pubs):
        # a CSV profile is named after its file and carries no tags
        profile = ResearcherProfile(name="p", tags=[], publications=pubs)
        path = write_profile(profile, tmp_path_factory.mktemp("csv") / "p.csv")
        assert load_profile(path) == profile

    @given(st.text(min_size=1), st.lists(st.text()), publication_lists)
    def test_json_round_trip_is_exact(self, tmp_path_factory, name, tags, pubs):
        profile = ResearcherProfile(name=name, tags=tags, publications=pubs)
        path = write_profile(profile, tmp_path_factory.mktemp("json") / "p.json")
        assert load_profile(path) == profile

    def test_csv_ids_kept_verbatim(self, tmp_path):
        profile = load_profile(write(tmp_path, "s.csv", "pub_id,year,citations\n a,2001,1\na,2001,2\n"))
        assert [p.pub_id for p in profile.publications] == [" a", "a"]

    @pytest.mark.parametrize("name", ["x.csv", "x.JSON"])
    def test_suffix_picks_written_format(self, tmp_path, name):
        profile = synth_profile(SynthSpec(model="uniform", n_papers=5, seed=3))
        reloaded = load_profile(write_profile(profile, tmp_path / name))
        assert reloaded.publications == profile.publications

    def test_unknown_suffix_not_written(self, tmp_path):
        profile = synth_profile(SynthSpec(model="uniform", n_papers=5, seed=3))
        with pytest.raises(ParseError, match="unrecognized profile format '.txt'"):
            write_profile(profile, tmp_path / "x.txt")
        assert not (tmp_path / "x.txt").exists()

    def test_canonical_form_is_stable(self, tmp_path):
        text = "pub_id,year,citations\nzz,2001,4\naa,2001,9\nmm,1999,1\n"
        first = load_profile(write(tmp_path, "v.csv", text))
        write_profile(first, tmp_path / "w.csv")
        second = load_profile(tmp_path / "w.csv")
        assert second.publications == first.publications
        write_profile(second, tmp_path / "x.csv")
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()


class TestWriteText:
    def test_writes_lf_and_refuses_an_existing_file(self, tmp_path):
        path = ingest.write_text("a\nb\n", tmp_path / "sub" / "f.txt")
        assert path.read_bytes() == b"a\nb\n"
        with pytest.raises(ValidationError, match="output file already exists"):
            ingest.write_text("c\n", path)
        assert path.read_bytes() == b"a\nb\n"
        assert [p.name for p in path.parent.iterdir()] == ["f.txt"]

    def test_profile_not_replaced(self, tmp_path):
        profile = synth_profile(SynthSpec(model="uniform", n_papers=5, seed=3))
        path = write_profile(profile, tmp_path / "p.json")
        written = path.read_bytes()
        with pytest.raises(ValidationError):
            write_profile(synth_profile(SynthSpec(model="uniform", n_papers=5, seed=4)), path)
        assert path.read_bytes() == written

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        # text that cannot be encoded fails inside the write; a failed rename after it
        with pytest.raises(UnicodeEncodeError):
            ingest.write_text("a\ud800b\n", tmp_path / "f.txt")
        monkeypatch.setattr(ingest.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            ingest.write_text("a\n", tmp_path / "f.txt")
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_paths_resolve_relative_to_manifest(self, tmp_path):
        sub = tmp_path / "cohort"
        sub.mkdir()
        write(sub, "one.csv", GOOD_CSV)
        manifest = write(
            tmp_path,
            "manifest.json",
            json.dumps([{"name": "One", "path": "cohort/one.csv", "tags": ["t"]}]),
        )
        entries = load_manifest(manifest)
        assert entries[0].name == "One"
        assert entries[0].tags == ("t",)
        assert load_profile(entries[0].path).publications

    def test_duplicate_names_rejected(self, tmp_path):
        doc = [{"name": "A", "path": "a.csv"}, {"name": "A", "path": "b.csv"}]
        with pytest.raises(ValidationError, match="unique"):
            load_manifest(write(tmp_path, "m.json", json.dumps(doc)))

    def test_not_an_array(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(write(tmp_path, "n.json", json.dumps({"name": "A"})))

    def test_missing_path_field(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(write(tmp_path, "o.json", json.dumps([{"name": "A"}])))

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(BOM + json.dumps([{"name": "A", "path": "a.csv"}]).encode())
        assert [e.name for e in load_manifest(path)] == ["A"]


class TestProfileColumns:
    def test_columns_follow_canonical_order(self):
        pubs = [Publication("b", 2003, 5), Publication("a", 2003, 7), Publication("c", 2001, 2)]
        profile = ResearcherProfile(name="cols", publications=pubs)
        assert profile.years.dtype == profile.citations.dtype == np.int64
        assert profile.years.tolist() == [2001, 2003, 2003]
        assert profile.citations.tolist() == [2, 7, 5]

    def test_columns_left_out_of_repr(self):
        profile = ResearcherProfile(name="x", publications=[Publication("p", 2001, 1)])
        assert repr(profile) == (
            "ResearcherProfile(name='x', tags=[], "
            "publications=[Publication(pub_id='p', year=2001, citations=1)])"
        )


class TestSynthesis:
    def test_equal_model_pipeline(self):
        profile = synth_profile(SynthSpec(model="equal", n_papers=5, value=7))
        assert profile.citations.tolist() == [7, 7, 7, 7, 7]
        g, k = index_pair(profile.citations)
        assert (g, k) == (0.0, 0.5)

    def test_deterministic_for_fixed_seed(self, tmp_path):
        spec = SynthSpec(model="powerlaw", n_papers=300, exponent=2.5, seed=42)
        a, b = synth_profile(spec), synth_profile(spec)
        assert a == b
        pa = write_profile(a, tmp_path / "a.json")
        pb = write_profile(b, tmp_path / "b.json")
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_output(self):
        spec = SynthSpec(model="powerlaw", n_papers=300, exponent=2.5, seed=42)
        other = SynthSpec(model="powerlaw", n_papers=300, exponent=2.5, seed=43)
        assert synth_profile(spec) != synth_profile(other)

    def test_powerlaw_more_unequal_than_uniform(self):
        n = 10000
        heavy = synth_profile(SynthSpec(model="powerlaw", n_papers=n, exponent=2.5, seed=3))
        flat = synth_profile(SynthSpec(model="uniform", n_papers=n, value=100, seed=3))
        g_heavy = gini_pairwise(heavy.citations)
        g_flat = gini_pairwise(flat.citations)
        assert g_heavy > g_flat

    def test_years_within_span(self):
        profile = synth_profile(SynthSpec(model="uniform", n_papers=200, span_years=(1995, 2000), seed=5))
        years = {p.year for p in profile.publications}
        assert years <= set(range(1995, 2001))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "zipf", "n_papers": 5},
            {"model": "powerlaw", "n_papers": 0},
            {"model": "powerlaw", "n_papers": 5, "exponent": 1.0},
            {"model": "equal", "n_papers": 5, "span_years": (2010, 2000)},
            {"model": "equal", "n_papers": 5, "value": -1},
        ],
    )
    def test_bad_specs(self, kwargs):
        with pytest.raises(BadSpec):
            SynthSpec(**kwargs)
