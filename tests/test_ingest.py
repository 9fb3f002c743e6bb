"""Profile file loading, canonical export, manifests, and synthesis."""

import csv
import dataclasses
import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from citeineq import ingest, report
from citeineq.profiles import MAX_CITATIONS, MAX_YEAR, MIN_YEAR
from helpers import gini_pairwise, profile_of, row_by_row_load, row_by_row_profile

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

    @pytest.mark.parametrize("header", ["pub_id,year,citations", "id,year"])
    def test_undecodable_byte_past_the_first_read_is_refused(self, tmp_path, header):
        # the byte lies past the 8 KiB that a file read row by row decodes first
        rows = "".join(f"p{i},2001,1\n" for i in range(1000))
        path = tmp_path / "u.csv"
        path.write_bytes(f"{header}\n{rows}".encode() + b"p\xff,2001,1\n")
        with pytest.raises(ParseError) as info:
            load_profile(path)
        assert str(info.value) == f"not UTF-8 text (invalid start byte): {path}"

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

    def test_cells_padded_with_a_separator_load(self, tmp_path):
        # ``int`` refuses the \x1c pad that ``str.strip`` removes
        text = "pub_id,year,citations\np1,\x1c2001\x1c,\x1c10\x1c\np2,2003,\x1c0\n"
        profile = load_profile(write(tmp_path, "pad.csv", text))
        assert profile.publications == [("p1", 2001, 10), ("p2", 2003, 0)]

    def test_load_peak_per_paper(self, tmp_path):
        # streamed, with the count cells freed before the profile is built, the
        # traced peak is about 210 B a paper; with the whole text held and the
        # count cells kept alive it was about 296.  The bound leaves 40 B a
        # paper of margin, about 20%.
        n_papers = 20_000
        path = write_profile(synth_profile(SynthSpec("powerlaw", n_papers, exponent=2.2, seed=1)), tmp_path / "p.csv")
        load_profile(path)
        tracemalloc.start()
        try:
            load_profile(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_papers < 250

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + GOOD_CSV.encode())
        plain = write(tmp_path, "plain.csv", GOOD_CSV)
        assert load_profile(path).publications == load_profile(plain).publications


#: Bytes ``io.TextIOWrapper`` reads and decodes at a time (``io.DEFAULT_BUFFER_SIZE``).
CHUNK = 8192
#: Characters of a streamed CSV's cells, line ends and quotes included.
STREAM_CHARS = [",", '"', "\r", "\n", "\r\n", "a", "1", " ", "\0", "é", "€", "😀"]


def chunk_text(bom: bool, cut: int | None, tail: str) -> str:
    """A profile CSV: its header and then ``tail``; with ``cut``, a first row
    pads ``tail`` so that its byte ``cut`` is the first of the second chunk."""
    head = "\ufeff" * bom + "pub_id,year,citations\r\n"
    if cut is None:
        return head + tail
    lead = CHUNK - len((head + ",2000,1").encode()) - cut
    return head + "p" * lead + ",2000,1" + tail


def read_outcome(path):
    """``read_csv``'s columns, its error's type, message and line, and every row's line."""
    columns, line, error = ingest.read_csv(path, "profile", ingest.CSV_HEADER)
    fault = None if error is None else (type(error), str(error), error.line)
    return columns, fault, [line(row) for row in range(len(columns[0]))]


class TestStreamedRead:
    """``read_csv`` over a file, read in 8 KiB chunks, against the same text in memory."""

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.none() | st.integers(0, 40), st.lists(st.sampled_from(STREAM_CHARS), max_size=60).map("".join))
    @example(bom=False, cut=1, tail="\r\nq,2001,2\r\n")  # \r\n split across the chunk boundary
    @example(bom=False, cut=1, tail="\rq,2001,2\rr,2002,3")  # a lone \r as the first chunk's last byte
    @example(bom=False, cut=1, tail="€,2001,2\n")  # a 3-byte character straddling the boundary
    @example(bom=False, cut=2, tail="😀\nq,2001,2\n")  # a 4-byte one
    @example(bom=True, cut=0, tail="\nq,2001,2\n")  # a BOM ahead of the header
    @example(bom=False, cut=5, tail='\n"q\r\nr\rs\nt",2001,2\n"u\r')  # quoted line breaks; a quote open at EOF
    def test_file_matches_text(self, tmp_path_factory, bom, cut, tail):
        text = chunk_text(bom, cut, tail)
        path = tmp_path_factory.mktemp("stream") / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        from_file = read_outcome(path)
        with pytest.MonkeyPatch.context() as patch:  # every open of the file gives the text in memory
            patch.setattr(ingest, "open", lambda *args, **kwargs: io.StringIO(text.removeprefix("\ufeff"), newline=""),
                          raising=False)
            assert from_file == read_outcome(path)

    @pytest.mark.parametrize("bom, cut, tail", [(False, 1, "\r\n"), (True, 0, "\nq"), (False, 2, "😀\n")])
    def test_chunk_text_starts_the_second_chunk_at_byte_cut(self, bom, cut, tail):
        assert chunk_text(bom, cut, tail).encode()[CHUNK:] == tail.encode()[cut:]

    @pytest.mark.parametrize("text", ["id\np1,2001,1\n", "pub_id,year,citations\np1,2001,1\np2\n"], ids=["header", "row"])
    def test_every_stream_is_closed(self, tmp_path, monkeypatch, text):
        path = tmp_path / "p.csv"
        path.write_text(text, encoding="utf-8")
        opened = []

        def open_recorded(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(ingest, "open", open_recorded, raising=False)
        columns, line, error = ingest.read_csv(path, "profile", ingest.CSV_HEADER)
        assert error is not None and line(0) == 2
        assert len(opened) == 2 and all(stream.closed for stream in opened)


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

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_schema_version_must_be_the_integer_1(self, tmp_path, version):
        # a JSON true is not an integer anywhere else either, and 1.0 == 1 == True in Python
        path = write(tmp_path, "v.json", json.dumps(self.doc(schema_version=version)))
        with pytest.raises(SchemaError) as info:
            load_profile(path)
        assert str(info.value) == f"unsupported schema_version {version!r} (expected 1)"
        with pytest.raises(SchemaError) as oracle:
            row_by_row_load(path)
        assert str(oracle.value) == str(info.value)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"name": ""}, "profile 'name' must be a nonempty string"),
            ({"name": 5}, "profile 'name' must be a nonempty string"),
            ({"tags": "prize"}, "profile 'tags' must be an array of strings"),
            ({"tags": ["prize", 1]}, "profile 'tags' must be an array of strings"),
        ],
    )
    def test_bad_name_or_tags(self, tmp_path, overrides, message):
        with pytest.raises(ValidationError) as info:
            load_profile(write(tmp_path, "n.json", json.dumps(self.doc(**overrides))))
        assert str(info.value) == message

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


def outcome(build, *args):
    """What ``build(*args)`` gives: the error's type and message, or the result."""
    try:
        return build(*args)
    except CiteIneqError as exc:
        return type(exc), str(exc)


def columnar_load(path):
    """``load_profile``'s result in the form of ``row_by_row_load``'s."""
    profile = load_profile(path)
    rows = [(pub.pub_id, pub.year, pub.citations) for pub in profile.publications]
    assert profile.years.tolist() == [year for _, year, _ in rows]
    assert profile.citations.tolist() == [cites for _, _, cites in rows]
    return profile.name, profile.tags, rows


#: Padding of an integer cell: ``int`` alone refuses ``\x1c``, which ``str.strip``
#: removes; ``csv.writer`` quotes a cell holding an LF, which puts its row on more
#: lines, and leaves a lone CR bare, which splits the row.
PADS = ["", " ", "\t", "\x1c", "\n", "\r"]

#: The faults a record may be given, each as (field, values it may take).
#: A field of None drops one of the keys listed; values of None copy the id
#: of a record drawn from the profile.
FAULTS = [
    *((field, ["x", "1.5", "", " ", "1e3", "true", "0x10", "12", "2_001", "٢٠٠٢", "+7", 1.5, None, [2000]])
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

#: JSON values that are not objects, which may stand in for a whole record.
NOT_OBJECTS = [5, "x", None, [1, 2]]


@st.composite
def faulty_records(draw, not_objects=False):
    """Up to eight publication records with zero to three injected faults.

    With ``not_objects``, one record may then be replaced by one of
    ``NOT_OBJECTS``, which a CSV row cannot hold.
    """
    records = [
        {
            "id": f"p{i}" + draw(st.sampled_from(["", "\0", "\nq", "\r\nq", "\rq", ","])),
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
    if not_objects and records and draw(st.booleans()):
        records[draw(st.integers(0, len(records) - 1))] = draw(st.sampled_from(NOT_OBJECTS))
    return records


def csv_cell(value, pad: str) -> str:
    """A record value as a CSV cell; an integer is padded."""
    return f"{pad}{value}{pad}" if type(value) is int else str(value)


#: A pub_id that a CSV file and a JSON document hold alike: no surrogate, and no
#: NUL, which ``csv.reader`` refuses before Python 3.11.
csv_and_json_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=4)


class TestCrossFormat:
    """The same records written as a CSV and as a JSON profile load alike."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(csv_and_json_ids, st.integers(MIN_YEAR, MAX_YEAR) | st.integers(),
                              st.integers(0, MAX_CITATIONS) | st.integers()), max_size=6))
    @example(rows=[("a", 2001, 2**63), ("b", -(2**64), 1)])  # past int64 in the CSV's count and year cells
    def test_csv_and_json_profiles_agree(self, tmp_path_factory, rows):
        # equal profiles, or errors of one type whose messages differ only in
        # ``line N`` against ``publications[i]``
        directory = tmp_path_factory.mktemp("cross")
        out = io.StringIO()
        csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows([ingest.CSV_HEADER, *rows])
        (directory / "p.csv").write_text(out.getvalue(), encoding="utf-8")
        records = [dict(zip(("id", "year", "citations"), row)) for row in rows]
        doc = {"schema_version": 1, "name": "p", "tags": [], "publications": records}
        (directory / "p.json").write_text(json.dumps(doc), encoding="utf-8")
        reader = csv.reader(io.StringIO(out.getvalue(), newline=""))
        lines = [reader.line_num for _ in reader][1:]  # the line each row ends on
        from_csv, from_json = (outcome(load_profile, directory / name) for name in ("p.csv", "p.json"))
        if isinstance(from_json, ResearcherProfile):
            assert from_csv == from_json
        else:
            kind, message = from_json
            assert from_csv == (kind, re.sub(r"^publications\[(\d+)\]", lambda m: f"line {lines[int(m[1])]}", message))


class TestRowErrorOrder:
    """The columnar loader against the row-by-row reference: the same rows,
    or the same error type and message."""

    @settings(max_examples=300, deadline=None)
    @given(faulty_records(), st.tuples(st.sampled_from(PADS), st.sampled_from(PADS)), st.sets(st.integers(0, 8)))
    # a pub_id keeps its line breaks as written: the file is read untranslated
    @example(records=[{"id": "p0\r\nq", "year": 2001, "citations": 1}, {"id": "p0\nq", "year": 2001, "citations": 2}],
             pads=("", ""), blank_after=set())
    @example(records=[{"id": "p0\r\nq", "year": 2001, "citations": 1}], pads=("", ""), blank_after={0})
    @example(records=[{"id": "p0\rq", "year": 2001, "citations": 1}], pads=("", ""), blank_after=set())
    @example(records=[{"id": "p0\nq", "year": 2001, "citations": 1}, {"id": "p1", "year": 1700, "citations": 1}],
             pads=("", "\r"), blank_after={0})
    def test_csv_matches_row_by_row(self, tmp_path_factory, records, pads, blank_after):
        rows = [
            [csv_cell(rec[key], pad) for key, pad in zip(("id", "year", "citations"), ["", *pads]) if key in rec]
            for rec in records
        ]
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        path.write_text(csv_text(rows, blank_after), encoding="utf-8")
        assert outcome(columnar_load, path) == outcome(row_by_row_load, path)

    @settings(max_examples=300, deadline=None)
    @given(faulty_records(not_objects=True))
    def test_json_matches_row_by_row(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("json") / "p.json"
        path.write_text(json_text(records), encoding="utf-8")
        assert outcome(columnar_load, path) == outcome(row_by_row_load, path)

    @pytest.mark.parametrize(
        "line_3, line_5",
        [
            (["p2", "1500", "1"], ["p4", "abc", "1"]),
            (["p2", "1500", "1"], ["p4", "2001"]),
            (["p2", str(10**30), "1"], ["p4", "abc", "1"]),
        ],
        ids=["not-integer", "two-cells", "past-int64-then-not-integer"],
    )
    def test_validation_error_on_line_3_beats_parse_error_on_line_5(self, tmp_path, line_3, line_5):
        rows = [["p1", "2001", "1"], line_3, ["p3", "2001", "1"], line_5]
        path = write(tmp_path, "v.csv", csv_text(rows))
        with pytest.raises(ValidationError, match=rf"^line 3: publication 'p2': year {line_3[1]} "):
            load_profile(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            (["", "2001", "x"], "line 2: citations 'x' is not an integer"),
            (["p1", "abc", "-1"], "line 2: year 'abc' is not an integer"),
            (["p1", "1500", "1.0"], "line 2: citations '1.0' is not an integer"),
            (["p1", "99999999999999999999", "x"], "line 2: citations 'x' is not an integer"),
            (["p1", "2_001", "+7"], "line 2: year '2_001' is not an integer"),  # the row's first bad cell
        ],
    )
    def test_parse_error_beats_validation_error_in_same_row(self, tmp_path, row, message):
        path = write(tmp_path, "p.csv", csv_text([row]))
        with pytest.raises(ParseError) as info:
            load_profile(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "records, error, message",
        [
            ([{"id": "a", "year": 1500, "citations": 1}, 5], ValidationError, r"^publications\[0\]: .*year 1500"),
            ([5], ParseError, r"^publications\[0\] must have id, year and citations$"),
        ],
        ids=["bad-row-first", "not-an-object"],
    )
    def test_json_record_that_is_not_an_object(self, tmp_path, records, error, message):
        with pytest.raises(error, match=message):
            load_profile(write(tmp_path, "p.json", json_text(records)))

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
        profile = profile_of(pubs, name="p")
        path = write_profile(profile, tmp_path_factory.mktemp("csv") / "p.csv")
        assert load_profile(path) == profile

    @given(st.text(min_size=1), st.lists(st.text()), publication_lists)
    def test_json_round_trip_is_exact(self, tmp_path_factory, name, tags, pubs):
        profile = profile_of(pubs, name=name, tags=tags)
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


def write_text(text: str, path):
    """Write ``text`` to the new file ``path`` through ``ingest.new_file``."""
    with ingest.new_file(path) as fh:
        fh.write(text)


class TestWriteText:
    def test_writes_lf_and_refuses_an_existing_file(self, tmp_path):
        path = tmp_path / "sub" / "f.txt"
        write_text("a\nb\n", path)
        assert path.read_bytes() == b"a\nb\n"
        with pytest.raises(ValidationError, match="output file already exists"):
            write_text("c\n", path)
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

        # text that cannot be encoded fails inside the write; a failed publish after it
        with pytest.raises(UnicodeEncodeError):
            write_text("a\ud800b\n", tmp_path / "f.txt")
        monkeypatch.setattr(ingest.os, "link", fail)
        with pytest.raises(OSError, match="disk full"):
            write_text("a\n", tmp_path / "f.txt")
        assert list(tmp_path.iterdir()) == []

    def test_existing_temp_file_is_left_alone(self, tmp_path):
        temp = tmp_path / f".f.txt.{os.getpid()}.tmp"
        temp.write_text("not made by this write\n")
        with pytest.raises(FileExistsError):
            write_text("a\n", tmp_path / "f.txt")
        assert temp.read_text() == "not made by this write\n"
        assert not (tmp_path / "f.txt").exists()


def write_csv_text(rows) -> str:
    """What ``ingest.write_csv`` writes of ``rows``."""
    out = io.StringIO()
    ingest.write_csv(out, rows)
    return out.getvalue()


class TestCsvText:
    def test_rows_written_once_without_a_cr(self):
        assert write_csv_text([["a", 1], ["b,c", 2.5], ["d", None]]) == 'a,1\n"b,c",2.5\nd,\n'

    def test_text_with_a_cr_quotes_every_text_cell(self):
        assert write_csv_text([["a", 1], ["b\rc", 2]]) == '"a",1\n"b\rc",2\n'


def two_pass_csv_text(rows) -> str:
    """CSV text of ``rows`` by the rule of writing twice: once with minimal
    quoting, and again with every text cell quoted if that text holds a CR."""
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n", quoting=quoting).writerows(rows)
        if "\r" not in out.getvalue():
            break
    return out.getvalue()


csv_cells = (
    st.lists(st.sampled_from(["a", "é", " ", ",", '"', "\r", "\n", "\r\n", "1"]), max_size=6).map("".join)
    | st.none()
    | st.integers()
    | st.floats()
)
json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


class TestStreamedWrites:
    """Every output is encoded straight into the temporary file of ``new_file``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(csv_cells, max_size=5), max_size=6))
    @example([["a", 1], ["b\rc", None, 2.5]])  # a CR quotes every text cell, and None as ""
    def test_csv_matches_the_two_pass_rule(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with ingest.new_file(path) as fh:
            ingest.write_csv(fh, rows)
        assert path.read_bytes() == two_pass_csv_text(rows).encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(json_payloads)
    def test_json_matches_dumps(self, tmp_path_factory, payload):
        path = report.write_json(payload, tmp_path_factory.mktemp("json") / "t.json")
        assert path.read_bytes() == (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")

    def test_json_is_not_held_whole(self, tmp_path):
        # as one string the encoder's chunks and the text took about 9 MB above
        # this payload; streamed, the traced peak is about 0.07 MB
        row = {"name": "Researcher", "tags": "a;b", "n_pubs": 300, "g_overall": 0.6123456789012345,
               "crossing_years": [1999, 2004], "soc_flagged": False}
        payload = {"rows": [dict(row, n_pubs=i, k_overall=i / 7) for i in range(5600)], "aggregates": {}}
        assert 1.3e6 < len(json.dumps(payload, indent=2)) < 1.5e6
        tracemalloc.start()
        try:
            report.write_json(payload, tmp_path / "cohort.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    def test_json_failing_deep_in_the_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "cohort.json"
        payload = {"rows": [{"g": i / 3} for i in range(5000)] + [{"g": float("nan")}]}
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            report.write_json(payload, path)
        assert list(tmp_path.iterdir()) == []
        report.write_json({"rows": []}, path)
        assert path.read_text() == '{\n  "rows": []\n}\n'

    def test_write_failing_mid_stream_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        profile = synth_profile(SynthSpec(model="uniform", n_papers=5000, seed=3))
        real_open = open

        def open_failing_after_a_write(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            write, calls = fh.write, iter(range(2))

            def write_once(text):
                if next(calls, None) is None:
                    raise OSError("disk full")
                return write(text)

            fh.write = write_once
            return fh

        monkeypatch.setattr(ingest, "open", open_failing_after_a_write, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_profile(profile, path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        write_profile(profile, path)
        assert load_profile(path) == dataclasses.replace(profile, name="p", tags=[])


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

    @pytest.mark.parametrize("tags", ["t", [1], [["t"]]])
    def test_tags_must_be_an_array_of_strings(self, tmp_path, tags):
        doc = [{"name": "A", "path": "a.csv"}, {"name": "B", "path": "b.csv", "tags": tags}]
        with pytest.raises(ValidationError) as info:
            load_manifest(write(tmp_path, "t.json", json.dumps(doc)))
        assert str(info.value) == "manifest[1]: tags must be an array of strings"

    def test_missing_path_field(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(write(tmp_path, "o.json", json.dumps([{"name": "A"}])))

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(BOM + json.dumps([{"name": "A", "path": "a.csv"}]).encode())
        assert [e.name for e in load_manifest(path)] == ["A"]


#: Cells that break a row rule, per column, for ``profile_columns``.
CELL_FAULTS = (
    ["", 5, None, b"p"],
    [MIN_YEAR - 1, MAX_YEAR + 1, -(2**63), 2**63 - 1, 2**64, True, 2000.0, "2000", None],
    [-1, MAX_CITATIONS + 1, -(2**63), 2**63 - 1, 10**30, False, 1.0, "1", None],
)

#: Ids that collide, differ only by trailing NULs, or are not ASCII.
NEAR_IDS = ["a", "a\0", "a\0\0", "b", "\0", "é", "e\u0301", "文字", "ü\0"]


@st.composite
def profile_columns(draw):
    """(ids, years, citations) of up to eight rows, with zero to two faults: a
    bad cell or a repeated id.  Each numeric column is a list or, when its
    cells allow, an int64 array."""
    n = draw(st.integers(0, 8))
    ids = st.sampled_from(NEAR_IDS) | st.text(min_size=1, max_size=3)
    columns = [
        draw(st.lists(ids, min_size=n, max_size=n, unique=True)),
        draw(st.lists(st.integers(MIN_YEAR, MAX_YEAR), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, MAX_CITATIONS) | st.integers(0, 9), min_size=n, max_size=n)),
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if n else 0):
        col, row = draw(st.integers(0, 3)), draw(st.integers(0, n - 1))
        if col == 3:
            columns[0][row] = columns[0][draw(st.integers(0, n - 1))]
        else:
            columns[col][row] = draw(st.sampled_from(CELL_FAULTS[col]))
    for col in (1, 2):
        cells = columns[col]
        if set(map(type, cells)) <= {int} and all(-(2**63) <= v < 2**63 for v in cells) and draw(st.booleans()):
            columns[col] = np.array(cells, dtype=np.int64)
    return columns


def constructed_rows(name, tags, ids, years, citations):
    """``ResearcherProfile``'s result in the form of ``row_by_row_profile``'s."""
    profile = ResearcherProfile(name, tags, ids, years, citations)
    assert profile.years.dtype == profile.citations.dtype == np.int64
    assert not (profile.years.flags.writeable or profile.citations.flags.writeable)
    return profile.name, profile.tags, list(zip(profile.pub_ids, profile.years.tolist(), profile.citations.tolist()))


class TestProfileColumns:
    def test_columns_follow_canonical_order(self):
        pubs = [Publication("b", 2003, 5), Publication("a", 2003, 7), Publication("c", 2001, 2)]
        profile = profile_of(pubs, name="cols")
        assert profile.years.dtype == profile.citations.dtype == np.int64
        assert profile.years.tolist() == [2001, 2003, 2003]
        assert profile.citations.tolist() == [2, 7, 5]

    def test_repr_shows_the_columns(self):
        profile = ResearcherProfile("x", [], ["p"], [2001], [1])
        assert repr(profile) == (
            "ResearcherProfile(name='x', tags=[], pub_ids=['p'], "
            "years=array([2001]), citations=array([1]))"
        )
        assert profile.publications == [Publication("p", 2001, 1)]

    @given(profile_columns())
    @settings(max_examples=300)
    def test_constructor_matches_row_by_row(self, columns):
        want = outcome(row_by_row_profile, "n", ["t"], *columns)
        have = outcome(constructed_rows, "n", ["t"], *columns)
        assert have == want

    @pytest.mark.parametrize(
        "column, cells, message",
        [
            ("years", np.array([True, False]), "year True is not a 4-digit calendar year"),
            ("years", np.array([2000.0, 2001.0]), "year 2000.0 is not a 4-digit calendar year"),
            ("years", np.array([2000, 2**64 - 1], np.uint64), f"year {2**64 - 1} is not"),
            ("citations", np.array([False, True]), "citations must be an integer .* got False"),
            ("citations", np.array([1.0, 2.0]), "citations must be an integer .* got 1.0"),
            ("citations", np.array([1, 2**64 - 1], np.uint64), f"got {2**64 - 1}"),
        ],
        ids=["bool-years", "float-years", "uint64-years", "bool-citations", "float-citations", "uint64-citations"],
    )
    def test_numpy_column_dtypes_refused_by_their_cells(self, column, cells, message):
        columns = {"pub_ids": ["a", "b"], "years": [2000, 2001], "citations": [1, 2], column: cells}
        with pytest.raises(ValidationError, match=message):
            ResearcherProfile("x", [], **columns)

    def test_in_range_uint64_column_accepted(self):
        ids, years, citations = ["b", "a"], [2001, 2001], [5, MAX_CITATIONS]
        want = ResearcherProfile("x", [], ids, years, citations)
        have = ResearcherProfile("x", [], ids, np.array(years, np.uint64), np.array(citations, np.uint64))
        assert have == want and have.citations.dtype == np.int64
        assert have.pub_ids == ["a", "b"] and have.citations.tolist() == [MAX_CITATIONS, 5]

    def test_columns_of_unequal_length_refused(self):
        with pytest.raises(ValidationError, match="2 pub_ids, 1 years and 2 citations"):
            ResearcherProfile("x", [], ["a", "b"], [2000], [1, 2])

    @pytest.mark.parametrize("fmt", [None, "csv", "json"])
    def test_row_error_carries_the_input_index(self, tmp_path, fmt):
        # the fourth row in input order is bad, and first in (year, pub_id) order;
        # the fifth is bad too
        rows = [("a", 2005, 1), ("b", 2004, 2), ("c", 2003, 3), ("d", 1500, 4), ("e", 2001, -1)]
        with pytest.raises(ValidationError) as info:
            profile_of(rows) if fmt is None else load_profile(profile_file(tmp_path, fmt, rows))
        where = {None: "", "csv": "line 5: ", "json": "publications[3]: "}[fmt]
        assert str(info.value).startswith(f"{where}publication 'd': year 1500 ")
        assert info.value.row == 3

    @pytest.mark.parametrize(
        "columns", [(["a", "b", "a"], [2001, 2000, 2002], [1, 2, 3]), (["a", "b"], [2000], [1, 2])],
        ids=["duplicate-id", "unequal-lengths"],
    )
    def test_error_spanning_rows_has_no_row(self, columns):
        with pytest.raises(ValidationError) as info:
            ResearcherProfile("x", [], *columns)
        assert info.value.row is None

    def test_columns_are_read_only_copies(self):
        years, citations = np.array([2001, 2000]), np.array([4, 5])
        profile = ResearcherProfile("x", [], ["a", "b"], years, citations)
        for column in (profile.years, profile.citations):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        # the caller's arrays are neither reordered, frozen nor shared
        years[0] = 1999
        assert years.flags.writeable and citations.tolist() == [4, 5]
        assert profile.years.tolist() == [2000, 2001] and profile.citations.tolist() == [5, 4]

    @given(publication_lists)
    def test_publications_always_match_the_columns(self, pubs):
        profile = profile_of(pubs)
        rows = profile.publications
        assert rows == list(zip(profile.pub_ids, profile.years.tolist(), profile.citations.tolist()))
        assert all(type(pub) is Publication for pub in rows)
        assert sorted(rows, key=lambda pub: (pub.year, pub.pub_id)) == rows
        rows.clear()  # a new list each call: editing it leaves the profile as it was
        assert len(profile.publications) == len(pubs)

    def test_equality_compares_name_tags_and_rows(self):
        rows = [("a", 2001, 3), ("b", 2000, 4)]
        profile = profile_of(rows, name="x", tags=["t"])
        assert profile == profile_of(rows[::-1], name="x", tags=["t"])
        assert profile != profile_of([("a", 2001, 3), ("b", 2000, 5)], name="x", tags=["t"])
        assert profile != profile_of([("a", 2001, 3), ("b", 2001, 4)], name="x", tags=["t"])
        assert profile != profile_of([("a", 2001, 3), ("c", 2000, 4)], name="x", tags=["t"])
        assert profile != profile_of(rows, name="y", tags=["t"])
        assert profile != profile_of(rows, name="x", tags=[])
        assert profile != rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_clean_file_builds_no_publication(self, tmp_path, monkeypatch, fmt):
        built = []
        new, make = Publication.__new__, Publication._make.__func__
        monkeypatch.setattr(Publication, "__new__", lambda cls, *a, **kw: built.append(a) or new(cls, *a, **kw))
        monkeypatch.setattr(Publication, "_make", classmethod(lambda cls, it: built.append(it) or make(cls, it)))
        rows = [(f"p{i}", 2000 + i % 7, i * 3) for i in range(50)]
        profile = load_profile(profile_file(tmp_path, fmt, rows))
        assert built == [] and len(profile.pub_ids) == 50
        # the counters see the rows built on request, and those of a bad file
        assert len(profile.publications) == len(built) == 50
        (tmp_path / "bad").mkdir()
        with pytest.raises(ValidationError):
            load_profile(profile_file(tmp_path / "bad", fmt, rows + [("", 2000, 1)]))
        assert len(built) > 50


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
            {"model": "equal", "n_papers": 5, "span_years": (2000,)},
            {"model": "equal", "n_papers": 5, "span_years": (2000, 2001, 2002)},
            {"model": "equal", "n_papers": 5, "span_years": 2000},
            {"model": "powerlaw", "n_papers": 5, "exponent": "2"},
            {"model": "powerlaw", "n_papers": 5, "exponent": None},
        ],
    )
    def test_bad_specs(self, kwargs):
        with pytest.raises(BadSpec):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("n_papers", {"n_papers": 2.5}),
            ("n_papers", {"n_papers": True}),
            ("seed", {"seed": 1.5}),
            ("value", {"value": 7.5}),
            ("value", {"value": 7.0}),
            ("span_years[0]", {"span_years": (2000.0, 2010)}),
            ("span_years[1]", {"span_years": (2000, np.float64(2010))}),
        ],
    )
    def test_integer_fields_must_be_ints(self, field, kwargs):
        with pytest.raises(BadSpec) as info:
            SynthSpec(**{"model": "equal", "n_papers": 5, **kwargs})
        assert str(info.value).startswith(f"{field} must be an int, got ")
