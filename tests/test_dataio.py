"""Binary matrix format, CSV tables, manifest integrity, model container."""
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from abstain import dataio
from abstain.dataio import (
    NO_LABEL,
    WRITE_ROWS,
    ChecksumError,
    DataError,
    FormatError,
    MagicError,
    RowCountError,
    VersionError,
    load_manifest,
    load_models,
    load_splits,
    parse_matrix,
    read_scores_csv,
    save_dataset,
    save_models,
    sha256_file,
    write_matrix,
    write_scores_csv,
)
from abstain.core import seeded_rng
from abstain.density import fit_md
from abstain.hybrid import HybridConfig
from abstain.synth import SynthSpec, generate
from oracles import csv_read_scores, csv_write_scores


def read_matrix(path):
    return parse_matrix(path.read_bytes(), path)


@pytest.fixture()
def dataset():
    return generate(SynthSpec(seed=3, n_train=60, n_validation=30, n_test=30,
                              n_classes=3, dim=4, mc_passes=3))


class TestMatrixFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 5)).astype("<f4")
        write_matrix(tmp_path / "m.bin", arr)
        back = read_matrix(tmp_path / "m.bin")
        assert back.dtype == np.dtype("<f4")
        assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_matrix(tmp_path / "m.bin", np.zeros(3))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        write_matrix(p, np.zeros((2, 2)))
        raw = bytearray(p.read_bytes())
        raw[:8] = b"XXGARBAG"
        p.write_bytes(bytes(raw))
        with pytest.raises(MagicError) as exc:
            read_matrix(p)
        assert exc.value.code == "bad-magic"

    def test_bad_version(self, tmp_path):
        p = tmp_path / "m.bin"
        write_matrix(p, np.zeros((2, 2)))
        raw = bytearray(p.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionError) as exc:
            read_matrix(p)
        assert exc.value.code == "bad-version"

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"UQMA")
        with pytest.raises(FormatError, match="truncated header"):
            read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.bin"
        write_matrix(p, np.ones((4, 3)))
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(RowCountError) as exc:
            read_matrix(p)
        assert exc.value.code == "row-count-disagreement"


def score_columns(path):
    """The columns (instance, label, method, score) of every row of the
    score table ``path``, each the join of the spans that
    ``dataio._score_spans`` places; method names stay bytes."""
    spans = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, "S"), np.empty(0))]
    dataio._score_spans(path, lambda *columns: spans.append(columns))
    return tuple(np.concatenate(parts) for parts in zip(*spans))


class TestScoreCsv:
    def test_roundtrip_with_and_without_label_column(self, tmp_path):
        # instance-level SR and MD around a pair-level MP
        sr = np.array([0.25, 0.5])
        mp = np.array([[0.1, 0.4], [0.7, 0.2]])
        md = np.array([3.75e-2, 1.5])
        write_scores_csv(tmp_path / "s.csv", {"SR": sr, "MP": mp, "MD": md})
        instance, label, method, score = score_columns(tmp_path / "s.csv")
        assert instance.tolist() == [0, 1, 0, 0, 1, 1, 0, 1]
        assert label.tolist() == [NO_LABEL, NO_LABEL, 0, 1, 0, 1, NO_LABEL, NO_LABEL]
        assert method.tolist() == [b"SR", b"SR", b"MP", b"MP", b"MP", b"MP", b"MD", b"MD"]
        assert score.tolist() == [0.25, 0.5, 0.1, 0.4, 0.7, 0.2, 3.75e-2, 1.5]
        instances = read_scores_csv(tmp_path / "s.csv", "instance", 2, 2)
        assert list(instances) == ["MD", "SR"]
        assert instances["MD"].tolist() == md.tolist() and instances["SR"].tolist() == sr.tolist()
        pairs = read_scores_csv(tmp_path / "s.csv", "label", 2, 2)
        assert list(pairs) == ["MP"] and pairs["MP"].tolist() == mp.tolist()

    def test_float_repr_roundtrips_exactly(self, tmp_path):
        val = 0.1 + 0.2  # not representable as a short decimal
        write_scores_csv(tmp_path / "s.csv", {"SR": np.array([val])})
        assert read_scores_csv(tmp_path / "s.csv", "instance", 1, 1)["SR"][0] == val

    def test_mixed_table_bytes_are_pinned_and_read_back_exactly(self, tmp_path):
        # an instance-level method, then a pair-level one; the floats need
        # repr's shortest round trip: inf, 0.1 + 0.2 and a subnormal
        sr = np.array([0.25, np.inf])
        mp = np.array([[0.1 + 0.2, 5e-324], [0.0, 1.0]])
        path = tmp_path / "s.csv"
        write_scores_csv(path, {"SR": sr, "MP": mp})
        assert path.read_bytes() == (
            b"instance,label,method,score\r\n"
            b"0,,SR,0.25\r\n"
            b"1,,SR,inf\r\n"
            b"0,0,MP,0.30000000000000004\r\n"
            b"0,1,MP,5e-324\r\n"
            b"1,0,MP,0.0\r\n"
            b"1,1,MP,1.0\r\n"
        )
        instance, label, method, score = score_columns(path)
        assert instance.tolist() == [0, 1, 0, 0, 1, 1]
        assert label.tolist() == [NO_LABEL, NO_LABEL, 0, 1, 0, 1]
        assert method.tolist() == [b"SR", b"SR", b"MP", b"MP", b"MP", b"MP"]
        assert np.array_equal(score.view(np.int64), np.concatenate([sr, mp.ravel()]).view(np.int64))
        assert read_scores_csv(path, "instance", 2, 2)["SR"].tobytes() == sr.tobytes()
        assert read_scores_csv(path, "label", 2, 2)["MP"].tobytes() == mp.tobytes()

    def test_header_and_row_shape_enforced(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n")
        with pytest.raises(FormatError, match="header"):
            read_scores_csv(p, "instance", 1, 1)
        p.write_text("instance,label,method,score\n0,,SR\n")
        with pytest.raises(FormatError, match="malformed row"):
            read_scores_csv(p, "instance", 1, 1)
        p.write_text("instance,label,method,score\n0,-1,MP,0.5\n")
        with pytest.raises(FormatError, match="negative label"):
            read_scores_csv(p, "instance", 1, 1)


SCORE_TABLE_HEADER = "instance,label,method,score\n"


PARITY_BODIES = [
    "0,,SR,0.5\n\n1,,SR,0.25\n",
    "0,,SR,0.5\n\n",
    "#0,,SR,0.5\n",
    "0,,#SR,0.5\n1,2,#,0.25\n",
    '0,,"SR",0.5\n1,,"S""R",0.25\n',
    '0,,"SR,MD",0.5\n1,0,"a,b,c",0.25\n',
    "0,,S,0.5\n1,,S,0.25\n",
    f"0,,{'M' * 200},0.5\n1,3,{'m' * 200},0.25\n",
    "0,,Ünïcødé-∑σ,0.5\n1,,日本,0.25\n",
    "0,0,MP,0.5\r\n0,1,MP,0.25\r\n",
    "0,0,MP,0.5\r0,1,MP,0.25\r",
    "",
    "0,,SR\n",
    "0,,SR,0.5,1\n",
    "0,,SR,inf\n1,,SR,5e-324\n2,,SR,-0.0\n3,,SR,-inf\n",
    "0,,SR,0.5\n1.0,,SR,0.25\n",
    "0,1,MP,0.5\n0,2.7,MP,0.25\n",
    " 1,+2,MP,0.5\n-0,0,MP,0.25\n",
    "0,0,MP,0.5\r\n0,1,MP,0.25\r1,0,MP,0.5\n1,1,MP,1.0\r",
]
PARITY_IDS = ["blank-line", "blank-last-line", "row-starts-with-hash", "hash-in-method",
              "quoted-method", "quoted-comma", "one-char-method", "200-char-method", "non-ascii-method",
              "crlf", "cr", "header-only", "three-fields", "five-fields", "inf-subnormal-negative-zero",
              "float-instance", "float-label", "int-spelling", "mixed-line-ends"]


@pytest.mark.parametrize("body", PARITY_BODIES, ids=PARITY_IDS)
def test_score_reader_matches_the_csv_module(body, tmp_path):
    """Each table reads as the csv-module reader reads it, floats bit for
    bit and dtypes included, or is a FormatError where that reader fails."""
    path = tmp_path / "s.csv"
    path.write_bytes((SCORE_TABLE_HEADER + body).encode())
    try:
        expected = csv_read_scores(path)
    except ValueError:
        with pytest.raises(FormatError):
            score_columns(path)
        return
    got = score_columns(path)
    for g, e in zip(got[:2] + got[3:], expected[:2] + expected[3:]):
        assert g.dtype == e.dtype and g.shape == e.shape
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
    assert np.char.decode(got[2]).tolist() == expected[2].tolist()
    assert np.array_equal(got[3].view(np.int64), expected[3].view(np.int64))


NAMED_LINES = [
    ("0,,SR,0.5\n0,,SR\n", "line 3: '0,,SR'"),
    ("0,,SR,0.5\n1,,SR,0.5,1\n", "line 3: '1,,SR,0.5,1'"),
    ("0,,SR,0.5\n99999999999999999999999,,SR,0.5\n", "line 3: '99999999999999999999999,,SR,0.5'"),
    ("0,,SR,0.5\n3.9,,SR,0.5\n", "line 3: '3.9,,SR,0.5'"),
    ("0,,SR,0.5\n" * 1500 + "1,,SR,x\n" + "0,,SR,0.5\n" * 700 + "2,,SR\n", "line 1502: '1,,SR,x'"),
    ("0,,SR,zero\n", "line 2: '0,,SR,zero'"),
    ("0,0,MP,0.5\n0,99999999999999999999999,MP,0.5\n", "line 3: label '99999999999999999999999'"),
    ("0,1.0,MP,0.5\n", "line 2: label '1.0'"),
    ("0,,SR,0.5\n\n", "line 3 is blank"),
    ("0,,SR,0.5\n1,,SR\n\n2,,SR,0.25\n", "line 3: '1,,SR'"),
    ("0,,SR,0.5\n1,-2,MP,0.25\n\n", "negative label"),
    ('0,,"S\nR",0.5\n', "line break"),
    ("0,,Ünï,0.5,1\n", "line 2: '0,,Ünï,0.5,1'"),
]


def test_score_reader_names_the_line_it_cannot_parse(tmp_path):
    """The FormatError names the first faulty line: a malformed row or a
    bad label before a blank line is named, not the blank line."""
    path = tmp_path / "s.csv"
    for body, named in NAMED_LINES:
        path.write_bytes((SCORE_TABLE_HEADER + body).encode())
        with pytest.raises(FormatError, match=named.replace(".", r"\.")):
            score_columns(path)


@pytest.mark.parametrize("span", [1, 3, WRITE_ROWS])
@pytest.mark.parametrize("order", ["grouped", "interleaved"])
def test_score_reader_at_a_level_reads_the_full_tables_rows(order, span, tmp_path, monkeypatch):
    """``read_scores_csv(path, level, n, width)`` puts each row of the
    level that the spans parse at its unit, one array per method in name
    order, on a table grouped by method as the writer writes it and on one
    sorted by instance and label, where each row is a method run of its
    own.  Spans of 1 and 3 lines hold spans that keep no row."""
    rng = seeded_rng(1)
    path = tmp_path / "s.csv"
    write_scores_csv(path, {"SR": rng.uniform(size=4), "MP": rng.uniform(size=(4, 3)),
                            "MD": rng.uniform(size=4), "MQ": rng.uniform(size=(4, 3))})
    if order == "interleaved":
        header, *rows = path.read_text().splitlines()
        rows.sort(key=lambda row: [int(field or -1) for field in row.split(",")[:2]])
        path.write_text("\n".join([header] + rows) + "\n")
    monkeypatch.setattr(dataio, "WRITE_ROWS", span)
    instance, label, method, score = score_columns(path)
    for level, shape in (("instance", (4,)), ("label", (4, 3))):
        keep = (label != NO_LABEL) == (level == "label")
        expected = {}
        for name in sorted(set(method[keep].tolist())):
            rows = keep & (method == name)
            expected[name.decode()] = values = np.empty(shape)
            values[(instance[rows], label[rows])[:len(shape)]] = score[rows]
        got = read_scores_csv(path, level, 4, 3)
        assert list(got) == list(expected)
        for g, e in zip(got.values(), expected.values()):
            assert g.dtype == e.dtype and g.shape == e.shape
            assert np.array_equal(g.view(np.uint8), e.view(np.uint8))


@pytest.mark.parametrize("level", ["instance", "label"])
@pytest.mark.parametrize("body, named", [
    ("0,0,MP,0.5\n0,,SR,0.5\n0,,SR\n", "line 4: '0,,SR'"),
    ("0,,SR,0.5\n0,0,MP,0.5\n0,1,MP\n", "line 4: '0,1,MP'"),
    ("0,,SR,0.5\n0,0,MP,0.5\n0,x,MP,0.5\n", "line 4: label 'x' is not an int64 integer"),
    ("0,,SR,0.5\n0,0,MP,0.5\n0,-2,MP,0.5\n", "line 4: negative label index -2"),
    ("0,0,MP,0.5\n0,,\xff,0.5\n", "method name is not UTF-8"),
    ("0,,SR,0.5\n0,0,\xff,0.5\n", "method name is not UTF-8"),
], ids=["short-instance-row", "short-pair-row", "non-integer-label", "negative-label",
        "instance-name-not-utf8", "pair-name-not-utf8"])
def test_score_reader_at_a_level_checks_every_row(level, body, named, tmp_path):
    """A faulty row is the FormatError that the parse of every row gives,
    its line named, whichever level the read keeps; so is a method name
    that is not UTF-8, on a row of either level."""
    path = tmp_path / "s.csv"
    path.write_bytes(SCORE_TABLE_HEADER.encode() + body.encode("latin1"))
    with pytest.raises(FormatError, match=named) as at_level:
        read_scores_csv(path, level, 1, 2)
    if "UTF-8" in named:   # names are decoded after the parse, which yields them as bytes
        other = {"instance": "label", "label": "instance"}[level]
        with pytest.raises(FormatError) as full:
            read_scores_csv(path, other, 1, 2)
    else:
        with pytest.raises(FormatError) as full:
            score_columns(path)
    assert str(at_level.value) == str(full.value)


@pytest.mark.parametrize("span", [1, WRITE_ROWS])
@pytest.mark.parametrize("level, body", [
    ("instance", "0,,SR,0.5\n7,,SR,0.5\n1,,SR,0.5\n2,,SR\n"),
    ("label", "0,0,MP,0.5\n0,0,MP,0.5\n0,1,MP,0.5\n1,0,MP\n"),
], ids=["out-of-range", "duplicate"])
def test_score_reader_names_a_late_malformed_row_before_an_early_unit_error(level, body, span, tmp_path,
                                                                           monkeypatch):
    """A unit error early in the table, an out-of-range or a repeated row,
    does not hide a malformed row on the last line: the read raises that
    line's FormatError, whether the rows come in one span or in many."""
    path = tmp_path / "s.csv"
    path.write_text(SCORE_TABLE_HEADER + body)
    monkeypatch.setattr(dataio, "WRITE_ROWS", span)
    last = body.splitlines()[-1]
    with pytest.raises(FormatError, match=f"malformed row on line 5: '{last}'"):
        read_scores_csv(path, level, 3, 2)


@pytest.mark.parametrize("span", [1, WRITE_ROWS])
@pytest.mark.parametrize("level, body", [
    ("instance", "0,,SR,0.5\n0,,\xff,0.5\n"),
    ("instance", "0,0,\xff,0.5\n0,,SR,0.5\n0,,SR,0.5\n"),
], ids=["row-count", "repeated"])
def test_score_reader_refuses_a_bad_name_before_a_unit_error(level, body, span, tmp_path, monkeypatch):
    """A method name that is not UTF-8 is the FormatError even where the
    units are wrong too, on a row of the level read or of the other one."""
    path = tmp_path / "s.csv"
    path.write_bytes(SCORE_TABLE_HEADER.encode() + body.encode("latin1"))
    monkeypatch.setattr(dataio, "WRITE_ROWS", span)
    with pytest.raises(FormatError, match="method name is not UTF-8"):
        read_scores_csv(path, level, 2, 2)


# line ends and faults that spans of 1 to 3 lines cut at some span edge
SPAN_EDGE_BODIES = [
    "0,0,MP,0.5\r\n0,1,MP,0.25\r\n1,0,MP,0.125\r\n",
    "0,0,MP,0.5\r0,1,MP,0.25\r1,0,MP,0.125\r",
    "0,0,MP,0.5\r0,1,MP,0.25\r\n1,0,MP,0.125\n1,1,MP,1.0",
    '0,,SR,0.5\n1,,"S\r\nR",0.25\n2,,SR,0.125\n',
    '0,,SR,0.5\r1,,"S\rR",0.25\r',
    "0,,SR,0.5\n\n1,,SR,0.25\n",
    "0,,SR,0.5\r\n\r\n1,,SR,0.25\r\n",
    "0,,SR,0.5\r\r1,,SR,0.25\r",
    "0,,SR,0.5\n1,,SR,0.25\n2,,SR\n",
]


@pytest.mark.parametrize("span", [1, 2, 3])
def test_score_reader_in_spans_reads_as_in_one(span, tmp_path, monkeypatch):
    """Spans of a few lines give the columns, dtypes included, or the
    FormatError, absolute line number included, of one span for the whole
    table.  Spans of 1 to 3 lines split CRLFs, CR-only line ends, quoted
    line breaks and blank lines at span edges; a quoted line break that a
    span edge splits is a malformed row."""
    path = tmp_path / "s.csv"
    bodies = PARITY_BODIES + [body for body, _ in NAMED_LINES] + [
        "0,,SR,0.5\n1,,SR,0.25\n0,,a-much-longer-method,0.5\n1,,SR,1.0\n2,,SR,2.0\n",
        "0,0,MP,0.5\r\n0,1,MP,0.25\r\n1,0,MP,0.5\r1,1,MP,0.5\n2,0,SR,0.5\n",
        "0,0,MP,0.5\n0,1,MP,0.25\n1,0,MP,0.5\n1,x,MP,0.5\n",
        "0,0,MP,0.5\n0,1,MP,0.25\n1,0,MP,0.5\n1,-3,MP,0.5\n",
        '0,,SR,0.5\n1,,"S\nR",0.5\n',
    ] + SPAN_EDGE_BODIES
    for body in bodies:
        path.write_bytes((SCORE_TABLE_HEADER + body).encode())
        outcomes = []
        for rows in (WRITE_ROWS, span):
            monkeypatch.setattr(dataio, "WRITE_ROWS", rows)
            try:
                outcomes.append(score_columns(path))
            except FormatError as exc:
                outcomes.append(str(exc))
        whole, got = outcomes
        if isinstance(whole, str) and "line break" in whole:
            assert isinstance(got, str), body
            continue
        assert type(whole) is type(got), body
        if isinstance(whole, str):
            assert got == whole
            continue
        assert got[2].tolist() == whole[2].tolist(), body
        for w, g in zip(whole[:2] + whole[3:], got[:2] + got[3:]):
            assert g.dtype == w.dtype and g.shape == w.shape, body
            assert np.array_equal(g.view(np.uint8), w.view(np.uint8)), body


def test_score_reader_reads_a_crlf_cut_by_a_text_read_as_its_lf_copy(tmp_path):
    """The text wrapper reads a file 8 KiB at a time.  A CRLF whose CR ends
    one read and whose LF starts the next is one line end, and a CR that
    ends a read alone is one too: each table reads as its LF copy.  Rows
    are shorter than 40 bytes, so one of forty paddings of the first row
    puts a line end at byte 8191, the last of the first read."""
    path, lf_path = tmp_path / "s.csv", tmp_path / "lf.csv"
    cut = 0
    for pad in range(40):
        body = f"0,,{'M' * (pad + 1)},0.5\n" + "".join(f"{i},3,MP,{i / 7!r}\n" for i in range(400))
        lf = (SCORE_TABLE_HEADER + body).encode()
        lf_path.write_bytes(lf)
        expected = score_columns(lf_path)
        for end in (b"\r\n", b"\r"):
            data = lf.replace(b"\n", end)
            cut += data[8191:8192 + len(end) - 1] == end
            path.write_bytes(data)
            got = score_columns(path)
            assert got[2].tolist() == expected[2].tolist()
            for e, g in zip(expected[:2] + expected[3:], got[:2] + got[3:]):
                assert g.dtype == e.dtype and np.array_equal(g.view(np.uint8), e.view(np.uint8))
    assert cut >= 2   # a CRLF and a lone CR each straddled the read edge at least once


def test_int_field_parsed_through_float_is_refused(tmp_path, monkeypatch):
    # numpy versions that parse an int field such as '2.7' through float
    # only warn with a DeprecationWarning; the read must fail on it
    parse = np.loadtxt

    def lenient(*args, **kwargs):
        warnings.warn("loadtxt(): parsing an integer via a float is deprecated", DeprecationWarning)
        return parse(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient)
    path = tmp_path / "s.csv"
    path.write_text(SCORE_TABLE_HEADER + "0,,SR,0.5\n")
    with pytest.raises(FormatError, match="line 2: '0,,SR,0.5'"):
        score_columns(path)


finite_or_infinite = st.floats(allow_nan=False, allow_subnormal=True)
method_names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r\n"),
                       max_size=12)


@st.composite
def score_tables(draw):
    """(n, width, {method: scores}): each array (n,) or (n, width)."""
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    arrays = st.sampled_from([(n,), (n, width)]).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=finite_or_infinite))
    return n, width, draw(st.dictionaries(method_names, arrays, max_size=4))


@given(score_tables())
@settings(max_examples=60, deadline=None)
def test_score_table_round_trip(tmp_path_factory, table):
    """read_scores_csv inverts write_scores_csv: at each level it gives the
    arrays of that level, in name order, scores bit for bit; a level that
    has no rows is a DataError."""
    n, width, scores = table
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_scores_csv(path, scores)
    for level, ndim in (("instance", 1), ("label", 2)):
        expected = {name: scores[name] for name in sorted(scores) if scores[name].ndim == ndim}
        if not expected:
            with pytest.raises(DataError, match=f"score table holds no {level}-level rows"):
                read_scores_csv(path, level, n, width)
            continue
        got = read_scores_csv(path, level, n, width)
        assert list(got) == list(expected)
        for g, e in zip(got.values(), expected.values()):
            assert g.shape == e.shape and np.array_equal(g.view(np.int64), e.view(np.int64))


any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
any_score_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                              elements=st.floats(allow_subnormal=True))


@given(st.dictionaries(any_text, any_score_arrays, max_size=4))
@example({"a,b": np.array([np.inf, -0.0, 5e-324, 1e16]), 'say "hi"': np.array([[np.nan, -np.inf]]),
          "naïve\r\n": np.array([0.1]), "": np.zeros(1)})
@settings(max_examples=100, deadline=None)
def test_score_table_bytes_match_csv_writer(tmp_path_factory, scores):
    """write_scores_csv writes the bytes csv.writer writes row by row,
    whatever the method names and scores."""
    root = tmp_path_factory.mktemp("bytes")
    write_scores_csv(root / "fast.csv", scores)
    csv_write_scores(root / "ref.csv", scores)
    assert (root / "fast.csv").read_bytes() == (root / "ref.csv").read_bytes()


def test_score_table_bytes_match_csv_writer_across_write_chunks(tmp_path):
    # more rows per method than one write holds, for both table shapes
    rng = np.random.default_rng(5)
    scores = {"MP": rng.normal(size=(40_000, 3)), "SR": rng.normal(size=70_000)}
    write_scores_csv(tmp_path / "fast.csv", scores)
    csv_write_scores(tmp_path / "ref.csv", scores)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestManifest:
    def test_save_then_validate(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        manifest = load_manifest(path)
        assert load_splits(manifest, path.parent, {}) == {}
        assert manifest.task == "multiclass"
        assert manifest.n_classes == 3
        assert set(manifest.splits) == {"train", "validation", "test"}
        # 4 files per split, all checksummed
        assert len(manifest.checksums) == 12

    def test_load_split_roundtrip(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        split = load_splits(load_manifest(path), path.parent, {"test": ("embeddings", "mc")})["test"]
        orig = dataset.splits["test"]
        assert np.array_equal(split.labels, orig.labels)
        # float32 storage: values match after the same narrowing
        assert np.array_equal(split.probs, orig.probs.astype("<f4").astype(float))
        assert np.array_equal(split.embeddings, orig.embeddings.astype("<f4").astype(float))
        assert np.array_equal(split.mc, orig.mc.astype("<f4").astype(float))

    def test_corrupted_file_fails_checksum(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        victim = path.parent / "test_probs.bin"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError) as exc:
            load_splits(load_manifest(path), path.parent, {})
        assert exc.value.code == "checksum-mismatch"

    def test_missing_file_reported(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        (path.parent / "train_mc.bin").unlink()
        with pytest.raises(FormatError, match="missing"):
            load_splits(load_manifest(path), path.parent, {})

    def test_row_count_cross_check(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        payload = json.loads(path.read_text())
        payload["splits"]["test"]["n"] = 999
        path.write_text(json.dumps(payload))
        manifest = load_manifest(path)
        with pytest.raises(RowCountError, match="999"):
            load_splits(manifest, path.parent, {"test": ("embeddings", "mc")})

    def test_unknown_split_and_bad_manifest(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        manifest = load_manifest(path)
        with pytest.raises(FormatError, match="no split"):
            load_splits(manifest, path.parent, {"extra": ("embeddings", "mc")})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_manifest(bad)
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"task": "multiclass"}))
        with pytest.raises(FormatError, match="missing manifest field"):
            load_manifest(missing)

    @pytest.mark.parametrize("name", ["", ".", "..", "../test_probs.bin", "sub/test_probs.bin",
                                      "sub\\test_probs.bin", "/test_probs.bin"])
    @pytest.mark.parametrize("where", ["checksums", "split"])
    def test_file_names_must_be_plain(self, name, where, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        payload = json.loads(path.read_text())
        if where == "split":
            payload["splits"]["test"]["probs"] = name
        else:
            payload["checksums"][name] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"file name {re.escape(repr(name))} is not a plain name"):
            load_manifest(path)

    def test_manifest_version_gate(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "ds")
        payload = json.loads(path.read_text())
        payload["format_version"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionError):
            load_manifest(path)

    def test_save_is_deterministic(self, dataset, tmp_path):
        p1 = save_dataset(dataset, tmp_path / "a")
        p2 = save_dataset(dataset, tmp_path / "b")
        assert sha256_file(p1) == sha256_file(p2)
        for f in json.loads(p1.read_text())["checksums"]:
            assert sha256_file(p1.parent / f) == sha256_file(p2.parent / f)


@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_files_longer_than_a_write_block_read_back_bitwise(dtype, tmp_path):
    rng = np.random.default_rng(2)
    matrix = rng.standard_normal((WRITE_ROWS + 1, 3)).astype(dtype)
    passes = rng.random((WRITE_ROWS + 1, 2 * 3)).astype(dtype)   # two passes over three classes per row
    digests = write_matrix(tmp_path / "m.bin", matrix), write_matrix(tmp_path / "t.bin", passes)
    assert digests == (sha256_file(tmp_path / "m.bin"), sha256_file(tmp_path / "t.bin"))
    for back, arr in ((read_matrix(tmp_path / "m.bin"), matrix), (read_matrix(tmp_path / "t.bin"), passes)):
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.uint32), arr.astype("<f4").view(np.uint32))


def test_generate_and_save_hold_under_half_a_pass_tensor_beyond_the_dataset(tmp_path):
    """The test split's passes dominate the dataset, and its files span
    three write blocks: building, writing and hashing them hold no
    whole-tensor temporary, and the manifest's checksums are the files'."""
    small = dict(task="multilabel", n_classes=2, n_labels=8, dim=2, mc_passes=20)
    spec = SynthSpec(seed=4, n_train=200, n_validation=100, n_test=2 * WRITE_ROWS + 1, **small)
    save_dataset(generate(SynthSpec(seed=4, n_train=40, n_validation=20, n_test=20, **small)),
                 tmp_path / "warm")   # one-off costs of a first run
    tracemalloc.start()
    try:
        dataset = generate(spec)
        manifest = save_dataset(dataset, tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for split in dataset.splits.values()
               for a in (split.probs, split.labels, split.embeddings, split.mc))
    held += sum(a.nbytes for flags in (dataset.ood_flags, dataset.flipped_flags) for a in flags.values())
    assert peak - held < dataset.splits["test"].mc.nbytes / 2
    checksums = json.loads(manifest.read_text())["checksums"]
    assert len(checksums) == 12
    for name, digest in checksums.items():
        assert sha256_file(manifest.parent / name) == digest


class TestModelContainer:
    def test_fitted_models_roundtrip(self, dataset, tmp_path):
        md = fit_md(dataset.splits["train"])
        cfg = HybridConfig(variant="huq2", alpha=0.3, delta_min=1.0, delta_max=2.0,
                           c=2, n_validation=4,
                           table_ambiguity=np.array([0.1, 0.2, 0.3, 0.9]),
                           table_ambiguity_id=np.array([0.1, 0.2]),
                           table_novelty=np.array([0.5, 0.7, 1.5, 2.0]))
        save_models(tmp_path / "m.bin", {"md": md, "huq2": cfg})
        back = load_models(tmp_path / "m.bin")
        assert set(back) == {"md", "huq2"}
        assert np.array_equal(back["md"].centroids, md.centroids)
        assert np.array_equal(back["md"].whitener, md.whitener)
        assert back["huq2"].alpha == cfg.alpha
        assert np.array_equal(back["huq2"].table_novelty, cfg.table_novelty)

    def test_container_header_checked(self, tmp_path):
        p = tmp_path / "m.bin"
        save_models(p, {"x": 1})
        raw = bytearray(p.read_bytes())
        raw[:8] = b"NOTMODEL"
        p.write_bytes(bytes(raw))
        with pytest.raises(MagicError):
            load_models(p)
        raw = bytearray(save_and_read(p))
        raw[8:12] = struct.pack("<I", 42)
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            load_models(p)


def save_and_read(p):
    save_models(p, {"x": 1})
    return p.read_bytes()
