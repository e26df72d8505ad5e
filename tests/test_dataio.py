"""Binary matrix format, the score table and its container, manifest integrity, model and curve containers."""
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from abstain import dataio
from abstain.dataio import (
    FORK_ROWS,
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
    read_curves,
    read_scores,
    save_dataset,
    save_models,
    scores_container,
    sha256_file,
    write_curves,
    write_matrix,
    write_scores,
    write_scores_csv,
)
from abstain.density import fit_md
from abstain.synth import SynthSpec, generate
from oracles import EMPTY_LABEL, csv_read_scores, csv_write_scores

SOURCE = {"split": "test", "probs": "0" * 64, "labels": "1" * 64}   # where the scores of these tests come from


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


class TestScoreCsv:
    def test_roundtrip_with_and_without_label_column(self, tmp_path):
        # instance-level SR and MD around a pair-level MP
        sr = np.array([0.25, 0.5])
        mp = np.array([[0.1, 0.4], [0.7, 0.2]])
        md = np.array([3.75e-2, 1.5])
        write_scores(tmp_path / "s.csv", {"SR": sr, "MP": mp, "MD": md}, SOURCE)
        instance, label, method, score = csv_read_scores(tmp_path / "s.csv")
        assert instance.tolist() == [0, 1, 0, 0, 1, 1, 0, 1]
        assert label.tolist() == [EMPTY_LABEL, EMPTY_LABEL, 0, 1, 0, 1, EMPTY_LABEL, EMPTY_LABEL]
        assert method.tolist() == ["SR", "SR", "MP", "MP", "MP", "MP", "MD", "MD"]
        assert score.tolist() == [0.25, 0.5, 0.1, 0.4, 0.7, 0.2, 3.75e-2, 1.5]
        instances = read_scores(tmp_path / "s.csv", "instance", 2, 2, SOURCE)
        assert list(instances) == ["MD", "SR"]
        assert instances["MD"].tolist() == md.tolist() and instances["SR"].tolist() == sr.tolist()
        pairs = read_scores(tmp_path / "s.csv", "label", 2, 2, SOURCE)
        assert list(pairs) == ["MP"] and pairs["MP"].tolist() == mp.tolist()

    def test_float_repr_roundtrips_exactly(self, tmp_path):
        val = 0.1 + 0.2  # not representable as a short decimal
        write_scores(tmp_path / "s.csv", {"SR": np.array([val])}, SOURCE)
        assert csv_read_scores(tmp_path / "s.csv")[3][0] == val
        assert read_scores(tmp_path / "s.csv", "instance", 1, 1, SOURCE)["SR"][0] == val

    def test_mixed_table_bytes_are_pinned_and_read_back_exactly(self, tmp_path):
        # an instance-level method, then a pair-level one; the floats need
        # repr's shortest round trip: inf, 0.1 + 0.2 and a subnormal
        sr = np.array([0.25, np.inf])
        mp = np.array([[0.1 + 0.2, 5e-324], [0.0, 1.0]])
        path = tmp_path / "s.csv"
        write_scores(path, {"SR": sr, "MP": mp}, SOURCE)
        assert path.read_bytes() == (
            b"instance,label,method,score\r\n"
            b"0,,SR,0.25\r\n"
            b"1,,SR,inf\r\n"
            b"0,0,MP,0.30000000000000004\r\n"
            b"0,1,MP,5e-324\r\n"
            b"1,0,MP,0.0\r\n"
            b"1,1,MP,1.0\r\n"
        )
        instance, label, method, score = csv_read_scores(path)
        assert instance.tolist() == [0, 1, 0, 0, 1, 1]
        assert label.tolist() == [EMPTY_LABEL, EMPTY_LABEL, 0, 1, 0, 1]
        assert method.tolist() == ["SR", "SR", "MP", "MP", "MP", "MP"]
        assert np.array_equal(score.view(np.int64), np.concatenate([sr, mp.ravel()]).view(np.int64))
        assert read_scores(path, "instance", 2, 2, SOURCE)["SR"].tobytes() == sr.tobytes()
        assert read_scores(path, "label", 2, 2, SOURCE)["MP"].tobytes() == mp.tobytes()


def test_exported_table_parses_to_the_container_arrays_bit_for_bit(tmp_path):
    """Read with the csv module, the exported table holds exactly the scores
    of the container beside it: each method's rows, instance-level or
    (instance, label) pairs instance-major, are its array's bits, with
    +inf and values whose repr needs 17 significant digits."""
    rng = np.random.default_rng(17)
    n, width = 300, 7
    sr, mp, md = rng.uniform(size=n), rng.uniform(size=(n, width)), rng.standard_normal(n) * 1e5
    sr[:3] = np.inf, 0.1 + 0.2, 1 / 3
    mp[0, :2] = np.inf, 2 / 3
    path = tmp_path / "s.csv"
    write_scores(path, {"SR": sr, "MP": mp, "MD": md}, SOURCE)
    instance, label, method, score = csv_read_scores(path)
    assert len(repr(0.1 + 0.2)) == len("0.") + 17
    got = {**read_scores(path, "instance", n, width, SOURCE), **read_scores(path, "label", n, width, SOURCE)}
    assert sorted(got) == ["MD", "MP", "SR"] and got["SR"][0] == np.inf
    for name, values in got.items():
        rows = method == name
        pairs = np.indices(values.shape).reshape(values.ndim, -1)
        assert np.array_equal(instance[rows], pairs[0])
        assert np.array_equal(label[rows], pairs[1] if values.ndim == 2 else np.full(n, EMPTY_LABEL))
        assert np.array_equal(score[rows].view(np.int64), values.ravel().view(np.int64)), name


any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def score_tables(draw):
    """(n, width, {method: scores}): each array (n,) or (n, width)."""
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    arrays = st.sampled_from([(n,), (n, width)]).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(allow_subnormal=True)))
    return n, width, draw(st.dictionaries(any_text, arrays, max_size=4))


@given(score_tables())
@settings(max_examples=60, deadline=None)
def test_score_table_round_trip(tmp_path_factory, table):
    """read_scores inverts write_scores: at each level it gives the arrays
    of that level, in name order, scores bit for bit, NaN included,
    whatever the method names; a level that has no arrays is a DataError."""
    n, width, scores = table
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_scores(path, scores, SOURCE)
    for level, ndim in (("instance", 1), ("label", 2)):
        expected = {name: scores[name] for name in sorted(scores) if scores[name].ndim == ndim}
        if not expected:
            with pytest.raises(DataError, match=f"score table holds no {level}-level rows"):
                read_scores(path, level, n, width, SOURCE)
            continue
        got = read_scores(path, level, n, width, SOURCE)
        assert list(got) == list(expected)
        for g, e in zip(got.values(), expected.values()):
            assert g.shape == e.shape and np.array_equal(g.view(np.int64), e.view(np.int64))


def rewrite(path, edit):
    """Replace the bytes of ``path`` by ``edit(bytearray of them)``."""
    path.write_bytes(bytes(edit(bytearray(path.read_bytes()))))


def flip(raw, at):
    raw[at] ^= 0x01
    return raw


class TestScoreContainer:
    SCORES = {"SR": np.array([0.25, 0.5, 0.75]), "MP": np.arange(6.0).reshape(3, 2) / 7}

    @pytest.fixture()
    def table(self, tmp_path):
        path = tmp_path / "s.csv"
        write_scores(path, self.SCORES, SOURCE)
        return path

    def test_lies_beside_the_table_bound_to_its_digest_and_reruns_byte_identical(self, table):
        container = scores_container(table)
        assert container == table.parent / "s.csv.bin" and container != table
        raw = container.read_bytes()
        magic, version, size, _ = struct.unpack_from("<8sIQ32s", raw)
        assert (magic, version) == (b"UQSCORES", 2)
        assert json.loads(raw[52:52 + size]) == {"table": sha256_file(table), "source": SOURCE,
                                                 "scores": {"SR": [3], "MP": [3, 2]}}
        write_scores(table, self.SCORES, SOURCE)
        assert container.read_bytes() == raw

    @pytest.mark.parametrize("level", ["instance", "label"])
    @pytest.mark.parametrize("byte", [b"", b'"SR"'], ids=["field", "method-name"])
    def test_a_flipped_byte_is_a_checksum_mismatch(self, byte, level, table):
        # the last byte is MP's, which an instance-level read only hashes; the
        # method name SR flipped to RR leaves an index that passes its checks
        rewrite(scores_container(table), lambda raw: flip(raw, raw.index(byte) + 1 if byte else -1))
        with pytest.raises(ChecksumError, match=re.escape(f"{scores_container(table)}: checksum")) as exc:
            read_scores(table, level, 3, 2, SOURCE)
        assert exc.value.code == "checksum-mismatch"

    def test_a_flipped_byte_of_the_stored_table_digest_names_the_container(self, table):
        # the table is intact; the container's own SHA-256 is checked before the table's
        rewrite(scores_container(table), lambda raw: flip(raw, raw.index(b'"table": "') + 10))
        with pytest.raises(ChecksumError, match=re.escape(f"{scores_container(table)}: checksum")) as exc:
            read_scores(table, "instance", 3, 2, SOURCE)
        assert exc.value.code == "checksum-mismatch"

    @pytest.mark.parametrize("field, value", [("split", "train"), ("probs", "2" * 64), ("labels", "3" * 64)],
                             ids=["split", "probs", "labels"])
    def test_scores_of_another_source_are_a_data_error_naming_both(self, field, value, table):
        other = {**SOURCE, field: value}
        with pytest.raises(DataError) as exc:
            read_scores(table, "instance", 3, 2, other)
        assert type(exc.value) is DataError and str(exc.value) == (
            f"{scores_container(table)}: scores of the 'test' split with probs 000000000000.. and labels "
            f"111111111111.., not of the {other['split']!r} split with probs {other['probs'][:12]}.. and labels "
            f"{other['labels'][:12]}.. of the manifest")

    def test_an_edited_source_fails_the_checksum_before_it_is_compared(self, table):
        rewrite(scores_container(table), lambda raw: raw.replace(b'"split": "test"', b'"split": "tesu"'))
        with pytest.raises(ChecksumError, match=re.escape(f"{scores_container(table)}: checksum")):
            read_scores(table, "instance", 3, 2, SOURCE)

    def test_a_changed_table_is_a_checksum_mismatch(self, table):
        rewrite(table, lambda raw: raw[:-3] + b"9" + raw[-2:])
        with pytest.raises(ChecksumError, match=re.escape(f"{table}: checksum")):
            read_scores(table, "instance", 3, 2, SOURCE)

    def test_a_missing_container_is_a_data_error_naming_it(self, table):
        scores_container(table).unlink()
        with pytest.raises(DataError, match=re.escape(f"{scores_container(table)}: missing; `abstain score`")):
            read_scores(table, "instance", 3, 2, SOURCE)

    @pytest.mark.parametrize("n, width", [(4, 2), (3, 3)])
    def test_an_array_that_does_not_fit_the_manifest_is_a_format_error(self, n, width, table):
        with pytest.raises(FormatError, match=r"method (SR|MP): shape \[3(, 2)?\], not "):
            read_scores(table, "instance", n, width, SOURCE)

    @pytest.mark.parametrize("edit, error", [
        (lambda raw: b"UQMODELS" + raw[8:], MagicError),
        (lambda raw: raw[:8] + struct.pack("<I", 1) + raw[12:], VersionError),
        (lambda raw: raw[:40], FormatError),
        (lambda raw: raw[:-8], FormatError),
    ], ids=["magic", "version", "truncated-header", "truncated-field"])
    def test_a_faulty_header_or_size_is_refused(self, edit, error, table):
        rewrite(scores_container(table), edit)
        with pytest.raises(error):
            read_scores(table, "label", 3, 2, SOURCE)

    @pytest.mark.parametrize("level, built", [("instance", [[3]]), ("label", [[3, 2]])], ids=["instance", "label"])
    def test_builds_only_the_arrays_of_its_level(self, level, built, table, monkeypatch):
        shapes = []
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda shape, *a, **k: shapes.append(shape) or empty(shape, *a, **k))
        read_scores(table, level, 3, 2, SOURCE)
        assert shapes == built

    def test_a_failed_write_leaves_no_container(self, table, monkeypatch):
        """A failed write of the container, or of the table on its third span,
        leaves neither file, and the write's own error is the one raised."""
        def failing_container(path, *args):
            path.write_bytes(b"partial")
            raise OSError("no space left on device")

        spans, score_text = [], dataio._score_text

        def failing_table(*span):
            spans.append(span)
            if len(spans) == 3:
                raise OSError("no space left on device")
            return score_text(*span)

        for name, failing in (("_write_container", failing_container), ("_score_text", failing_table)):
            with monkeypatch.context() as m:
                m.setattr(dataio, name, failing)
                m.setattr(dataio, "WRITE_ROWS", 1)   # one row per span: two spans are written before the third fails
                with pytest.raises(OSError, match="no space left on device"):
                    write_scores(table, self.SCORES, SOURCE)
            assert not table.exists() and not scores_container(table).exists(), name
        assert len(spans) == 3


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


def written_on_one_cpu(monkeypatch, write):
    """Call ``write()`` as a process allowed on one CPU only would."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        write()


class TestForkedWriters:
    def test_score_table_above_the_break_even_is_the_one_process_bytes(self, tmp_path, forks, monkeypatch):
        # pair rows between instance rows: the second half of the spans
        # holds more than FORK_ROWS rows, from both table shapes
        rng = np.random.default_rng(11)
        n = FORK_ROWS // 9
        scores = {"SR": rng.normal(size=n), "MP": rng.normal(size=(n, 20)), "MD": rng.normal(size=n)}
        write_scores_csv(tmp_path / "two.csv", scores)
        assert len(forks) == 1
        written_on_one_cpu(monkeypatch, lambda: write_scores_csv(tmp_path / "one.csv", scores))
        assert len(forks) == 1
        assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "two.csv"]   # no temporary file left

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "one-process"])
    def test_container_holds_the_sha256_of_the_table_written(self, forked, tmp_path, monkeypatch, request):
        # several spans on each side of the fork, and a method name that is not ASCII
        monkeypatch.setattr(dataio, "FORK_ROWS", 1)
        monkeypatch.setattr(dataio, "WRITE_ROWS", 7)
        forks = request.getfixturevalue("forks") if forked else []
        if not forked:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rng = np.random.default_rng(13)
        scores = {"naïve": rng.normal(size=30), "MP": rng.normal(size=(10, 3))}
        table = tmp_path / "s.csv"
        write_scores(table, scores, SOURCE)
        assert len(forks) == forked
        raw = scores_container(table).read_bytes()
        size = struct.unpack_from("<8sIQ32s", raw)[2]
        assert json.loads(raw[52:52 + size])["table"] == sha256_file(table)
        csv_write_scores(tmp_path / "ref.csv", scores)
        assert table.read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


@pytest.mark.parametrize("shape", [(2048, 1024), (3, 600_000)], ids=["4-KiB-rows", "rows-over-2-MiB"])
def test_wide_rows_are_written_through_a_buffer_of_about_2_mib(shape, tmp_path):
    """The float32 buffer holds at most 2 MiB of rows, or one row if a row
    is wider, whatever the row count: a test split's passes at 200 labels
    are rows of 4,000 floats.  The file holds the one-block bytes."""
    matrix = np.random.default_rng(3).standard_normal(shape)
    tracemalloc.start()
    try:
        digest = write_matrix(tmp_path / "m.bin", matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max(1 << 21, 4 * shape[1]) + (1 << 18)
    raw = (tmp_path / "m.bin").read_bytes()
    assert raw[len(raw) - matrix.size * 4:] == matrix.astype("<f4").tobytes()
    assert digest == sha256_file(tmp_path / "m.bin")


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
        save_models(tmp_path / "m.bin", {"md": vars(md), "x": {"scalar": 0.25, "empty": np.zeros((0, 3))}})
        back = load_models(tmp_path / "m.bin")
        assert list(back) == ["md", "x"] and list(back["md"]) == ["centroids", "whitener"]
        assert np.array_equal(back["md"]["centroids"], md.centroids)
        assert np.array_equal(back["md"]["whitener"], md.whitener)
        assert type(back["x"]["scalar"]) is np.float64 and back["x"]["scalar"] == 0.25
        assert back["x"]["empty"].shape == (0, 3)

    def test_container_header_checked(self, tmp_path):
        p = tmp_path / "m.bin"
        save_models(p, {"x": {"v": 1.0}})
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


class TestCurveContainer:
    @pytest.fixture()
    def curves(self, tmp_path):
        path = tmp_path / "curves.bin"
        write_curves(path, 3, ["SR", "MP.f1_micro"], [np.array([1 / 3, 5e-324, 0.0]), np.array([-0.0, 1.0, np.inf])])
        return path

    def test_round_trip_is_bit_identical(self, curves):
        back = read_curves(curves)
        assert list(back) == ["SR", "MP.f1_micro"]
        assert back["SR"].view(np.uint64).tolist() == np.array([1 / 3, 5e-324, 0.0]).view(np.uint64).tolist()
        assert back["MP.f1_micro"].view(np.uint64).tolist() == np.array([-0.0, 1.0, np.inf]).view(np.uint64).tolist()

    def test_index_gives_n_and_each_curves_shape(self, curves):
        raw, start = curves.read_bytes(), dataio._HDR_CONTAINER.size
        magic, version, size, _ = dataio._HDR_CONTAINER.unpack_from(raw)
        assert (magic, version) == (b"UQCURVES", 1)
        assert json.loads(raw[start:start + size]) == {"n": 3, "curves": {"SR": [3], "MP.f1_micro": [3]}}

    @pytest.mark.parametrize("edit, error", [
        (lambda raw: flip(raw, -1), ChecksumError),
        (lambda raw: b"UQSCORES" + raw[8:], MagicError),
        (lambda raw: raw[:8] + struct.pack("<I", 2) + raw[12:], VersionError),
        (lambda raw: raw.replace(b'"SR": [3]', b'"SR": [2]'), FormatError),
    ], ids=["flipped-payload-byte", "magic", "version", "shape-not-n"])
    def test_a_faulty_container_is_refused(self, edit, error, curves):
        rewrite(curves, edit)
        with pytest.raises(error) as exc:
            read_curves(curves)
        assert exc.value.code == {ChecksumError: "checksum-mismatch", MagicError: "bad-magic",
                                  VersionError: "bad-version", FormatError: "bad-format"}[error]


@pytest.mark.parametrize("byte", [b"", b'"md"'], ids=["field", "model-name"])
def test_flipped_models_byte_is_a_checksum_mismatch(byte, dataset, tmp_path):
    # a model name flipped from md to ld leaves an index that passes its checks
    p = tmp_path / "m.bin"
    save_models(p, {"md": vars(fit_md(dataset.splits["train"]))})
    rewrite(p, lambda raw: flip(raw, raw.index(byte) + 1 if byte else -1))
    with pytest.raises(ChecksumError, match=re.escape(f"{p}: checksum")) as exc:
        load_models(p)
    assert exc.value.code == "checksum-mismatch"


def save_and_read(p):
    save_models(p, {"x": {"v": 1.0}})
    return p.read_bytes()
