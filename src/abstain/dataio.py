"""On-disk interchange: headered float32 matrices, CSV score tables, a
JSON manifest with SHA-256 integrity, and a versioned model container.

Binary layout (little-endian): 8-byte magic, u32 format version, u64
rows, u64 cols, then row-major float32 data.  Every split file is one
such matrix, one row per instance; the manifest gives each row's shape.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import pickle
import struct
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Collection, Dict, List, Tuple

import numpy as np

from .core import LabeledSplit, record_from_json

MAGIC_MATRIX = b"UQMATRIX"
MAGIC_MODELS = b"UQMODELS"
FORMAT_VERSION = 2   # 2: stochastic passes and labels are matrix files
MODELS_VERSION = 4   # 2: density models hold Cholesky whiteners, not precisions;
                     # 3: RDE and NUQ models hold only what their scorers read;
                     # 4: the Beta model has no shape-capped flag

_HDR_MATRIX = struct.Struct("<8sIQQ")
_HDR_MODELS = struct.Struct("<8sI")

WRITE_ROWS = 1 << 13   # rows per write or parse of a file: bounds the text or float32 block held at once


class DataError(Exception):
    """Base for malformed or inconsistent inputs."""

    code = "data-error"


class MagicError(DataError):
    code = "bad-magic"


class VersionError(DataError):
    code = "bad-version"


class ChecksumError(DataError):
    code = "checksum-mismatch"


class RowCountError(DataError):
    code = "row-count-disagreement"


class FormatError(DataError):
    code = "bad-format"


def write_matrix(path, arr: np.ndarray) -> str:
    """Write a matrix file: the rows of ``arr`` cast into one float32
    buffer of WRITE_ROWS rows and written from it a block at a time.
    Returns the file's SHA-256 hex digest, taken from the bytes as they
    are written."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("matrix files hold 2-D arrays")
    header = _HDR_MATRIX.pack(MAGIC_MATRIX, FORMAT_VERSION, *arr.shape)
    digest = hashlib.sha256(header)
    buffer = np.empty((min(len(arr), WRITE_ROWS), arr.shape[1]), dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        for i in range(0, len(arr), WRITE_ROWS):
            block = buffer[:len(arr) - i]
            block[...] = arr[i:i + WRITE_ROWS]
            digest.update(block)
            fh.write(block)
    return digest.hexdigest()


def _read_header(raw, name, header: struct.Struct, magic: bytes, expected: int = FORMAT_VERSION) -> list:
    """Check the magic and the ``expected`` version at the start of ``raw``,
    bytes of the binary file ``name``; returns the header fields after them."""
    if len(raw) < header.size:
        raise FormatError(f"{name}: truncated header")
    found, version, *rest = header.unpack_from(raw)
    if found != magic:
        raise MagicError(f"{name}: bad magic {found!r}")
    if version != expected:
        raise VersionError(f"{name}: unsupported version {version}")
    return rest


def parse_matrix(raw: bytes, name) -> np.ndarray:
    """Payload of the bytes ``raw`` of the matrix file ``name``, as (rows, cols) float32."""
    rows, cols = _read_header(raw, name, _HDR_MATRIX, MAGIC_MATRIX)
    expected, payload = rows * cols * 4, len(raw) - _HDR_MATRIX.size
    if payload != expected:
        raise RowCountError(f"{name}: payload holds {payload} bytes, header implies {expected}")
    return np.frombuffer(raw, dtype="<f4", offset=_HDR_MATRIX.size).reshape(rows, cols)


def _parse_rows(lines: List[str], dtype: np.dtype) -> np.ndarray:
    """``np.loadtxt`` of CSV ``lines``.  numpy versions that parse an int
    field through float ('2.7' as 2) warn with a DeprecationWarning, which
    is raised here so that such a field fails as it fails int()."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)


def _first_bad_line(lines: List[str], dtype: np.dtype) -> int:
    """Index of the first of ``lines`` that ``_parse_rows`` fails on, found
    by parsing halves of the failing span."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(lines[lo:mid], dtype)
            lo = mid
        except (ValueError, DeprecationWarning):
            hi = mid
    return lo


SCORE_HEADER = ["instance", "label", "method", "score"]
NO_LABEL = -1   # label column of instance-level score rows


def _write_chunked(fh, n: int, text: Callable[[slice], str]) -> None:
    """Write the ``n`` rows of a table, ``text(span)`` for each span of WRITE_ROWS rows."""
    for i in range(0, n, WRITE_ROWS):
        fh.write(text(slice(i, i + WRITE_ROWS)))


def write_scores_csv(path, scores: Dict[str, np.ndarray]) -> None:
    """Write the score table of ``{method: scores}``, methods in dict order.

    An ``(n,)`` array gives one row per instance with an empty label
    field; an ``(n, L)`` array gives one row per (instance, label) pair,
    instance-major.  Scores are written as ``repr`` floats, so they read
    back exactly.  The bytes are those of ``csv.writer``: each method
    name is quoted by it once, the numeric fields never need quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SCORE_HEADER) + "\r\n")
        for method, values in scores.items():
            quoted = io.StringIO()
            csv.writer(quoted).writerow(["", method])
            field = quoted.getvalue()[1:-2]   # strip the leading "," and the "\r\n"
            values = np.asarray(values, dtype=float)
            if values.ndim == 2:
                instances, labels = np.indices(values.shape).reshape(2, -1)
            else:
                instances, labels = np.arange(len(values)), None
            flat = values.ravel()
            _write_chunked(fh, len(flat), lambda span: "".join([
                f"{n},{label},{field},{score!r}\r\n" for n, label, score in zip(
                    instances[span].tolist(),
                    itertools.repeat("") if labels is None else labels[span].tolist(),
                    flat[span].tolist())]))


def write_curve_csvs(coverages, curves: Dict[Path, np.ndarray]) -> None:
    """Write rejection curves that share one coverage column, ``{path:
    values}``, each as ``coverage,value`` rows of ``repr`` floats; each span
    of WRITE_ROWS coverages is formatted once for all of them."""
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(open(path, "w")), values) for path, values in curves.items()]
        for fh, _ in files:
            fh.write("coverage,value\n")
        for i in range(0, len(coverages), WRITE_ROWS):
            span = slice(i, i + WRITE_ROWS)
            text = [repr(c) for c in coverages[span].tolist()]
            for fh, values in files:
                fh.write("".join([f"{c},{v!r}\n" for c, v in zip(text, values[span].tolist())]))


def _span_columns(body: List[str], first: int, path) -> Tuple[np.ndarray, ...]:
    """The checked columns (instance, label, method, score) of the score
    table lines ``body``, body rows ``first`` on (body row r is on file
    line r + 2): int64 instance and label indices, NO_LABEL in the label
    column of instance-level rows, method names as the file's bytes and
    float scores.  The lines are parsed in one ``np.loadtxt`` pass whose
    string fields are as wide as the longest line, so they never
    truncate.  A row that does not parse, an instance or label field that
    is not an int64 integer, a negative label and a quoted line break are
    FormatErrors that name the line."""
    longest = max(map(len, body))
    dtype = np.dtype([("instance", "<i8"), ("label", f"S{longest}"), ("method", f"S{longest}"),
                      ("score", "<f8")])
    try:
        rows = _parse_rows(body, dtype)
    except (ValueError, DeprecationWarning) as exc:
        line = _first_bad_line(body, dtype)
        bad = body[line].rstrip("\n").encode("latin1").decode(errors="replace")
        raise FormatError(f"{path}: malformed row on line {first + line + 2}: {bad!r}") from exc
    if len(rows) != len(body):
        raise FormatError(f"{path}: a quoted field holds a line break")
    label = rows["label"]
    has_label = label != b""
    values = np.full(len(rows), NO_LABEL, dtype=np.int64)
    try:
        values[has_label] = label[has_label].astype(np.int64)
    except (ValueError, OverflowError):
        for r in np.flatnonzero(has_label):
            try:
                np.int64(int(label[r]))
            except (ValueError, OverflowError):
                bad = label[r].decode(errors="replace")
                raise FormatError(f"{path}: line {first + r + 2}: label {bad!r} "
                                  "is not an int64 integer") from None
    negative = np.flatnonzero(has_label & (values < 0))
    if negative.size:
        r = negative[0]
        raise FormatError(f"{path}: line {first + r + 2}: negative label index {values[r]}")
    return rows["instance"], values, rows["method"], rows["score"]


def _score_spans(path, place: Callable[..., None]) -> None:
    """Parse the score table ``path`` in spans of at most WRITE_ROWS lines
    and call ``place(instance, label, method, score)`` with each span's
    checked columns (:func:`_span_columns`).  No span's lines or rows are
    held while the next span is read.  The file is read as latin-1 text,
    one character per byte, so bytes reach string fields as they are in
    the file.

    The rules are the csv module's, one row per line: a line ends at LF,
    CRLF or CR (Python's universal newlines, which turn each into an LF),
    a double-quoted field may hold commas and doubled quotes, and '#' is
    an ordinary character.  A missing header, a blank line and a faulty
    row are FormatErrors; the rows before a blank line are parsed first,
    so the first faulty line is named whatever the spans."""
    with open(path, "rb") as raw:
        lines = io.TextIOWrapper(raw, encoding="latin1", newline=None)
        if next(csv.reader([next(lines, "").rstrip("\n")]), []) != SCORE_HEADER:
            raise FormatError(f"{path}: missing score-table header")
        first = 0   # body rows before the span
        while span := list(itertools.islice(lines, WRITE_ROWS)):
            blank = span.index("\n") if "\n" in span else len(span)
            if blank:
                place(*_span_columns(span[:blank], first, path))
            if blank < len(span):
                raise FormatError(f"{path}: line {first + blank + 2} is blank")
            first += len(span)
            del span   # not held while the next span is read


def read_scores_csv(path, level: str, n: int, width: int) -> Dict[str, np.ndarray]:
    """The scores that :func:`write_scores_csv` was given, at ``level``:
    ``{method: scores}`` in name order, an (n,) array per method at level
    "instance" and an (n, width) array, one score per (instance, label)
    pair, at level "label".  The rows may come in any order; each span's
    rows of the level are put in place as it is parsed.  Every row of
    both levels is checked (:func:`_score_spans`) and method names are
    decoded after the parse, so a faulty row anywhere is the FormatError.
    Then every unit, an instance or a pair, needs exactly one row of the
    level per method, or the table is a DataError."""
    pairs = level == "label"
    units = n * width if pairs else n
    # per method name: its score and its row count per unit; a row out of
    # range counts at the spare unit past the last one
    kept = collections.defaultdict(lambda: (np.empty(units + 1), np.zeros(units + 1, dtype=np.int32)))
    names = set()   # every row's method name
    outside = []    # the first row of the level out of range

    def place(instance, label, method, score):
        spanned = set(method[np.r_[True, method[1:] != method[:-1]]].tolist())   # each run's name
        names.update(spanned)
        keep = (label != NO_LABEL) == pairs
        in_range = (0 <= instance) & (instance < n)
        if pairs:
            in_range &= (0 <= label) & (label < width)
        if not outside and not in_range[keep].all():
            r = np.flatnonzero(keep & ~in_range)[0]
            outside.append((bytes(method[r]), instance[r], label[r]))
        unit = np.where(in_range, instance * width + label if pairs else instance, units)
        for name in spanned:
            rows = keep & (method == name)
            if rows.any():
                values, hits = kept[name]
                np.add.at(hits, unit[rows], np.int32(1))   # an int32 one keeps numpy's fast path
                values[unit[rows]] = score[rows]

    _score_spans(path, place)
    try:   # each distinct method name is decoded once
        names = {name: name.decode() for name in names}
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: method name is not UTF-8: {exc}") from exc
    methods = dict(sorted((names[name], (values[:units], hits)) for name, (values, hits) in kept.items()))
    if not methods:
        raise DataError(f"score table holds no {level}-level rows")
    for name, (_, hits) in methods.items():
        if not pairs and hits.sum() != n:
            raise DataError(f"method {name}: {hits.sum()} rows for {n} instances")
    if outside:
        name, i, j = outside[0]
        raise DataError(f"score row out of range: method {names[name]}, instance {i}"
                        + (f", label {j}" if pairs else ""))
    for name, (_, hits) in methods.items():
        if hits[:units].max() > 1:
            u = int(np.argmax(hits > 1))
            at = f"instance {u // width}, label {u % width}" if pairs else f"instance {u}"
            raise DataError(f"method {name}: {hits[u]} score rows for {at}")
    for name, (_, hits) in methods.items():
        if not hits[:units].all():
            raise DataError(f"method {name}: score table misses some label pairs" if pairs
                            else f"method {name}: missing instances in score table")
    return {name: values.reshape(n, width) if pairs else values for name, (values, _) in methods.items()}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):   # 1 MiB at a time
            h.update(chunk)
    return h.hexdigest()


@dataclass
class SplitFiles:
    """Manifest entry of one split: its row count and its four file names."""

    n: int
    embeddings: str
    probs: str
    mc: str
    labels: str

    def names(self) -> Tuple[str, ...]:
        return self.embeddings, self.probs, self.mc, self.labels


@dataclass
class DatasetManifest:
    """manifest.json: every field is required, and every split file must be
    listed in ``checksums``."""

    format_version: int
    task: str
    n_classes: int
    dim: int
    n_passes: int
    seed: int
    splits: Dict[str, SplitFiles]
    checksums: Dict[str, str]


def save_dataset(dataset, out_dir) -> Path:
    """Write every split plus manifest.json; returns the manifest path.
    Each split file is a matrix of one row per instance, hashed as it is
    written: the stochastic passes as (n, T*C) rows, the labels as (n, 1)
    class ids or (n, L) bits."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = dataset.spec
    splits: Dict[str, SplitFiles] = {}
    checksums: Dict[str, str] = {}
    for role, split in dataset.splits.items():
        names = {f.name: f"{role}_{f.name}.bin" for f in fields(SplitFiles) if f.name != "n"}
        splits[role] = SplitFiles(len(split), **names)
        for field, name in names.items():
            array = getattr(split, field)
            checksums[name] = write_matrix(out / name, array.reshape(len(array), -1))
    n_classes = spec.n_classes if spec.task == "multiclass" else spec.n_labels
    manifest = DatasetManifest(FORMAT_VERSION, spec.task, n_classes, spec.dim, spec.mc_passes,
                               spec.seed, splits, checksums)
    (out / "spec.json").write_text(spec.to_json())
    path = out / "manifest.json"
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path) -> DatasetManifest:
    """Parse and structurally check manifest.json, file names plain; checksums are not verified."""
    path = Path(path)
    try:
        manifest = record_from_json(DatasetManifest, json.loads(path.read_text()), "manifest")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if manifest.format_version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported manifest version {manifest.format_version}")
    names = [*manifest.checksums, *(f for files in manifest.splits.values() for f in files.names())]
    bad = [f for f in names if f in ("", ".", "..") or "/" in f or "\\" in f]
    if bad:
        raise FormatError(f"{path}: file name {bad[0]!r} is not a plain name in the manifest's directory")
    for role, files in manifest.splits.items():
        unlisted = [f for f in files.names() if f not in manifest.checksums]
        if unlisted:
            raise FormatError(f"{path}: {role} split file {unlisted[0]!r} is not listed in checksums")
    return manifest


def load_splits(manifest, base_dir, wanted: Dict[str, Collection[str]]) -> Dict[str, LabeledSplit]:
    """The splits ``wanted`` names, ``{role: inputs}``: each with its probs
    and labels, and of its embeddings and stochastic passes those in its
    inputs.  First every file ``manifest`` lists in ``base_dir`` is hashed:
    a file a split needs is read once and parsed from the bytes hashed,
    every other one is streamed through :func:`sha256_file`.  A listed file
    that is a symbolic link, or resolves outside ``base_dir``, is refused
    before it is opened (FormatError).  A file parsed must hold the split's
    ``n`` rows (RowCountError), of the shape the manifest gives
    (FormatError), and every label must be an integer, a class id below
    ``n_classes`` or a 0/1 bit (FormatError)."""
    for role in wanted:
        if role not in manifest.splits:
            raise FormatError(f"manifest has no split {role!r}")
    used = {role: ["probs", "labels"] + [f for f in ("embeddings", "mc") if f in inputs]
            for role, inputs in wanted.items()}
    parsed = {getattr(manifest.splits[role], f) for role, names in used.items() for f in names}
    base = Path(base_dir)
    root = base.resolve()
    raw: Dict[str, bytes] = {}
    for name, expected in manifest.checksums.items():
        path = base / name
        if path.is_symlink() or path.resolve().parent != root:
            raise FormatError(f"{path}: listed file is a symbolic link or resolves outside "
                              "the manifest's directory")
        if not path.exists():
            raise FormatError(f"{path}: listed in manifest but missing")
        if name in parsed:
            raw[name] = path.read_bytes()
        actual = hashlib.sha256(raw[name]).hexdigest() if name in raw else sha256_file(path)
        if actual != expected:
            raise ChecksumError(f"{path}: checksum {actual[:12]}.. != manifest {expected[:12]}..")
    width, multiclass = (manifest.n_classes,), manifest.task == "multiclass"
    shapes = {  # field: (row shape the manifest gives, the fields giving it)
        "probs": (width, "n_classes"),
        "labels": ((), "task") if multiclass else (width, "n_classes"),
        "embeddings": ((manifest.dim,), "dim"),
        "mc": ((manifest.n_passes,) + width, "(n_passes, n_classes)"),
    }
    splits = {}
    for role, names in used.items():
        files, arrays = manifest.splits[role], {}
        for f in names:
            array = parse_matrix(raw[getattr(files, f)], base / getattr(files, f))
            row_shape, given_by = shapes[f]
            if len(array) != files.n:
                raise RowCountError(f"{role} {f}: {len(array)} rows, manifest says {files.n}")
            if array.shape[1] != math.prod(row_shape):
                raise FormatError(f"{role} {f}: rows of shape {array.shape[1:]}, "
                                  f"manifest {given_by} gives {row_shape}")
            arrays[f] = array.reshape(files.n, *row_shape)
        labels, top = arrays["labels"], manifest.n_classes if multiclass else 2
        bad = np.argwhere(~((labels == np.round(labels)) & (0 <= labels) & (labels < top)))
        if len(bad):
            raise FormatError(f"{role} labels: row {bad[0][0]} holds {labels[tuple(bad[0])]}, "
                              f"not an integer in 0..{top - 1}")
        splits[role] = LabeledSplit(task=manifest.task, **arrays)
    return splits


def save_models(path, models: Dict[str, object]) -> None:
    """Versioned container for fitted scorer models (pickle payload)."""
    blob = pickle.dumps(models, protocol=4)
    with open(path, "wb") as fh:
        fh.write(_HDR_MODELS.pack(MAGIC_MODELS, MODELS_VERSION))
        fh.write(blob)


def load_models(path) -> Dict[str, object]:
    """Models in the container ``path``; its pickle payload runs code as it loads."""
    with open(path, "rb") as fh:
        _read_header(fh.read(_HDR_MODELS.size), path, _HDR_MODELS, MAGIC_MODELS, MODELS_VERSION)
        try:
            return pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError) as exc:
            raise FormatError(f"{path}: malformed models payload: {exc!r}") from exc
