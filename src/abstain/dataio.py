"""On-disk interchange: headered float32 matrices, CSV label and score
tables, a JSON manifest with SHA-256 integrity, and a versioned model
container.

Binary layout (little-endian): 8-byte magic, u32 format version, u64
rows, u64 cols, then row-major float32 data.  Stochastic-pass tensors
use their own magic and append u32 T and u32 C to the header; their
payload is rows x (T*C).
"""
from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import itertools
import json
import pickle
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .core import LabeledSplit, record_from_json

MAGIC_MATRIX = b"UQMATRIX"
MAGIC_MC = b"UQMCTENS"
MAGIC_MODELS = b"UQMODELS"
FORMAT_VERSION = 1
MODELS_VERSION = 3   # 2: density models hold Cholesky whiteners, not precisions;
                     # 3: RDE and NUQ models hold only what their scorers read

_HDR_MATRIX = struct.Struct("<8sIQQ")
_HDR_MC = struct.Struct("<8sIQQII")
_HDR_MODELS = struct.Struct("<8sI")


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


def write_matrix(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("matrix files hold 2-D arrays")
    with open(path, "wb") as fh:
        fh.write(_HDR_MATRIX.pack(MAGIC_MATRIX, FORMAT_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


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


def _parse_float32(raw: bytes, name, header: struct.Struct, magic: bytes) -> np.ndarray:
    """Payload of the bytes ``raw`` of a matrix file as (rows, cols), or of
    a stochastic-pass file, whose header adds T and C, as (rows, T, C)."""
    rows, cols, *tc = _read_header(raw, name, header, magic)
    if tc and tc[0] * tc[1] != cols:
        raise FormatError(f"{name}: header T*C {tc[0]}*{tc[1]} != cols {cols}")
    expected, payload = rows * cols * 4, len(raw) - header.size
    if payload != expected:
        raise RowCountError(f"{name}: payload holds {payload} bytes, header implies {expected}")
    return np.frombuffer(raw, dtype="<f4", offset=header.size).reshape(rows, *(tc or [cols]))


def parse_matrix(raw: bytes, name) -> np.ndarray:
    return _parse_float32(raw, name, _HDR_MATRIX, MAGIC_MATRIX)


def write_mc_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
    if arr.ndim != 3:
        raise ValueError("stochastic-pass files hold (n, T, C) arrays")
    n, t, c = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HDR_MC.pack(MAGIC_MC, FORMAT_VERSION, n, t * c, t, c))
        fh.write(arr.reshape(n, t * c).tobytes(order="C"))


def parse_mc_tensor(raw: bytes, name) -> np.ndarray:
    return _parse_float32(raw, name, _HDR_MC, MAGIC_MC)


def write_labels_csv(path, labels: np.ndarray, task: str) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    header = ["label"] if task == "multiclass" else [f"y{j}" for j in range(labels.shape[1])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index"] + header)
        w.writerows(np.column_stack([np.arange(len(labels)), labels]).tolist())


WRITE_ROWS = 1 << 13   # rows per write or parse of a table: bounds the text held at once
READ_BYTES = 1 << 20   # bytes per read of a file: bounds the bytes held at once


def _file_chunks(path) -> Iterator[bytes]:
    """The bytes of the file ``path``, in reads of READ_BYTES."""
    with open(path, "rb") as fh:
        yield from iter(lambda: fh.read(READ_BYTES), b"")


def _line_blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes of ``chunks`` in blocks of whole lines: each block ends
    just past a line end, the last one where the bytes end.  A CR that ends
    a chunk is held back with its line, since the next chunk may start with
    the LF of a CRLF."""
    held: List[bytes] = []   # the bytes after the last line end
    for chunk in chunks:
        if held and held[-1].endswith(b"\r") and not chunk.startswith(b"\n"):
            yield b"".join(held)   # that CR ended a line
            held = []
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield b"".join(held + [chunk[:cut]])
            held = []
        if cut < len(chunk):
            held.append(chunk[cut:])
    if held:
        yield b"".join(held)


def _block_lines(block: bytes) -> Tuple[np.ndarray, np.ndarray, Callable[[int, int], bytes]]:
    """Start and end offsets of each line of ``block``, the end where the
    line's terminator starts: at a CR, or at an LF that follows none.
    After a CRLF the next line starts past both bytes.  Also returns
    ``text(lo, hi)``, lines lo .. hi - 1 as ``np.loadtxt`` reads them: each
    ended by its LF or CRLF but the last, and if the block holds a CR that
    ends a line alone, with every line end turned into an LF."""
    data = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    starts = ends + 1
    lone_cr = False
    if b"\r" in block:
        cr = np.flatnonzero(data == ord("\r"))
        lone_lf = ends[(ends == 0) | (data[ends - 1] != ord("\r"))]
        ends = np.sort(np.r_[cr, lone_lf])
        crlf = data[ends] == ord("\r")
        crlf[crlf] = data[np.minimum(ends[crlf] + 1, len(block) - 1)] == ord("\n")
        starts = ends + 1 + crlf
        lone_cr = len(cr) > np.count_nonzero(crlf)
    if not len(ends) or starts[-1] < len(block):
        ends = np.append(ends, len(block))
    starts = np.r_[0, starts[:len(ends) - 1]]

    def text(lo: int, hi: int) -> bytes:
        chunk = block[starts[lo]:ends[hi - 1]]
        return chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if lone_cr else chunk

    return starts, ends, text


def _csv_spans(blocks: Iterable[bytes], path, row_dtype) -> Iterator:
    """Parse the CSV table ``path``, whose bytes ``blocks`` gives in blocks
    of whole lines (:func:`_line_blocks`), in spans of at most WRITE_ROWS
    lines.  Yields the header fields first, then, for each span, the index
    of its first body row (body row r is on file line r + 2) and its rows,
    parsed in one ``np.loadtxt`` pass into the structured dtype
    ``row_dtype(header, longest)``.  ``longest`` is the span's longest line
    in bytes, so a string field of that size never truncates.  Bytes reach
    string fields as they are in the file.

    The rules are the csv module's, one row per line: a line ends at LF,
    CRLF or CR, a double-quoted field may hold commas and doubled quotes,
    and '#' is an ordinary character.  A blank line, a line break inside
    quotes, a row of the wrong width and a field its column cannot parse
    are FormatErrors that name the line; the rows before a blank line are
    yielded first, so the first faulty line is named whatever the blocks.
    """
    header, lines = None, 0   # lines before the block; the header is line 0
    for block in blocks:
        starts, ends, text = _block_lines(block)
        if header is None:
            header = next(csv.reader([text(0, 1).decode(errors="replace")]), [])
            row_dtype(header, 1)   # checks the header of a table without body rows too
            yield header
        for lo in range(0 if lines else 1, len(ends), WRITE_ROWS):
            hi = min(lo + WRITE_ROWS, len(ends))
            blank = np.flatnonzero(ends[lo:hi] == starts[lo:hi])
            if blank.size:
                hi = lo + int(blank[0])
            if hi > lo:
                dtype = np.dtype(row_dtype(header, int((ends[lo:hi] - starts[lo:hi]).max())))
                try:
                    rows = _parse_rows(text(lo, hi), dtype)
                except (ValueError, DeprecationWarning) as exc:
                    line = _first_bad_line(text, lo, hi, dtype)
                    bad = text(line, line + 1).decode(errors="replace")
                    raise FormatError(f"{path}: malformed row on line {lines + line + 1}: {bad!r}") from exc
                if len(rows) != hi - lo:
                    raise FormatError(f"{path}: a quoted field holds a line break")
                yield lines + lo - 1, rows
            if blank.size:
                raise FormatError(f"{path}: line {lines + hi + 1} is blank")
        lines += len(ends)
    if header is None:   # an empty file
        row_dtype([], 1)


def _parse_rows(text: bytes, dtype: np.dtype) -> np.ndarray:
    """``np.loadtxt`` of CSV ``text``.  numpy versions that parse an int
    field through float ('2.7' as 2) warn with a DeprecationWarning, which
    is raised here so that such a field fails as it fails int()."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(io.BytesIO(text), dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          encoding="latin1", ndmin=1)


def _first_bad_line(text: Callable[[int, int], bytes], lo: int, hi: int, dtype: np.dtype) -> int:
    """Index of the first of lines lo .. hi - 1, ``text(lo, hi)``, that
    ``_parse_rows`` fails on, found by parsing halves of the failing span."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(text(lo, mid), dtype)
            lo = mid
        except (ValueError, DeprecationWarning):
            hi = mid
    return lo


def parse_labels_csv(raw: bytes, path, task: str) -> np.ndarray:
    def row_dtype(header, longest):
        if not header or header[0] != "index":
            raise FormatError(f"{path}: missing header row")
        if task == "multiclass" and header != ["index", "label"]:
            raise FormatError(f"{path}: expected header index,label")
        return [(f"f{j}", "<i8") for j in range(len(header))]

    def kept(labels):   # a span's labels; multilabel 0/1 bits one byte each
        if task == "multiclass":
            return labels
        if not ((labels == 0) | (labels == 1)).all():
            raise FormatError(f"{path}: multilabel values must be 0 or 1")
        return labels.astype(np.int8)

    spans = _csv_spans([raw], path, row_dtype)
    width = len(next(spans))
    labels = np.concatenate([kept(np.empty((0, width - 1), dtype=np.int64))] + [
        kept(rows.view("<i8").reshape(len(rows), width)[:, 1:]) for _, rows in spans])
    return labels.reshape(-1) if task == "multiclass" else labels


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


def _score_spans(path) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Parse the score table ``path``, read in blocks of READ_BYTES, and
    yield each span's checked columns (instance, label, method, score):
    int64 instance and label indices, NO_LABEL in the label column of
    instance-level rows, method names as the file's bytes and float
    scores.  Every row of both levels is parsed and checked: its instance
    and label fields must be int64 integers, a label non-negative, and
    its score a float, or the table is a FormatError that names the line
    (see :func:`_csv_spans` for the line rules)."""
    def row_dtype(header, longest):
        if header != SCORE_HEADER:
            raise FormatError(f"{path}: missing score-table header")
        return [("instance", "<i8"), ("label", f"S{longest}"), ("method", f"S{longest}"),
                ("score", "<f8")]

    spans = _csv_spans(_line_blocks(_file_chunks(path)), path, row_dtype)
    next(spans)
    for first, rows in spans:
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
                    raise FormatError(f"{path}: line {first + r + 2}: label "
                                      f"{label[r].decode(errors='replace')!r} is not an int64 integer") from None
        negative = np.flatnonzero(has_label & (values < 0))
        if negative.size:
            r = negative[0]
            raise FormatError(f"{path}: line {first + r + 2}: negative label index {values[r]}")
        yield rows["instance"], values, rows["method"], rows["score"]


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
    names = set()    # every row's method name
    outside = None   # the first row of the level out of range
    for instance, label, method, score in _score_spans(path):
        spanned = set(method[np.r_[True, method[1:] != method[:-1]]].tolist())   # each run's name
        names |= spanned
        keep = (label != NO_LABEL) == pairs
        in_range = (0 <= instance) & (instance < n)
        if pairs:
            in_range &= (0 <= label) & (label < width)
        if outside is None and not in_range[keep].all():
            r = np.flatnonzero(keep & ~in_range)[0]
            outside = bytes(method[r]), instance[r], label[r]
        unit = np.where(in_range, instance * width + label if pairs else instance, units)
        for name in spanned:
            rows = keep & (method == name)
            if rows.any():
                values, hits = kept[name]
                np.add.at(hits, unit[rows], np.int32(1))   # an int32 one keeps numpy's fast path
                values[unit[rows]] = score[rows]
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
    if outside is not None:
        name, i, j = outside
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
    for chunk in _file_chunks(path):
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
    """Write every split plus manifest.json; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = dataset.spec
    splits: Dict[str, SplitFiles] = {}
    for role, split in dataset.splits.items():
        files = splits[role] = SplitFiles(len(split), f"{role}_embeddings.bin", f"{role}_probs.bin",
                                          f"{role}_mc.bin", f"{role}_labels.csv")
        write_matrix(out / files.embeddings, split.embeddings)
        write_matrix(out / files.probs, split.probs)
        write_mc_tensor(out / files.mc, split.mc)
        write_labels_csv(out / files.labels, split.labels, split.task)
    checksums = {f: sha256_file(out / f) for files in splits.values() for f in files.names()}
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
    (FormatError)."""
    for role in wanted:
        if role not in manifest.splits:
            raise FormatError(f"manifest has no split {role!r}")
    fields = {role: ["probs", "labels"] + [f for f in ("embeddings", "mc") if f in inputs]
              for role, inputs in wanted.items()}
    parsed = {getattr(manifest.splits[role], f) for role, names in fields.items() for f in names}
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
    width = (manifest.n_classes,)
    rules = {  # field: (parser of its file's bytes, row shape the manifest gives, the fields giving it)
        "probs": (parse_matrix, width, "n_classes"),
        "labels": (lambda data, path: parse_labels_csv(data, path, manifest.task),
                   width if manifest.task == "multilabel" else (), "n_classes"),
        "embeddings": (parse_matrix, (manifest.dim,), "dim"),
        "mc": (parse_mc_tensor, (manifest.n_passes,) + width, "(n_passes, n_classes)"),
    }
    splits = {}
    for role, names in fields.items():
        files = manifest.splits[role]
        arrays = {f: rules[f][0](raw[getattr(files, f)], base / getattr(files, f)) for f in names}
        for f, array in arrays.items():
            _, row_shape, given_by = rules[f]
            if len(array) != files.n:
                raise RowCountError(f"{role} {f}: {len(array)} rows, manifest says {files.n}")
            if array.shape[1:] != row_shape:
                raise FormatError(f"{role} {f}: rows of shape {array.shape[1:]}, "
                                  f"manifest {given_by} gives {row_shape}")
        splits[role] = LabeledSplit(task=manifest.task, role=role, **arrays)
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
