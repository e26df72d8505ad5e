"""On-disk interchange: headered float32 matrices, CSV label and score
tables, a JSON manifest with SHA-256 integrity, and a versioned model
container.

Binary layout (little-endian): 8-byte magic, u32 format version, u64
rows, u64 cols, then row-major float32 data.  Stochastic-pass tensors
use their own magic and append u32 T and u32 C to the header; their
payload is rows x (T*C).
"""
from __future__ import annotations

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
from typing import Collection, Dict, List, Tuple

import numpy as np

from .core import LabeledSplit, record_from_json

MAGIC_MATRIX = b"UQMATRIX"
MAGIC_MC = b"UQMCTENS"
MAGIC_MODELS = b"UQMODELS"
FORMAT_VERSION = 1
MODELS_VERSION = 2   # 2: density models hold Cholesky whiteners, not precisions

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


def _read_header(fh, header: struct.Struct, magic: bytes, expected: int = FORMAT_VERSION) -> list:
    """Check the magic and the ``expected`` version of the binary file open
    as ``fh``; returns the header fields after them."""
    head = fh.read(header.size)
    if len(head) < header.size:
        raise FormatError(f"{fh.name}: truncated header")
    found, version, *rest = header.unpack(head)
    if found != magic:
        raise MagicError(f"{fh.name}: bad magic {found!r}")
    if version != expected:
        raise VersionError(f"{fh.name}: unsupported version {version}")
    return rest


def _read_float32(path, header: struct.Struct, magic: bytes) -> np.ndarray:
    """Payload of a matrix file as (rows, cols), or of a stochastic-pass file,
    whose header adds T and C, as (rows, T, C)."""
    with open(path, "rb") as fh:
        rows, cols, *tc = _read_header(fh, header, magic)
        if tc and tc[0] * tc[1] != cols:
            raise FormatError(f"{path}: header T*C {tc[0]}*{tc[1]} != cols {cols}")
        payload = fh.read()
    expected = rows * cols * 4
    if len(payload) != expected:
        raise RowCountError(f"{path}: payload holds {len(payload)} bytes, header implies {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, *(tc or [cols]))


def read_matrix(path) -> np.ndarray:
    return _read_float32(path, _HDR_MATRIX, MAGIC_MATRIX)


def write_mc_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
    if arr.ndim != 3:
        raise ValueError("stochastic-pass files hold (n, T, C) arrays")
    n, t, c = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HDR_MC.pack(MAGIC_MC, FORMAT_VERSION, n, t * c, t, c))
        fh.write(arr.reshape(n, t * c).tobytes(order="C"))


def read_mc_tensor(path) -> np.ndarray:
    return _read_float32(path, _HDR_MC, MAGIC_MC)


def write_labels_csv(path, labels: np.ndarray, task: str) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    header = ["label"] if task == "multiclass" else [f"y{j}" for j in range(labels.shape[1])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index"] + header)
        w.writerows(np.column_stack([np.arange(len(labels)), labels]).tolist())


def _read_csv(path, row_dtype) -> Tuple[List[str], np.ndarray]:
    """Header fields and body rows of a CSV table, the rows parsed in one
    ``np.loadtxt`` pass into the structured dtype ``row_dtype(header,
    longest)``; ``longest`` is the longest body line in bytes, so a string
    field of that size never truncates.  Bytes reach string fields as they
    are in the file.

    The rules are the csv module's, one row per line: a line ends at LF,
    CRLF or CR, a double-quoted field may hold commas and doubled quotes,
    and '#' is an ordinary character.  A blank line, a line break inside
    quotes, a row of the wrong width and a field its column cannot parse
    are FormatErrors that name the line.
    """
    raw = Path(path).read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    header = next(csv.reader([raw[:ends[0]].decode(errors="replace")]), [])
    lengths = np.diff(ends) - 1
    if np.any(lengths == 0):
        raise FormatError(f"{path}: line {int(np.argmin(lengths)) + 2} is blank")
    dtype = np.dtype(row_dtype(header, int(lengths.max(initial=1))))
    if not lengths.size:
        return header, np.empty(0, dtype)
    try:
        rows = _parse_rows(raw, dtype, skiprows=1)
    except (ValueError, DeprecationWarning) as exc:
        line = _first_bad_line(raw, ends, dtype)
        text = raw[ends[line - 1] + 1:ends[line]].decode(errors="replace")
        raise FormatError(f"{path}: malformed row on line {line + 1}: {text!r}") from exc
    if len(rows) != lengths.size:
        raise FormatError(f"{path}: a quoted field holds a line break")
    return header, rows


def _parse_rows(text: bytes, dtype: np.dtype, skiprows: int = 0) -> np.ndarray:
    """``np.loadtxt`` of CSV ``text``.  numpy versions that parse an int
    field through float ('2.7' as 2) warn with a DeprecationWarning, which
    is raised here so that such a field fails as it fails int()."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(io.BytesIO(text), dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          skiprows=skiprows, encoding="latin1", ndmin=1)


def _first_bad_line(raw: bytes, ends: np.ndarray, dtype: np.dtype) -> int:
    """Index (the header is line 0) of the first body line of ``raw`` that
    ``_parse_rows`` fails on, found by parsing halves of the failing span."""
    starts = np.r_[0, ends[:-1] + 1]
    lo, hi = 1, len(ends)   # the first bad line is one of lines lo .. hi - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(raw[starts[lo]:ends[mid - 1]], dtype)
            lo = mid
        except (ValueError, DeprecationWarning):
            hi = mid
    return lo


def read_labels_csv(path, task: str) -> np.ndarray:
    def row_dtype(header, longest):
        if not header or header[0] != "index":
            raise FormatError(f"{path}: missing header row")
        if task == "multiclass" and header != ["index", "label"]:
            raise FormatError(f"{path}: expected header index,label")
        return [(f"f{j}", "<i8") for j in range(len(header))]

    header, rows = _read_csv(path, row_dtype)
    labels = rows.view("<i8").reshape(len(rows), len(header))[:, 1:]
    if task == "multilabel" and not np.isin(labels, (0, 1)).all():
        raise FormatError(f"{path}: multilabel values must be 0 or 1")
    return labels.reshape(-1) if task == "multiclass" else labels.astype(np.int8)


SCORE_HEADER = ["instance", "label", "method", "score"]
NO_LABEL = -1   # label column of instance-level score rows


def write_scores_csv(path, scores: Dict[str, np.ndarray]) -> None:
    """Write the score table of ``{method: scores}``, methods in dict order.

    An ``(n,)`` array gives one row per instance with an empty label
    field; an ``(n, L)`` array gives one row per (instance, label) pair,
    instance-major.  Scores are written as ``repr`` floats, so they read
    back exactly.  The bytes are those of ``csv.writer``: each method
    name is quoted by it once, the numeric fields never need quoting.
    """
    step = 1 << 16   # rows per write: bounds the text held at once
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
            for i in range(0, len(instances), step):
                span = slice(i, i + step)
                fh.write("".join([
                    f"{n},{label},{field},{score!r}\r\n" for n, label, score in zip(
                        instances[span].tolist(),
                        itertools.repeat("") if labels is None else labels[span].tolist(),
                        flat[span].tolist())]))


def read_scores_csv(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The score table as column arrays (instance, label, method, score);
    instance-level rows carry NO_LABEL in the label column.  Instance and
    label fields are int64 integers and scores floats, or the table is a
    FormatError (see :func:`_read_csv` for the line rules)."""
    def row_dtype(header, longest):
        if header != SCORE_HEADER:
            raise FormatError(f"{path}: missing score-table header")
        return [("instance", "<i8"), ("label", f"S{longest}"), ("method", f"S{longest}"),
                ("score", "<f8")]

    _, rows = _read_csv(path, row_dtype)
    label = rows["label"]
    has_label = label != b""
    labels = np.full(len(rows), NO_LABEL)
    try:
        labels[has_label] = label[has_label].astype(np.int64)
    except (ValueError, OverflowError):
        for r in np.flatnonzero(has_label):
            try:
                np.int64(int(label[r]))
            except (ValueError, OverflowError):
                raise FormatError(f"{path}: line {r + 2}: label {label[r].decode(errors='replace')!r} "
                                  "is not an int64 integer") from None
    if np.any(labels[has_label] < 0):
        raise FormatError(f"{path}: negative label index")
    # method names come in runs: decode each distinct one once
    method = rows["method"]
    starts = np.flatnonzero(np.r_[True, method[1:] != method[:-1]][:len(rows)])
    names, which = np.unique(method[starts], return_inverse=True)
    try:
        names = np.array([name.decode() for name in names.tolist()], dtype=str)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: method name is not UTF-8: {exc}") from exc
    methods = np.repeat(names[which], np.diff(np.r_[starts, len(rows)]))
    return np.ascontiguousarray(rows["instance"]), labels, methods, np.ascontiguousarray(rows["score"])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
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
    """Parse and structurally check manifest.json; checksums are not verified."""
    path = Path(path)
    try:
        manifest = record_from_json(DatasetManifest, json.loads(path.read_text()), "manifest")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if manifest.format_version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported manifest version {manifest.format_version}")
    for role, files in manifest.splits.items():
        unlisted = [f for f in files.names() if f not in manifest.checksums]
        if unlisted:
            raise FormatError(f"{path}: {role} split file {unlisted[0]!r} is not listed in checksums")
    return manifest


def validate_manifest(path) -> DatasetManifest:
    """Structural and checksum validation before any computation."""
    path = Path(path)
    manifest = load_manifest(path)
    base = path.parent
    for fname, expected in manifest.checksums.items():
        target = base / fname
        if not target.exists():
            raise FormatError(f"{target}: listed in manifest but missing")
        actual = sha256_file(target)
        if actual != expected:
            raise ChecksumError(f"{target}: checksum {actual[:12]}.. != manifest {expected[:12]}..")
    return manifest


def load_split(manifest: DatasetManifest, base_dir, role: str, inputs: Collection[str]) -> LabeledSplit:
    """The ``role`` split: its probs and labels, and of its embeddings and
    stochastic-pass tensor those named in ``inputs``.  Every file read
    must hold the split's ``n`` rows (RowCountError), each of the shape
    the manifest gives (FormatError): probs and multilabel labels
    ``n_classes`` wide, embeddings ``dim`` wide, and (``n_passes``,
    ``n_classes``) stochastic passes."""
    if role not in manifest.splits:
        raise FormatError(f"manifest has no split {role!r}")
    files = manifest.splits[role]
    base = Path(base_dir)
    width = (manifest.n_classes,)
    fields = {  # field: (array, row shape the manifest gives, the manifest fields giving it)
        "probs": (read_matrix(base / files.probs), width, "n_classes"),
        "labels": (read_labels_csv(base / files.labels, manifest.task),
                   width if manifest.task == "multilabel" else (), "n_classes"),
    }
    if "embeddings" in inputs:
        fields["embeddings"] = (read_matrix(base / files.embeddings), (manifest.dim,), "dim")
    if "mc" in inputs:
        fields["mc"] = (read_mc_tensor(base / files.mc), (manifest.n_passes,) + width,
                        "(n_passes, n_classes)")
    for name, (array, row_shape, given_by) in fields.items():
        if len(array) != files.n:
            raise RowCountError(f"{role} {name}: {len(array)} rows, manifest says {files.n}")
        if array.shape[1:] != row_shape:
            raise FormatError(f"{role} {name}: rows of shape {array.shape[1:]}, "
                              f"manifest {given_by} gives {row_shape}")
    return LabeledSplit(task=manifest.task, role=role, **{name: f[0] for name, f in fields.items()})


def save_models(path, models: Dict[str, object]) -> None:
    """Versioned container for fitted scorer models (pickle payload)."""
    blob = pickle.dumps(models, protocol=4)
    with open(path, "wb") as fh:
        fh.write(_HDR_MODELS.pack(MAGIC_MODELS, MODELS_VERSION))
        fh.write(blob)


def load_models(path) -> Dict[str, object]:
    with open(path, "rb") as fh:
        _read_header(fh, _HDR_MODELS, MAGIC_MODELS, MODELS_VERSION)
        return pickle.load(fh)
