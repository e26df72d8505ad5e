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
import itertools
import json
import pickle
import struct
from dataclasses import asdict, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .core import LabeledSplit, record_from_json

MAGIC_MATRIX = b"UQMATRIX"
MAGIC_MC = b"UQMCTENS"
MAGIC_MODELS = b"UQMODELS"
FORMAT_VERSION = 1

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


def _read_header(fh, header: struct.Struct, magic: bytes) -> list:
    """Check the magic and version of the binary file open as ``fh``; returns
    the header fields after them."""
    head = fh.read(header.size)
    if len(head) < header.size:
        raise FormatError(f"{fh.name}: truncated header")
    found, version, *rest = header.unpack(head)
    if found != magic:
        raise MagicError(f"{fh.name}: bad magic {found!r}")
    if version != FORMAT_VERSION:
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


def read_labels_csv(path, task: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "index":
        raise FormatError(f"{path}: missing header row")
    header, body = rows[0], rows[1:]
    if task == "multiclass" and header != ["index", "label"]:
        raise FormatError(f"{path}: expected header index,label")
    ragged = [r for r in body if len(r) != len(header)]
    if ragged:
        raise FormatError(f"{path}: ragged label rows: {ragged[0]!r} under {len(header)} header fields")
    try:
        labels = np.array([[int(v) for v in r[1:]] for r in body], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: label value is not an int64 integer: {exc}") from exc
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
    back exactly.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SCORE_HEADER)
        for method, values in scores.items():
            values = np.asarray(values, dtype=float)
            if values.ndim == 2:
                instances, labels = np.indices(values.shape).reshape(2, -1).tolist()
            else:
                instances, labels = range(len(values)), itertools.repeat("")
            w.writerows(zip(instances, labels, itertools.repeat(method),
                            map(repr, values.ravel().tolist())))


def read_scores_csv(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The score table as column arrays (instance, label, method, score);
    instance-level rows carry NO_LABEL in the label column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != SCORE_HEADER:
            raise FormatError(f"{path}: missing score-table header")
        body = list(reader)
    malformed = np.fromiter(map(len, body), dtype=int, count=len(body)) != len(SCORE_HEADER)
    if np.any(malformed):
        raise FormatError(f"{path}: malformed row {body[int(np.argmax(malformed))]!r}")
    instance, label, method, score = (list(map(itemgetter(k), body)) for k in range(4))
    del body
    has_label = np.array(label, dtype=str) != ""
    labels = np.full(len(label), NO_LABEL)
    labels[has_label] = np.fromiter(map(int, itertools.compress(label, has_label)), dtype=int)
    if np.any(labels[has_label] < 0):
        raise FormatError(f"{path}: negative label index")
    return (np.fromiter(map(int, instance), dtype=int), labels, np.array(method, dtype=str),
            np.fromiter(map(float, score), dtype=float))


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


def load_split(manifest: DatasetManifest, base_dir, role: str) -> LabeledSplit:
    if role not in manifest.splits:
        raise FormatError(f"manifest has no split {role!r}")
    files = manifest.splits[role]
    base = Path(base_dir)
    emb = read_matrix(base / files.embeddings).astype(float)
    probs = read_matrix(base / files.probs).astype(float)
    mc = read_mc_tensor(base / files.mc).astype(float)
    labels = read_labels_csv(base / files.labels, manifest.task)
    for name, rows in (("embeddings", len(emb)), ("probs", len(probs)), ("mc", len(mc)), ("labels", len(labels))):
        if rows != files.n:
            raise RowCountError(f"{role} {name}: {rows} rows, manifest says {files.n}")
    return LabeledSplit(probs, labels, manifest.task, role, emb, mc)


def save_models(path, models: Dict[str, object]) -> None:
    """Versioned container for fitted scorer models (pickle payload)."""
    blob = pickle.dumps(models, protocol=4)
    with open(path, "wb") as fh:
        fh.write(_HDR_MODELS.pack(MAGIC_MODELS, FORMAT_VERSION))
        fh.write(blob)


def load_models(path) -> Dict[str, object]:
    with open(path, "rb") as fh:
        _read_header(fh, _HDR_MODELS, MAGIC_MODELS)
        return pickle.load(fh)
