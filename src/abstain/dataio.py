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
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .core import LabeledSplit

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


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HDR_MATRIX.size)
        if len(head) < _HDR_MATRIX.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, rows, cols = _HDR_MATRIX.unpack(head)
        if magic != MAGIC_MATRIX:
            raise MagicError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise VersionError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = rows * cols * 4
    if len(payload) != expected:
        raise RowCountError(f"{path}: payload holds {len(payload)} bytes, header implies {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols)


def write_mc_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
    if arr.ndim != 3:
        raise ValueError("stochastic-pass files hold (n, T, C) arrays")
    n, t, c = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HDR_MC.pack(MAGIC_MC, FORMAT_VERSION, n, t * c, t, c))
        fh.write(arr.reshape(n, t * c).tobytes(order="C"))


def read_mc_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HDR_MC.size)
        if len(head) < _HDR_MC.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, rows, cols, t, c = _HDR_MC.unpack(head)
        if magic != MAGIC_MC:
            raise MagicError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise VersionError(f"{path}: unsupported version {version}")
        if t * c != cols:
            raise FormatError(f"{path}: header T*C {t}*{c} != cols {cols}")
        payload = fh.read()
    expected = rows * cols * 4
    if len(payload) != expected:
        raise RowCountError(f"{path}: payload holds {len(payload)} bytes, header implies {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, t, c)


def write_labels_csv(path, labels: np.ndarray, task: str) -> None:
    labels = np.asarray(labels)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if task == "multiclass":
            w.writerow(["index", "label"])
            for i, y in enumerate(labels):
                w.writerow([i, int(y)])
        else:
            w.writerow(["index"] + [f"y{j}" for j in range(labels.shape[1])])
            for i, row in enumerate(labels):
                w.writerow([i] + [int(v) for v in row])


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
    if task == "multiclass":
        return np.array([int(r[1]) for r in body], dtype=np.int64)
    return np.array([[int(v) for v in r[1:]] for r in body], dtype=np.int8)


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
class DatasetManifest:
    task: str
    n_classes: int
    dim: int
    n_passes: int
    seed: int
    splits: Dict[str, Dict[str, object]]   # role -> {n, embeddings, probs, mc, labels}
    checksums: Dict[str, str]
    format_version: int = FORMAT_VERSION


def save_dataset(dataset, out_dir) -> Path:
    """Write every split plus manifest.json; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = dataset.spec
    files: Dict[str, str] = {}
    split_entries: Dict[str, Dict[str, object]] = {}
    for role, split in dataset.splits.items():
        names = {
            "embeddings": f"{role}_embeddings.bin",
            "probs": f"{role}_probs.bin",
            "mc": f"{role}_mc.bin",
            "labels": f"{role}_labels.csv",
        }
        write_matrix(out / names["embeddings"], split.embeddings)
        write_matrix(out / names["probs"], split.probs)
        write_mc_tensor(out / names["mc"], split.mc)
        write_labels_csv(out / names["labels"], split.labels, split.task)
        for f in names.values():
            files[f] = sha256_file(out / f)
        split_entries[role] = {"n": len(split), **names}
    manifest = DatasetManifest(
        task=spec.task,
        n_classes=spec.n_classes if spec.task == "multiclass" else spec.n_labels,
        dim=spec.dim,
        n_passes=spec.mc_passes,
        seed=spec.seed,
        splits=split_entries,
        checksums=files,
    )
    (out / "spec.json").write_text(spec.to_json())
    path = out / "manifest.json"
    payload = {
        "format_version": manifest.format_version,
        "task": manifest.task,
        "n_classes": manifest.n_classes,
        "dim": manifest.dim,
        "n_passes": manifest.n_passes,
        "seed": manifest.seed,
        "splits": manifest.splits,
        "checksums": manifest.checksums,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        manifest = DatasetManifest(
            task=payload["task"],
            n_classes=int(payload["n_classes"]),
            dim=int(payload["dim"]),
            n_passes=int(payload["n_passes"]),
            seed=int(payload["seed"]),
            splits=payload["splits"],
            checksums=payload["checksums"],
            format_version=int(payload["format_version"]),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing manifest field {exc}") from exc
    if manifest.format_version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported manifest version {manifest.format_version}")
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
    entry = manifest.splits[role]
    base = Path(base_dir)
    emb = read_matrix(base / entry["embeddings"]).astype(float)
    probs = read_matrix(base / entry["probs"]).astype(float)
    mc = read_mc_tensor(base / entry["mc"]).astype(float)
    labels = read_labels_csv(base / entry["labels"], manifest.task)
    n = int(entry["n"])
    for name, rows in (("embeddings", len(emb)), ("probs", len(probs)), ("mc", len(mc)), ("labels", len(labels))):
        if rows != n:
            raise RowCountError(f"{role} {name}: {rows} rows, manifest says {n}")
    return LabeledSplit(probs, labels, manifest.task, role, emb, mc)


def save_models(path, models: Dict[str, object]) -> None:
    """Versioned container for fitted scorer models (pickle payload)."""
    blob = pickle.dumps(models, protocol=4)
    with open(path, "wb") as fh:
        fh.write(_HDR_MODELS.pack(MAGIC_MODELS, FORMAT_VERSION))
        fh.write(blob)


def load_models(path) -> Dict[str, object]:
    with open(path, "rb") as fh:
        head = fh.read(_HDR_MODELS.size)
        if len(head) < _HDR_MODELS.size:
            raise FormatError(f"{path}: truncated header")
        magic, version = _HDR_MODELS.unpack(head)
        if magic != MAGIC_MODELS:
            raise MagicError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise VersionError(f"{path}: unsupported version {version}")
        return pickle.load(fh)
