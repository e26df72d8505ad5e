"""On-disk interchange: headered float32 matrices, a JSON manifest with
SHA-256 integrity, float64 model, score and curve containers, and CSV
exports that are written and never read back: the score table, UTF-8 text
hashed as it is written (its digest goes into the score container's
index), and the plotted points of each curve.

Binary layout (little-endian): 8-byte magic, u32 format version, u64
rows, u64 cols, then row-major float32 data.  Every split file is one
such matrix, one row per instance; the manifest gives each row's shape.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Collection, Dict, Tuple

import numpy as np

from .core import LabeledSplit, record_from_json
from .errors import ChecksumError, DataError, FormatError, MagicError, RowCountError, VersionError

MAGIC_MATRIX = b"UQMATRIX"
MAGIC_MODELS = b"UQMODELS"
MAGIC_SCORES = b"UQSCORES"
MAGIC_CURVES = b"UQCURVES"
FORMAT_VERSION = 2   # 2: stochastic passes and labels are matrix files
MODELS_VERSION = 8   # the README lists what each version changed
SCORES_VERSION = 2   # 2: the index names the split the scores are of
CURVES_VERSION = 1

_HDR_MATRIX = struct.Struct("<8sIQQ")
_HDR_CONTAINER = struct.Struct("<8sIQ32s")   # magic, version, index size, SHA-256 of the bytes after it

WRITE_ROWS = 1 << 13   # rows per write of a file: bounds the text or float32 block held at once


def write_matrix(path, arr: np.ndarray) -> str:
    """Write a matrix file: the rows of ``arr`` cast into one float32
    buffer of at most WRITE_ROWS rows and 2 MiB (one row, if a row is
    wider) and written from it a block at a time.  Returns the file's
    SHA-256 hex digest, taken from the bytes as they are written."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("matrix files hold 2-D arrays")
    header = _HDR_MATRIX.pack(MAGIC_MATRIX, FORMAT_VERSION, *arr.shape)
    digest = hashlib.sha256(header)
    step = min(WRITE_ROWS, max(1, (1 << 21) // (4 * arr.shape[1] or 1)))
    buffer = np.empty((min(len(arr), step), arr.shape[1]), dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        for i in range(0, len(arr), step):
            block = buffer[:len(arr) - i]
            block[...] = arr[i:i + step]
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


SCORE_HEADER = ["instance", "label", "method", "score"]


FORK_ROWS = 100_000   # rows a writer must be able to hand to a second process before it forks one


def _score_text(field: str, values: np.ndarray, width, start: int) -> bytes:
    """The UTF-8 score table rows of one method's ``values``, flat rows ``start``
    on, ``field`` its CSV field: instance rows if ``width`` is None, else
    rows of (instance, label) pairs of ``width`` labels, instance-major.
    Indices are made for these rows only."""
    stop = start + len(values)
    if width is None:
        instances, labels = range(start, stop), itertools.repeat("")
    else:
        instances, labels = (a.tolist() for a in np.divmod(np.arange(start, stop), width))
    return "".join([f"{n},{label},{field},{score!r}\r\n"
                    for n, label, score in zip(instances, labels, values.tolist())]).encode()


def write_scores_csv(path, scores: Dict[str, np.ndarray]) -> str:
    """Write the score table of ``{method: scores}``, methods in dict order,
    as UTF-8; returns its SHA-256 hex digest, taken from the bytes as they
    are written.

    An ``(n,)`` array gives one row per instance with an empty label
    field; an ``(n, L)`` array gives one row per (instance, label) pair,
    instance-major.  Scores are written as ``repr`` floats, so they read
    back exactly.  The bytes are those of ``csv.writer``: each method
    name is quoted by it once, the numeric fields never need quoting.

    The rows are formatted a span of WRITE_ROWS at a time.  When the second
    half of the spans holds FORK_ROWS rows or more and this process may run
    on at least two CPUs (where ``os.sched_getaffinity`` is missing, as
    ``os.fork`` may be, it never forks), a forked child formats that half
    into an anonymous temporary file in the table's directory while this
    process writes the first half; then this process hashes the child's
    bytes as it appends them.  The child leaves through ``os._exit``: it
    flushes no buffer and runs no handler that it inherited.  This process
    waits for it even when its own half raises, and a child that does not
    exit 0 is an OSError naming the table.
    """
    spans = []   # (method field, scores, label count or None, first row) per span, in file order
    for method, values in scores.items():
        quoted = io.StringIO()
        csv.writer(quoted).writerow(["", method])
        field = quoted.getvalue()[1:-2]   # strip the leading "," and the "\r\n"
        values = np.asarray(values, dtype=float)
        width = values.shape[1] if values.ndim == 2 else None
        flat = values.ravel()
        spans += [(field, flat[i:i + WRITE_ROWS], width, i) for i in range(0, len(flat), WRITE_ROWS)]
    half = len(spans) // 2
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(chunks):
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)

        write([(",".join(SCORE_HEADER) + "\r\n").encode()])
        if (sum(len(span[1]) for span in spans[half:]) < FORK_ROWS or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2):
            write(itertools.starmap(_score_text, spans))
            return digest.hexdigest()
        with tempfile.TemporaryFile(dir=Path(path).parent) as tail:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    tail.writelines(itertools.starmap(_score_text, spans[half:]))
                    tail.flush()
                    code = 0
                finally:
                    os._exit(code)
            try:
                write(itertools.starmap(_score_text, spans[:half]))
            finally:
                _, status = os.waitpid(pid, 0)
            if status:
                raise OSError(f"the forked writer of {path} failed with exit code "
                              f"{os.waitstatus_to_exitcode(status)}")
            tail.seek(0)
            write(iter(lambda: tail.read(1 << 20), b""))
    return digest.hexdigest()


def write_curve_csv(path, coverages, values) -> None:
    """Write the points of one curve, ``coverages`` and ``values``, as ``coverage,value`` rows of ``repr`` floats."""
    rows = "".join([f"{c!r},{v!r}\n" for c, v in zip(coverages.tolist(), values.tolist())])
    Path(path).write_text("coverage,value\n" + rows)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:   # read into one reused buffer
        return hashlib.file_digest(fh, "sha256").hexdigest()


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
    (FormatError), and make a :class:`LabeledSplit`, or the FormatError
    names the split and the field."""
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
        try:
            splits[role] = LabeledSplit(task=manifest.task, **arrays)
        except ValueError as exc:
            raise FormatError(f"{role} {exc}") from exc
    return splits


def _write_container(path, magic: bytes, version: int, index: dict, values) -> None:
    """Write a container: the header, the JSON ``index``, then the iterable ``values`` as
    row-major float64 in index order, each hashed as it is written into the header's SHA-256."""
    index = json.dumps(index).encode()
    digest = hashlib.sha256(index)
    with open(path, "wb") as fh:
        fh.write(_HDR_CONTAINER.pack(magic, version, len(index), bytes(32)) + index)
        for value in values:
            value = np.asarray(value, "<f8", order="C")
            digest.update(value)
            fh.write(value)
            del value   # freed before the next value is made
        fh.seek(_HDR_CONTAINER.size - 32)
        fh.write(digest.digest())


def _read_container(path, magic: bytes, version: int, what: str, shapes_of, keep=None) -> Dict:
    """The fields ``{name: array}`` of the container ``path`` whose shapes pass ``keep``; the
    others are only hashed.  No array is built until the index passes its checks (FormatError):
    a JSON object whose field shapes, ``shapes_of(index)`` in file order, are lists of non-negative
    ints that need exactly the bytes after it.  Bytes after the header that miss its SHA-256: ChecksumError."""
    with open(path, "rb") as fh:
        size, expected = _read_header(fh.read(_HDR_CONTAINER.size), path, _HDR_CONTAINER, magic, version)
        payload = os.fstat(fh.fileno()).st_size - _HDR_CONTAINER.size - size
        try:   # ValueError also for an index that is not UTF-8 or JSON, RecursionError if nested too deep
            if payload < 0:
                raise ValueError("it runs past the end of the file")
            raw = fh.read(size)
            index = json.loads(raw)
            if not isinstance(index, dict):
                raise ValueError("it is not a JSON object")
            shapes = shapes_of(index)
            if not all(isinstance(s, list) and all(type(m) is int and m >= 0 for m in s) for s in shapes.values()):
                raise ValueError("a field shape is not a list of non-negative ints")
            if (need := 8 * sum(map(math.prod, shapes.values()))) != payload:
                raise ValueError(f"its shapes need {need} bytes, {payload} follow it")
            digest, fields = hashlib.sha256(raw), {}
            for name, shape in shapes.items():   # np.empty raises ValueError for a dimension numpy refuses
                if keep is None or keep(shape):
                    fields[name] = value = np.empty(shape, "<f8")
                    fh.readinto(value)
                    digest.update(value)
                else:   # 64 KiB at a time
                    for left in range(8 * math.prod(shape), 0, -(1 << 16)):
                        digest.update(fh.read(min(left, 1 << 16)))
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: malformed {what} index: {exc}") from exc
    if digest.digest() != expected:
        raise ChecksumError(f"{path}: checksum {digest.hexdigest()[:12]}.. != header {expected.hex()[:12]}..")
    return fields


def save_models(path, models: Dict[str, Dict[str, object]]) -> None:
    """Write the models container of ``{key: {field: value}}``, indexed by each key's field shapes."""
    index = {key: {name: np.shape(value) for name, value in fields.items()} for key, fields in models.items()}
    _write_container(path, MAGIC_MODELS, MODELS_VERSION, index, (v for f in models.values() for v in f.values()))


def load_models(path) -> Dict[str, Dict[str, np.ndarray]]:
    """The fields ``{key: {field: array}}`` of the models container ``path``, a 0-d field an ``np.float64``."""
    def shapes_of(index):
        if not all(isinstance(fields, dict) for fields in index.values()):
            raise ValueError("it must map each model to an object of field shapes")
        return {(key, name): shape for key, fields in index.items() for name, shape in fields.items()}

    models: Dict[str, Dict[str, np.ndarray]] = {}
    for (key, name), value in _read_container(path, MAGIC_MODELS, MODELS_VERSION, "models", shapes_of).items():
        models.setdefault(key, {})[name] = value[()]
    return models


def scores_container(table) -> Path:
    """The score container of the score table ``table``: the table's path with ".bin" appended."""
    return Path(f"{table}.bin")


def split_source(manifest, role: str) -> Dict[str, str]:
    """Where scores of the split ``role`` of ``manifest`` come from: the role and the
    manifest's checksums of the split's probs and labels, which fix its units and their truth."""
    files = manifest.splits[role]
    return {"split": role, "probs": manifest.checksums[files.probs], "labels": manifest.checksums[files.labels]}


def write_scores(table, scores: Dict[str, np.ndarray], source: Dict[str, str]) -> None:
    """Write the score table ``table`` (:func:`write_scores_csv`), then its score container, indexed with
    the table's SHA-256 and the ``source`` (:func:`split_source`) of the scores.  Any container at that
    path is removed first.  If either write fails, both files are removed and the write's own error is
    raised, so the two are written together or not at all."""
    container = scores_container(table)
    container.unlink(missing_ok=True)
    try:
        digest = write_scores_csv(table, scores)
        index = {"table": digest, "source": source, "scores": {name: np.shape(v) for name, v in scores.items()}}
        _write_container(container, MAGIC_SCORES, SCORES_VERSION, index, scores.values())
    except BaseException:
        for path in (table, container):
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def read_scores(table, level: str, n: int, width: int, source: Dict[str, str]) -> Dict[str, np.ndarray]:
    """``{method: scores}`` of ``level`` in name order, from the score container of the
    score table ``table``: (n,) arrays at level "instance", (n, width) arrays of (instance,
    label) pairs at level "label".  The container must exist (DataError), hold the table's
    SHA-256 (ChecksumError), only (n,) and (n, width) arrays (FormatError), and scores of
    ``source``, the split they are evaluated on (DataError naming both).  The table's SHA-256
    and the source are compared after the container's own, so a fault in the container is
    named as its own."""
    container, digest = scores_container(table), sha256_file(table)
    if not container.is_file():
        raise DataError(f"{container}: missing; `abstain score` writes it beside the score table")
    wanted = [n, width] if level == "label" else [n]
    stored = []   # the table's SHA-256 and the source that the index holds

    def shapes_of(index):
        if (set(index) != {"table", "source", "scores"} or not isinstance(index["scores"], dict)
                or not isinstance(index["source"], dict) or set(index["source"]) != set(source)):
            raise ValueError("it must hold the table's digest, the source of the scores and an object of score shapes")
        stored.extend((index["table"], index["source"]))
        for name, shape in index["scores"].items():
            if shape not in ([n], [n, width]):
                raise FormatError(f"{container}: method {name}: shape {shape}, not [{n}] or [{n}, {width}]")
        if wanted not in index["scores"].values():
            raise DataError(f"score table holds no {level}-level rows")
        return index["scores"]

    fields = _read_container(container, MAGIC_SCORES, SCORES_VERSION, "score", shapes_of, lambda shape: shape == wanted)
    if stored[0] != digest:
        raise ChecksumError(f"{table}: checksum {digest[:12]}.. != {container} {stored[0]!s:.12}..")
    if stored[1] != source:
        def named(s):
            return f"the {s['split']!r} split with probs {s['probs']!s:.12}.. and labels {s['labels']!s:.12}.."
        raise DataError(f"{container}: scores of {named(stored[1])}, not of {named(source)} of the manifest")
    return dict(sorted(fields.items()))


def write_curves(path, n: int, names, curves) -> None:
    """Write the curves container of ``names``, each over ``n`` units, from the iterable ``curves`` of their values."""
    _write_container(path, MAGIC_CURVES, CURVES_VERSION, {"n": n, "curves": {k: [n] for k in names}}, curves)


def read_curves(path) -> Dict[str, np.ndarray]:
    """The curves ``{name: values}`` of the curves container ``path``, each at ``rejection.coverages(n)``."""
    def shapes_of(index):
        if (set(index) != {"n", "curves"} or type(index["n"]) is not int or not isinstance(index["curves"], dict)
                or any(shape != [index["n"]] for shape in index["curves"].values())):
            raise ValueError("it must hold an int n and an object of curve shapes, each [n]")
        return index["curves"]

    return _read_container(path, MAGIC_CURVES, CURVES_VERSION, "curves", shapes_of)
