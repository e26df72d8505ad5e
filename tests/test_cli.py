"""End-to-end command-line pipeline tests, run in-process via main()."""
import ast
import builtins
import collections
import dataclasses
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial.distance
from scipy.sparse.linalg import ArpackNoConvergence

import abstain
from abstain import baselines, dataio, density, hybrid, rejection, report
from abstain.cli import FITTERS, METHODS, _load_fitted, fit_models, main, resolve_methods, score_split
from abstain.dataio import (FormatError, VersionError, load_manifest, load_models, load_splits,
                            parse_matrix, read_curves, read_scores, save_models, scores_container,
                            sha256_file, split_source, write_curve_csv, write_matrix, write_scores)
from abstain.synth import SynthSpec, generate
from oracles import EMPTY_LABEL, csv_read_scores

MC_SPEC = SynthSpec(seed=5, n_train=120, n_validation=60, n_test=60,
                    n_classes=3, dim=4, mc_passes=4)
ML_SPEC = SynthSpec(seed=5, task="multilabel", n_labels=5, n_train=120,
                    n_validation=60, n_test=60, n_classes=3, dim=4, mc_passes=4)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def child_env() -> dict:
    """This process's environment, with the tested sources first on PYTHONPATH."""
    src = str(Path(abstain.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="module")
def mc_dir(tmp_path_factory):
    """Generated multiclass dataset plus fitted models, shared read-only."""
    root = tmp_path_factory.mktemp("mc")
    spec = root / "spec.json"
    spec.write_text(MC_SPEC.to_json())
    assert run("gen-synth", "--spec", spec, "--out", root / "ds") == 0
    assert run("fit", "--manifest", root / "ds" / "manifest.json",
               "--out", root / "models.bin") == 0
    return root


@pytest.fixture(scope="module")
def ml_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ml")
    spec = root / "spec.json"
    spec.write_text(ML_SPEC.to_json())
    assert run("gen-synth", "--spec", spec, "--out", root / "ds") == 0
    assert run("fit", "--manifest", root / "ds" / "manifest.json",
               "--out", root / "models.bin") == 0
    return root


class TestGenSynth:
    def test_reruns_are_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(MC_SPEC.to_json())
        assert run("gen-synth", "--spec", spec, "--out", tmp_path / "a") == 0
        assert run("gen-synth", "--spec", spec, "--out", tmp_path / "b") == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("spec", [MC_SPEC, ML_SPEC], ids=["multiclass", "multilabel"])
    def test_load_splits_returns_the_generated_labels_and_passes(self, spec, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        assert run("gen-synth", "--spec", spec_path, "--out", tmp_path / "ds") == 0
        manifest = tmp_path / "ds" / "manifest.json"
        wanted = dict.fromkeys(("train", "validation", "test"), ("embeddings", "mc"))
        loaded = load_splits(load_manifest(manifest), tmp_path / "ds", wanted)
        for role, split in generate(spec).splits.items():
            assert loaded[role].labels.dtype == split.labels.dtype
            assert np.array_equal(loaded[role].labels, split.labels)
            assert loaded[role].mc.shape == split.mc.shape
            assert np.array_equal(loaded[role].mc, split.mc.astype("<f4"))

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec5 = tmp_path / "s5.json"
        spec5.write_text(MC_SPEC.to_json())
        spec9 = tmp_path / "s9.json"
        spec9.write_text(SynthSpec(**{**json.loads(MC_SPEC.to_json()), "seed": 9}).to_json())
        assert run("gen-synth", "--spec", spec5, "--seed", 9, "--out", tmp_path / "ov") == 0
        assert run("gen-synth", "--spec", spec9, "--out", tmp_path / "direct") == 0
        a = json.loads((tmp_path / "ov" / "manifest.json").read_text())
        b = json.loads((tmp_path / "direct" / "manifest.json").read_text())
        assert a["checksums"] == b["checksums"]
        assert a["seed"] == 9

    @pytest.mark.parametrize("text, named", [
        ('{"n_trian": 300}', "'n_trian'"),
        ("[1, 2]", "JSON object"),
        ('{"dim": "8"}', "'dim'"),
        ('{"seed": true}', "'seed'"),
        ('{"mc_noise": NaN}', "mc_noise"),
        ('{"spacing": Infinity}', "spacing"),
    ])
    def test_bad_spec_is_data_error_naming_the_field(self, tmp_path, capsys, text, named):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert run("gen-synth", "--spec", spec, "--out", tmp_path / "ds") == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("field", ["spacing", "mc_noise"])
    def test_float_field_given_an_int_too_large_for_a_float_is_data_error(self, field, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train": 60, "n_validation": 30, "n_test": 40, field: int("1" * 400)}))
        assert run("gen-synth", "--spec", spec, "--out", tmp_path / "ds") == 2
        assert capsys.readouterr().err == (f"data error: spec field {field!r} must be a float, "
                                           "not an int too large for one\n")
        assert not (tmp_path / "ds").exists()


class TestFit:
    def test_default_methods_follow_task(self, mc_dir, ml_dir):
        hybrids = {f"{variant}-{novelty}" for variant in ("huq", "huq2") for novelty in ("md", "rde", "ddu")}
        assert set(load_models(mc_dir / "models.bin")) == {"md", "rde", "ddu", "nuq", "beta"} | hybrids
        assert set(load_models(ml_dir / "models.bin")) == {"md", "rde", "ddu", "nuq"}

    def test_hybrid_without_its_novelty_model_is_usage_error(self, mc_dir, tmp_path, capsys):
        out = tmp_path / "m.bin"
        code = run("fit", "--manifest", mc_dir / "ds" / "manifest.json", "--methods", "beta,huq-md", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == "usage error: huq-md is fitted on the scores of md; add md to --methods\n"
        assert not out.exists()

    def test_hybrid_is_fitted_after_its_novelty_model_and_saved_in_request_order(self, mc_dir, tmp_path):
        """A hybrid listed before its novelty model is fitted after it, to the
        config of the default fit, and the container keeps the requested order."""
        out = tmp_path / "m.bin"
        assert run("fit", "--manifest", mc_dir / "ds" / "manifest.json", "--methods", "huq2-ddu,ddu", "--out", out) == 0
        got, want = load_models(out), load_models(mc_dir / "models.bin")
        assert list(got) == ["huq2-ddu", "ddu"]
        for key in got:
            assert {k: v.tobytes() for k, v in got[key].items()} == {k: v.tobytes() for k, v in want[key].items()}

    def test_hybrid_config_holds_the_objective_of_its_calibration(self, mc_dir):
        """Each stored config holds the validation tables and the smallest
        objective of its grid, found again from the fitted novelty model."""
        manifest = load_manifest(mc_dir / "ds" / "manifest.json")
        models = _load_fitted(mc_dir / "models.bin", manifest)
        val = load_splits(manifest, mc_dir / "ds", {"validation": ("embeddings",)})["validation"]
        for key, method in METHODS.items():
            if method.hybrid:
                variant, novelty = method.hybrid
                u_a, u_e = score_split(["SR", novelty], val, models).values()
                objectives, _ = hybrid._calibration_grid(val, u_a, u_e, variant)
                config = models[method.model]
                assert config.objective == objectives.min(), key
                assert config.table_ambiguity.tobytes() == np.sort(u_a).tobytes(), key
                assert config.table_novelty.tobytes() == np.sort(u_e).tobytes(), key

    def test_help_names_exactly_the_fitters(self, capsys, monkeypatch):
        # the parser is built without the registry, so it spells the names out;
        # wide enough that argparse does not wrap the list at a hyphen
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        names = re.search(r"comma list from (\S+) ", " ".join(capsys.readouterr().out.split())).group(1)
        assert names == ",".join(FITTERS)

    def test_subset_of_methods(self, mc_dir, tmp_path):
        out = tmp_path / "m.bin"
        assert run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "md,ddu", "--out", out) == 0
        assert set(load_models(out)) == {"md", "ddu"}

    def test_repeated_method_is_fitted_once(self, mc_dir, tmp_path, monkeypatch):
        calls = []
        fit_md = density.fit_md
        monkeypatch.setattr(density, "fit_md", lambda split: calls.append(1) or fit_md(split))
        out = tmp_path / "m.bin"
        assert run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "md,MD, md", "--out", out) == 0
        assert len(calls) == 1
        assert set(load_models(out)) == {"md"}

    def test_unknown_method_is_usage_error(self, mc_dir, tmp_path, capsys):
        code = run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "kde", "--out", tmp_path / "m.bin")
        assert code == 1
        assert "unknown method 'kde' for task multiclass" in capsys.readouterr().err

    def test_beta_on_multilabel_is_usage_error(self, ml_dir, tmp_path, capsys):
        code = run("fit", "--manifest", ml_dir / "ds" / "manifest.json",
                   "--methods", "beta", "--out", tmp_path / "m.bin")
        assert code == 1
        assert "multiclass manifest" in capsys.readouterr().err

    def test_seed_option_is_usage_error(self, mc_dir, tmp_path, capsys):
        # no fitter takes a seed: FastMCD's restarts draw from one fixed stream
        code = run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--seed", 1, "--out", tmp_path / "m.bin")
        assert code == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_corrupted_dataset_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(MC_SPEC.to_json())
        assert run("gen-synth", "--spec", spec, "--out", tmp_path / "ds") == 0
        victim = tmp_path / "ds" / "train_probs.bin"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        code = run("fit", "--manifest", tmp_path / "ds" / "manifest.json",
                   "--out", tmp_path / "m.bin")
        assert code == 2
        assert "checksum-mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, value, named", [
        (MC_SPEC, None, "train labels: rows of shape (0,), manifest task gives ()"),
        (ML_SPEC, 300, "row 1 holds 300.0, not an integer in 0..1"),
        (MC_SPEC, 2.0 ** 63, "row 1 holds 9.223372036854776e+18, not an integer in 0..2"),
        (MC_SPEC, np.nan, "row 1 holds nan, not an integer in 0..2"),
        (MC_SPEC, 2.5, "row 1 holds 2.5, not an integer in 0..2"),
        (ML_SPEC, 0.5, "row 1 holds 0.5, not an integer in 0..1"),
        (MC_SPEC, np.inf, "row 1 holds inf, not an integer in 0..2"),
        (MC_SPEC, 3, "train labels: row 1 holds 3.0, not an integer in 0..2"),
        (MC_SPEC, -1, "row 1 holds -1.0, not an integer in 0..2"),
        (ML_SPEC, 2, "train labels: row 1 holds 2.0, not an integer in 0..1"),
        (ML_SPEC, np.nan, "row 1 holds nan, not an integer in 0..1"),
    ], ids=["short-multiclass-row", "multilabel-value-300", "multiclass-value-beyond-int64",
            "multiclass-value-not-integer", "multiclass-value-float", "multilabel-value-float",
            "multiclass-value-inf", "multiclass-value-n_classes", "multiclass-value-negative",
            "multilabel-value-2", "multilabel-value-nan"])
    def test_malformed_label_rows_are_format_errors(self, spec, value, named, tmp_path, capsys):
        """A label file whose rows hold no class id, or whose row 1 holds a
        value that is not a class id below n_classes (3) or a 0/1 bit."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        assert run("gen-synth", "--spec", spec_path, "--out", tmp_path / "ds") == 0
        victim = tmp_path / "ds" / "train_labels.bin"
        labels = parse_matrix(victim.read_bytes(), victim).copy()
        if value is None:
            labels = labels[:, :0]
        else:
            labels[1, -1] = value
        manifest = tmp_path / "ds" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["checksums"][victim.name] = write_matrix(victim, labels)
        manifest.write_text(json.dumps(payload))
        code = run("fit", "--manifest", manifest, "--out", tmp_path / "m.bin")
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("data error [bad-format]") and named in err

    def test_one_pairwise_distance_median_per_train_split(self, mc_dir, tmp_path, monkeypatch):
        # RDE's width and NUQ's bandwidth both come from the train split's median
        calls = []
        pdist = scipy.spatial.distance.pdist
        monkeypatch.setattr(scipy.spatial.distance, "pdist", lambda X: calls.append(len(X)) or pdist(X))
        assert run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "md,rde,ddu,nuq,beta", "--out", tmp_path / "m.bin") == 0
        assert calls == [MC_SPEC.n_train]

    def test_rde_solver_failure_is_data_error(self, mc_dir, tmp_path, capsys, monkeypatch):
        def no_convergence(A, k, **kw):
            raise ArpackNoConvergence("No convergence (1200 iterations, 3/8 eigenvectors converged)",
                                      np.zeros(0), np.zeros((A.shape[0], 0)))

        monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
        code = run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "rde", "--out", tmp_path / "m.bin")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: RDE kernel eigensolve failed") and "No convergence" in err


@pytest.mark.parametrize("command", ["fit", "score"])
def test_fit_and_score_read_method_lists_alike(command, mc_dir, ml_dir, tmp_path, capsys):
    """One function resolves ``--methods`` for both commands, over FITTERS
    for fit and METHODS for score: registry names in any case, duplicates
    and blank entries dropped, or "all", the default, for every method of
    the manifest's task.  An unknown name, and a name of the other task,
    is a usage error worded alike in both."""
    registry = FITTERS if command == "fit" else METHODS
    for root, task, other in ((mc_dir, "multiclass", "multilabel"), (ml_dir, "multilabel", "multiclass")):
        available = [name for name, entry in registry.items() if task in entry.tasks]
        first, second = available[:2]
        out = tmp_path / "out"
        argv = [command, "--manifest", root / "ds" / "manifest.json", "--out", out]
        if command == "score":
            argv += ["--models", root / "models.bin"]
        for methods, want in ((None, available), (" ALL ", available),
                              (f"{first.upper()}, ,{second},{first.lower()},", [first, second])):
            assert run(*argv, *(["--methods", methods] if methods else [])) == 0
            got = list(load_models(out)) if command == "fit" else list(dict.fromkeys(csv_read_scores(out)[2]))
            assert got == want, (task, methods)
        assert run(*argv, "--methods", "nosuch") == 1
        assert capsys.readouterr().err == (f"usage error: unknown method 'nosuch' for task {task}; "
                                           f"available: {', '.join(available)}\n")
        for name in (name for name, entry in registry.items() if task not in entry.tasks):
            assert run(*argv, "--methods", f"{first},{name.lower()}") == 1
            assert capsys.readouterr().err == f"usage error: method {name} needs a {other} manifest\n"


# (case, edit of the parsed JSON object, message with {what} = spec or manifest)
RECORD_CASES = [
    ("non-object", lambda raw: [1, 2], "{what} must be a JSON object of {cls} fields, not list"),
    ("unknown-field", lambda raw: {**raw, "extra": 1}, "unknown {what} field 'extra'"),
    ("ill-typed-field", lambda raw: {**raw, "dim": "4"}, "{what} field 'dim' must be int, not str"),
    ("true-for-int", lambda raw: {**raw, "seed": True}, "{what} field 'seed' must be int, not bool"),
    ("missing-field", lambda raw: {k: v for k, v in raw.items() if k != "task"},
     "missing {what} field 'task'"),
]


@pytest.mark.parametrize("case, edit, message", RECORD_CASES, ids=[c[0] for c in RECORD_CASES])
@pytest.mark.parametrize("what", ["spec", "manifest"])
def test_json_record_loader_names_the_bad_field(what, case, edit, message, mc_dir, tmp_path, capsys):
    """spec.json and manifest.json go through one field-checked loader: a
    ValueError names the field, and the manifest's is a bad-format data error."""
    path = tmp_path / f"{what}.json"
    if what == "spec":
        path.write_text(json.dumps(edit(json.loads(MC_SPEC.to_json()))))
        if case == "missing-field":   # every spec field has a default
            assert SynthSpec.from_json(path.read_text()).task == SynthSpec.task
            return
        expected = message.format(what=what, cls="SynthSpec")
        with pytest.raises(ValueError, match=re.escape(expected)):
            SynthSpec.from_json(path.read_text())
        code = run("gen-synth", "--spec", path, "--out", tmp_path / "ds")
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("data error: ") and expected in err
        return
    path.write_text(json.dumps(edit(json.loads((mc_dir / "ds" / "manifest.json").read_text()))))
    expected = message.format(what=what, cls="DatasetManifest")
    with pytest.raises(FormatError, match=re.escape(expected)):
        load_manifest(path)
    code = run("score", "--manifest", path, "--methods", "SR", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]") and expected in err


@pytest.mark.parametrize("edit, message", [
    (lambda entry: 3, "manifest field 'splits'['test'] must be a JSON object of SplitFiles fields"),
    (lambda entry: {**entry, "n": "60"}, "manifest field 'splits'['test'] field 'n' must be int"),
    (lambda entry: {**entry, "probs": 7}, "manifest field 'splits'['test'] field 'probs' must be str"),
    (lambda entry: {k: v for k, v in entry.items() if k != "mc"},
     "missing manifest field 'splits'['test'] field 'mc'"),
], ids=["not-an-object", "n-not-int", "file-name-not-str", "file-name-missing"])
def test_malformed_split_entry_is_format_error(edit, message, mc_dir, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(mc_dir / "ds", ds)
    manifest = ds / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["splits"]["test"] = edit(payload["splits"]["test"])
    manifest.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=re.escape(message)):
        load_splits(load_manifest(manifest), ds, {"test": ("embeddings", "mc")})
    code = run("score", "--manifest", manifest, "--methods", "SR", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]") and message in err


def test_split_file_missing_from_checksums_is_refused(mc_dir, tmp_path, capsys):
    """A split file the manifest does not checksum is never read: dropping
    test_probs.bin from the checksums and editing it is a bad-format error."""
    ds = tmp_path / "ds"
    shutil.copytree(mc_dir / "ds", ds)
    manifest = ds / "manifest.json"
    payload = json.loads(manifest.read_text())
    del payload["checksums"]["test_probs.bin"]
    manifest.write_text(json.dumps(payload))
    victim = ds / "test_probs.bin"
    raw = bytearray(victim.read_bytes())
    raw[-4:] = bytes(4)   # last probability of the last row set to 0.0
    victim.write_bytes(bytes(raw))
    code = run("score", "--manifest", manifest, "--methods", "SR", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]")
    assert "test split file 'test_probs.bin' is not listed in checksums" in err
    assert not (tmp_path / "s.csv").exists()


def _copy_with_manifest_fields(src, tmp_path, **fields):
    """A copy of the dataset ``src`` whose manifest sets ``fields``."""
    ds = tmp_path / "ds"
    shutil.copytree(src, ds)
    manifest = ds / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **fields}))
    return manifest


@pytest.mark.parametrize("version", [1, 2, 5, 6, 7])
def test_stale_models_container_is_a_data_error(version, mc_dir, tmp_path, capsys):
    # version 1 held MD/RDE/DDU precisions where later ones hold whiteners;
    # version 2 RDE and NUQ models held fields their scorers never read;
    # version 5 Beta models lacked the betaln constants that score reads;
    # version 6 carried no checksum of its index and fields;
    # version 7 held no hybrid configs, which score then fitted itself
    stale = tmp_path / "models.bin"
    raw = bytearray((mc_dir / "models.bin").read_bytes())
    raw[8:12] = struct.pack("<I", version)
    stale.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_models(stale)
    code = run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", stale,
               "--methods", "MD", "--out", tmp_path / "s.csv")
    assert code == 2 and capsys.readouterr().err.startswith("data error [bad-version]")


@pytest.mark.parametrize("argv", [
    "fit", "score --models MODELS --methods SR", "evaluate --scores SCORES",
], ids=["fit", "score", "evaluate"])
def test_dataset_of_format_version_1_is_refused(argv, mc_dir, evaluated, tmp_path, capsys):
    # version 1 stored the stochastic passes in their own tensor format and
    # the labels as CSV; such a directory must be generated again
    manifest = _copy_with_manifest_fields(mc_dir / "ds", tmp_path, format_version=1)
    paths = {"MODELS": mc_dir / "models.bin", "SCORES": evaluated[1]}
    code = run(*[paths.get(a, a) for a in argv.split()], "--manifest", manifest, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-version]") and "unsupported manifest version 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, methods, named", [
    ({"n_classes": 99}, "SR", "test probs: rows of shape (3,), manifest n_classes gives (99,)"),
    ({"dim": 1}, "MD", "test embeddings: rows of shape (4,), manifest dim gives (1,)"),
    ({"n_passes": 2}, "SMP", "test mc: rows of shape (12,), manifest (n_passes, n_classes) gives (2, 3)"),
], ids=["n_classes", "dim", "n_passes"])
def test_manifest_fields_must_match_the_files(fields, methods, named, mc_dir, tmp_path, capsys):
    manifest = _copy_with_manifest_fields(mc_dir / "ds", tmp_path, **fields)
    code = run("score", "--manifest", manifest, "--models", mc_dir / "models.bin",
               "--methods", methods, "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]") and named in err


def test_multilabel_label_width_must_match_n_classes(ml_dir, tmp_path, capsys):
    ds = tmp_path / "ds"
    manifest = _copy_with_manifest_fields(ml_dir / "ds", tmp_path)
    victim = ds / "test_labels.bin"
    payload = json.loads(manifest.read_text())
    payload["checksums"][victim.name] = write_matrix(victim, np.zeros((60, 4)))
    manifest.write_text(json.dumps(payload))
    code = run("score", "--manifest", manifest, "--methods", "MP", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and "test labels: rows of shape (4,), manifest n_classes gives (5,)" in err


@pytest.mark.parametrize("argv", ["evaluate --scores SCORES", "score --models MODELS --methods SR"],
                         ids=["evaluate", "score"])
@pytest.mark.parametrize("row, named", [
    ((np.nan, 7.0, 0.0), "test probs: non-finite probability entry"),
    ((7.0, 0.0, 0.0), "test probs: probability entry outside [0, 1]"),
], ids=["nan", "seven"])
def test_split_with_bad_probabilities_is_refused(argv, row, named, mc_dir, evaluated, tmp_path, capsys):
    """Test probabilities that are not a softmax row are a bad-format error
    naming the split and the field, whichever command reads them."""
    manifest = _copy_with_manifest_fields(mc_dir / "ds", tmp_path)
    victim = manifest.parent / "test_probs.bin"
    probs = parse_matrix(victim.read_bytes(), victim).copy()
    probs[1] = row
    payload = json.loads(manifest.read_text())
    payload["checksums"][victim.name] = write_matrix(victim, probs)
    manifest.write_text(json.dumps(payload))
    paths = {"MODELS": mc_dir / "models.bin", "SCORES": evaluated[1]}
    code = run(*[paths.get(a, a) for a in argv.split()], "--manifest", manifest, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, read", [
    ("score --models MODELS --methods SR", {"test_probs.bin", "test_labels.bin"}),
    ("score --models MODELS --methods SR,SMP", {"test_probs.bin", "test_labels.bin", "test_mc.bin"}),
    ("score --models MODELS --methods MD,HUQ-DDU",
     {"test_probs.bin", "test_labels.bin", "test_embeddings.bin"}),
    ("fit --methods md,beta",
     {"train_probs.bin", "train_labels.bin", "train_embeddings.bin", "validation_probs.bin",
      "validation_labels.bin", "validation_embeddings.bin"}),
    ("evaluate --scores SCORES", {"test_probs.bin", "test_labels.bin"}),
], ids=["score-SR", "score-SMP", "score-hybrid", "fit", "evaluate"])
def test_commands_read_only_the_split_files_they_use(argv, read, mc_dir, evaluated, tmp_path, monkeypatch):
    opened = set()

    def traced(raw, path, _parse=dataio.parse_matrix):
        opened.add(Path(path).name)
        return _parse(raw, path)

    monkeypatch.setattr(dataio, "parse_matrix", traced)
    paths = {"MODELS": mc_dir / "models.bin", "SCORES": evaluated[1]}
    assert run(*[paths.get(a, a) for a in argv.split()], "--manifest", mc_dir / "ds" / "manifest.json",
               "--out", tmp_path / "out") == 0
    assert opened == read


def _spy_opens(monkeypatch) -> collections.Counter:
    """Counter of the resolved paths given to open(), which Path.read_bytes reaches as io.open()."""
    opened = collections.Counter()
    real = io.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[Path(file).resolve()] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    return opened


@pytest.mark.parametrize("argv", [
    "fit",
    "score --models MODELS --methods MD,HUQ-DDU",
    "evaluate --scores SCORES",
    "score --models MODELS --methods MD,HUQ-DDU --split validation --calibrate validation",
], ids=["fit", "score-hybrid", "evaluate", "score-calibrating-on-the-scored-split"])
def test_each_listed_file_is_opened_once(argv, mc_dir, evaluated, tmp_path, monkeypatch):
    """A command hashes every file the manifest lists and parses the ones it
    uses from the bytes it hashed: each file is opened once."""
    ds = mc_dir / "ds"
    listed = {(ds / name).resolve() for name in load_manifest(ds / "manifest.json").checksums}
    opened = _spy_opens(monkeypatch)
    paths = {"MODELS": mc_dir / "models.bin", "SCORES": evaluated[1]}
    assert run(*[paths.get(a, a) for a in argv.split()], "--manifest", ds / "manifest.json",
               "--out", tmp_path / "out") == 0
    assert {path: opened[path] for path in listed} == dict.fromkeys(listed, 1)


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "one-process"])
def test_score_opens_its_table_once_to_write_it(forked, mc_dir, tmp_path, monkeypatch, request):
    """score hashes its table as it writes it, the forked half as it appends
    it: it opens the table once, for writing, and never reads it back."""
    monkeypatch.setattr(dataio, "FORK_ROWS", 1)
    forks = request.getfixturevalue("forks") if forked else []
    if not forked:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    table, modes, real = tmp_path / "s.csv", [], io.open

    def spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == table.resolve():
            modes.append(mode)
        return real(file, mode, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", spy)
        m.setattr(io, "open", spy)
        assert run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", mc_dir / "models.bin",
                   "--methods", "SR,MD", "--out", table) == 0
    assert modes == ["wb"] and len(forks) == forked
    raw = scores_container(table).read_bytes()
    assert json.loads(raw[52:52 + struct.unpack_from("<8sIQ", raw)[2]])["table"] == sha256_file(table)


@pytest.mark.parametrize("where", ["checksums-relative", "checksums-absolute", "split-file"])
def test_file_names_leaving_the_dataset_directory_are_refused(where, mc_dir, tmp_path, monkeypatch,
                                                              capsys):
    ds = tmp_path / "ds"
    shutil.copytree(mc_dir / "ds", ds)
    outside = tmp_path / "outside.bin"
    shutil.copy(ds / "test_probs.bin", outside)
    name = str(outside) if where == "checksums-absolute" else os.path.relpath(outside, ds)
    manifest = ds / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["checksums"][name] = sha256_file(outside)
    if where == "split-file":
        payload["splits"]["test"]["probs"] = name
    manifest.write_text(json.dumps(payload))
    opened = _spy_opens(monkeypatch)
    code = run("score", "--manifest", manifest, "--methods", "SR", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]")
    assert f"file name {name!r} is not a plain name" in err
    assert outside.resolve() not in opened


def test_symlinked_dataset_file_is_refused_unopened(mc_dir, tmp_path, monkeypatch, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(mc_dir / "ds", ds)
    outside = tmp_path / "outside.txt"
    outside.write_text("not part of the dataset\n")
    (ds / "link.txt").symlink_to(Path("..") / "outside.txt")
    manifest = ds / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["checksums"]["link.txt"] = sha256_file(outside)
    manifest.write_text(json.dumps(payload))
    opened = _spy_opens(monkeypatch)
    code = run("score", "--manifest", manifest, "--methods", "SR", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]") and "link.txt" in err
    assert "symbolic link" in err
    assert outside.resolve() not in opened
    assert not (tmp_path / "s.csv").exists()


def test_truncated_models_container_is_a_data_error(mc_dir, tmp_path, capsys):
    broken = tmp_path / "models.bin"
    broken.write_bytes((mc_dir / "models.bin").read_bytes()[:600])
    with pytest.raises(FormatError, match=re.escape(f"{broken}: malformed models index")):
        load_models(broken)
    code = run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", broken,
               "--methods", "MD", "--out", tmp_path / "s.csv")
    assert code == 2 and capsys.readouterr().err.startswith("data error [bad-format]")
    assert not (tmp_path / "s.csv").exists()


class _WritesMarker:
    """Unpickling this runs ``open(path, "w")``, which creates ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def _container(index, payload=b"", version=dataio.MODELS_VERSION, size=None) -> bytes:
    """Container bytes: the header, with the SHA-256 of what follows it,
    ``index`` (JSON-encoded unless bytes), then ``payload``; ``size``
    overrides the index size in the header."""
    raw = index if isinstance(index, bytes) else json.dumps(index).encode()
    header = struct.pack("<8sIQ32s", dataio.MAGIC_MODELS, version, len(raw) if size is None else size,
                         hashlib.sha256(raw + payload).digest())
    return header + raw + payload


MD_INDEX = {"md": {"centroids": [3, 4], "whitener": [4, 4]}}
MD_BYTES = np.zeros(28).tobytes()


@pytest.mark.parametrize("crafted, code", [
    (_container(b"not json {", MD_BYTES), "bad-format"),
    (_container(b"\xff\xfe\x00", MD_BYTES), "bad-format"),
    (_container(b"[" * 100_000 + b"]" * 100_000), "bad-format"),
    (_container([["md", [3, 4]]], MD_BYTES), "bad-format"),
    (_container({"md": 3}, MD_BYTES), "bad-format"),
    (_container({"md": [3, 4]}, MD_BYTES), "bad-format"),
    (_container({"md": {"centroids": [-3, -4], "whitener": [4, 4]}}, MD_BYTES), "bad-format"),
    (_container({"md": {"centroids": [True, 4], "whitener": [4, 4]}}, MD_BYTES), "bad-format"),
    (_container({"md": {"centroids": [3.0, 4], "whitener": [4, 4]}}, MD_BYTES), "bad-format"),
    (_container({"md": {"centroids": ["3", 4], "whitener": [4, 4]}}, MD_BYTES), "bad-format"),
    (_container({"md": {"centroids": 12, "whitener": [4, 4]}}, MD_BYTES), "bad-format"),
    (_container(MD_INDEX, MD_BYTES[:-8]), "bad-format"),                  # sizes run past the end
    (_container(MD_INDEX, MD_BYTES + b"\0" * 8), "bad-format"),           # and end short of it
    (_container({"md": {"centroids": [2 ** 40, 2 ** 40]}}, MD_BYTES), "bad-format"),
    (_container({"md": {"centroids": [0, 2 ** 70]}}), "bad-format"),
    (_container({"md": {"centroids": [1] * 65}}, b"\0" * 8), "bad-format"),
    (_container(MD_INDEX, MD_BYTES, size=2 ** 63), "bad-format"),          # index runs past the end
    (_container({"kde": {"centroids": [3, 4], "whitener": [4, 4]}}, MD_BYTES), "bad-format"),
    (_container({"md": {"whitener": [4, 4], "centroids": [3, 4]}}, MD_BYTES), "bad-format"),
    (_container({"md": {"centroids": [3, 4]}}, MD_BYTES[:12 * 8]), "bad-format"),
    (_container(MD_INDEX, MD_BYTES, version=4), "bad-version"),
], ids=["not-json", "not-utf8", "nested-deep", "list", "md-int", "shapes-not-object", "negative",
        "bool", "float", "string", "shape-not-list", "past-end", "short-of-end", "huge-shape",
        "huge-empty-shape", "too-many-dims", "huge-index-size", "unknown-key", "field-order",
        "missing-field", "version-4"])
def test_crafted_models_container_is_a_data_error(crafted, code, mc_dir, tmp_path, capsys):
    path = tmp_path / "models.bin"
    path.write_bytes(crafted)
    exit_code = run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", path,
                    "--methods", "MD", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert exit_code == 2 and err.startswith(f"data error [{code}]") and str(path) in err, err
    assert "Traceback" not in err and "MemoryError" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("version", [4, 6, dataio.MODELS_VERSION])
def test_pickled_models_container_runs_no_code(version, mc_dir, tmp_path, capsys):
    # a version 4 container held a pickle; under any version, stale or current, it must load no pickle
    marker, path = tmp_path / "marker", tmp_path / "models.bin"
    path.write_bytes(struct.pack("<8sI", dataio.MAGIC_MODELS, version)
                     + pickle.dumps({"md": _WritesMarker(marker)}, protocol=4))
    code = run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", path,
               "--methods", "MD", "--out", tmp_path / "s.csv")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error [bad-format]" if version == dataio.MODELS_VERSION
                                        else "data error [bad-version]")
    assert not marker.exists()


def _with_field(models, key, name, value):
    """The fields of ``models``, with the ``key`` model's field ``name``
    set to ``value`` as a crafted container holds it."""
    return {**models, key: {**models[key], name: value}}


def test_model_of_the_wrong_shape_is_a_data_error_naming_model_and_field(mc_dir, tmp_path, capsys):
    """A model whose arrays do not fit the manifest, or each other, or hold
    NaN or ±inf, or that fails its own checks, is refused before any
    score: MD's scorer would raise an IndexError, and a negative Beta
    prior or a NaN whitener would score NaN."""
    good = load_models(mc_dir / "models.bin")
    rde, nuq = good["rde"], good["nuq"]
    cases = [
        ({"md": {"centroids": np.zeros(3), "whitener": 3.0}}, "MD", "md model field 'centroids'"),
        (_with_field(good, "md", "whitener", np.eye(5)), "MD", "md model field 'whitener'"),
        (_with_field(good, "ddu", "log_priors", np.zeros(2)), "DDU", "ddu model field 'log_priors'"),
        (_with_field(good, "rde", "dual_vectors", rde["dual_vectors"][:, 1:]), "RDE",
         "rde model field 'centroids'"),
        (_with_field(good, "rde", "gamma", np.ones(2)), "RDE", "rde model field 'gamma'"),
        (_with_field(good, "nuq", "label_matrix", nuq["label_matrix"][1:]), "NUQ",
         "nuq model field 'label_matrix'"),
        (_with_field(good, "nuq", "embeddings", nuq["embeddings"][:, None]), "NUQ",
         "nuq model field 'embeddings'"),
        (_with_field(good, "beta", "prior_correct", np.ones(1)), "Beta", "beta model field 'prior_correct'"),
        (_with_field(good, "beta", "prior_correct", -1.0), "Beta", "beta model: priors must sum to 1"),
        (_with_field(good, "beta", "alpha_correct", -2.0), "Beta",
         "beta model: alpha_correct must be positive"),
        # one shared component, as a multilabel fit holds, where the manifest has three classes
        (_with_field(good, "md", "centroids", good["md"]["centroids"][:1]), "MD", "md model field 'centroids'"),
        # the right shapes, but MD would score a NaN column
        (_with_field(good, "md", "whitener", np.full_like(good["md"]["whitener"], np.nan)), "MD",
         "md model field 'whitener' holds NaN or infinite values"),
        (_with_field(good, "md", "centroids", np.full_like(good["md"]["centroids"], np.inf)), "MD",
         "md model field 'centroids' holds NaN or infinite values"),
    ]
    for i, (models, method, named) in enumerate(cases):
        path = tmp_path / f"models{i}.bin"
        save_models(path, models)
        code = run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", path,
                   "--methods", method, "--out", tmp_path / "s.csv")
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("data error [bad-format]"), (named, err)
        assert f"{path}: {named}" in err, err
        assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
def test_models_round_trip_through_the_container_scores_the_same_bits(task, mc_dir, ml_dir, tmp_path):
    root = mc_dir if task == "multiclass" else ml_dir
    manifest = load_manifest(root / "ds" / "manifest.json")
    splits = load_splits(manifest, root / "ds", dict.fromkeys(("train", "validation", "test"),
                                                              ("embeddings", "mc")))
    keys = [key for key, fitter in FITTERS.items() if task in fitter.tasks]
    fitted = fit_models(keys, splits)
    for tag in ("a", "b"):
        save_models(tmp_path / f"{tag}.bin", {key: vars(model) for key, model in fitted.items()})
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() == (root / "models.bin").read_bytes()
    loaded = _load_fitted(tmp_path / "a.bin", manifest)
    assert list(loaded) == keys
    for key, model in loaded.items():
        assert type(model) is FITTERS[key].model
        # the class declares every field the fitted model holds, in order,
        # and the dimension letters of each array field
        schema = [(f.name, f.metadata.get("dims")) for f in dataclasses.fields(model)]
        assert [name for name, _ in schema] == list(vars(fitted[key])), key
        for name, dims in schema:
            value, back = getattr(fitted[key], name), getattr(model, name)
            assert isinstance(value, np.ndarray) == (dims is not None), (key, name)
            assert np.ndim(value) == len((dims or "").split()), (key, name)
            assert type(back) is (np.ndarray if dims else np.float64), (key, name)
            assert back.tobytes() == np.asarray(value, dtype=np.float64).tobytes(), (key, name)
    names = resolve_methods("all", task)
    want = score_split(names, splits["test"], fitted)
    got = score_split(names, splits["test"], loaded)
    assert list(got) == names
    for name in names:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.filterwarnings("ignore:overflow encountered in scalar power")
def test_loaded_nuq_model_still_scores_inf_at_the_paper_width(tmp_path):
    # at d=768 the kernel constant bandwidth**d overflows; a loaded
    # np.float64 bandwidth gives inf, as the fitted one does
    data = generate(SynthSpec(seed=7, n_train=120, n_validation=60, n_test=60, dim=768, mc_passes=2))
    save_models(tmp_path / "m.bin", {"nuq": vars(density.fit_nuq(data.splits["train"]))})
    model = density.NuqModel(**load_models(tmp_path / "m.bin")["nuq"])
    assert type(model.bandwidth) is np.float64
    with pytest.warns(RuntimeWarning, match="density underflow"):
        scores = density.score_nuq(data.splits["test"].embeddings, model)
    assert np.all(scores == np.inf)


FIT_AND_SCORE = """
import sys
import tracemalloc
from abstain.cli import FITTERS, _load_fitted, main, resolve_methods, score_split
manifest, out, methods = sys.argv[1:]
assert main(["fit", "--manifest", manifest, "--methods", methods.lower(), "--out", out + ".bin"]) == 0
assert main(["score", "--manifest", manifest, "--models", out + ".bin", "--methods", methods,
             "--out", out + ".csv"]) == 0
"""


class TestScore:
    def test_basic_methods_row_counts(self, mc_dir, tmp_path):
        out = tmp_path / "s.csv"
        assert run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--models", mc_dir / "models.bin", "--methods", "SR,Entropy,MD",
                   "--split", "test", "--out", out) == 0
        instance, label, method, _ = csv_read_scores(out)
        assert len(instance) == 3 * 60
        assert set(method) == {"SR", "Entropy", "MD"}
        assert (label == EMPTY_LABEL).all()

    def test_reruns_and_thread_count_leave_bytes_unchanged(self, mc_dir, tmp_path):
        args = ("score", "--manifest", mc_dir / "ds" / "manifest.json",
                "--models", mc_dir / "models.bin", "--methods", "SR,MD,NUQ,BALD")
        outputs = []
        for table in (tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"):
            assert run(*args, "--out", table) == 0
            outputs.append((table.read_bytes(), scores_container(table).read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_blas_thread_count_keeps_rejection_orders(self, tmp_path):
        """The shipped default spec at gen-synth seeds 7 (its own) and 11,
        generated, fitted and scored at 1 and at 2 BLAS threads, each count
        set before numpy loads in a fresh interpreter.  gen-synth writes
        byte-identical datasets, also for the multilabel task.  MD and DDU
        score bitwise alike, and every rejection order is kept.  RDE (Lanczos
        and symmetric BLAS products) and NUQ (a kernel-weight product) move in
        the last bits: at seed 7 by at most 1e-12 relative; seed 11 moves RDE
        by about 1.07e-12, so it is held to its orders alone.

        At the paper's embedding width, 768, on 200 train rows (50 per class,
        far fewer than the dimensions) and seeds 7 and 11, MD and DDU move by
        up to about 5e-10 relative and RDE by about 5e-12, and the rejection
        orders of all three are kept.  NUQ is left out there: it scores every
        row +inf at this width."""
        def gen_synth(name, *argv):
            for threads in (1, 2):
                subprocess.run([sys.executable, "-m", "abstain.cli", "gen-synth", *map(str, argv),
                                "--out", str(tmp_path / f"{name}-threads{threads}")],
                               check=True, capture_output=True,
                               env={**child_env(), "OPENBLAS_NUM_THREADS": str(threads)})
            manifests = [(tmp_path / f"{name}-threads{threads}" / "manifest.json") for threads in (1, 2)]
            assert manifests[0].read_bytes() == manifests[1].read_bytes(), name
            return manifests[0]

        spec = tmp_path / "multilabel.json"
        spec.write_text(SynthSpec(task="multilabel").to_json())
        gen_synth("multilabel", "--spec", spec)
        wide = tmp_path / "wide.json"
        wide.write_text(SynthSpec(dim=768, n_train=200, n_validation=100, n_test=200).to_json())
        for dim, seed in ((8, 7), (8, 11), (768, 7), (768, 11)):
            manifest = gen_synth(f"d{dim}-seed{seed}", "--seed", seed, *(["--spec", wide] if dim == 768 else []))
            test = load_manifest(manifest)
            methods = ["MD", "RDE", "DDU", "NUQ"] if dim == 8 else ["MD", "RDE", "DDU"]
            columns = []
            for threads in (1, 2):
                out = tmp_path / f"d{dim}-seed{seed}-threads{threads}"
                subprocess.run([sys.executable, "-c", FIT_AND_SCORE, str(manifest), str(out),
                                ",".join(methods)], check=True,
                               env={**child_env(), "OPENBLAS_NUM_THREADS": str(threads)})
                columns.append(read_scores(out.with_suffix(".csv"), "instance", test.splits["test"].n,
                                           test.n_classes, split_source(test, "test")))
            one, two = columns
            assert list(one) == list(two) == sorted(methods)
            for name in methods:
                if dim == 8 and name in ("MD", "DDU"):
                    assert one[name].tobytes() == two[name].tobytes(), (seed, name)
                if dim == 8 and seed == 7 and name in ("RDE", "NUQ"):
                    np.testing.assert_allclose(two[name], one[name], rtol=1e-12, atol=0, err_msg=name)
                assert np.array_equal(rejection.rejection_order(one[name]),
                                      rejection.rejection_order(two[name])), (dim, seed, name)

    def test_all_methods_with_hybrids(self, mc_dir, tmp_path):
        out = tmp_path / "all.csv"
        assert run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--models", mc_dir / "models.bin", "--methods", "all", "--out", out) == 0
        method = csv_read_scores(out)[2]
        methods = set(method)
        assert "HUQ2-MD" in methods and "HUQ-DDU" in methods and "Beta" in methods
        assert len(method) == len(methods) * 60

    @staticmethod
    def count_base_scores(monkeypatch):
        calls = {}
        for module, name in ((baselines, "score_sr"), (density, "score_md"), (density, "score_rde"),
                             (density, "score_ddu")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_density_score_computed_once_per_split(self, mc_dir, tmp_path, monkeypatch):
        calls = self.count_base_scores(monkeypatch)
        assert run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--models", mc_dir / "models.bin", "--methods", "all", "--out", tmp_path / "all.csv") == 0
        # once, on the scored split: the hybrids were calibrated by fit
        assert calls == {"score_sr": 1, "score_md": 1, "score_rde": 1, "score_ddu": 1}

    def test_fit_scores_the_validation_split_once_for_all_six_hybrids(self, mc_dir, tmp_path, monkeypatch):
        calls = self.count_base_scores(monkeypatch)
        assert run("fit", "--manifest", mc_dir / "ds" / "manifest.json", "--out", tmp_path / "m.bin") == 0
        assert calls == {"score_sr": 1, "score_md": 1, "score_rde": 1, "score_ddu": 1}
        assert (tmp_path / "m.bin").read_bytes() == (mc_dir / "models.bin").read_bytes()

    @pytest.mark.parametrize("task", ["multiclass", "multilabel"])
    def test_default_command_scores_every_method_of_the_task(self, task, mc_dir, ml_dir, tmp_path, monkeypatch):
        """`score --manifest M --models X --out S` scores every method of the
        task and loads the one split it scores: the hybrids' configs come
        from fit.  --calibrate validation, kept for existing command lines,
        changes no byte."""
        root = mc_dir if task == "multiclass" else ml_dir
        argv = ["score", "--manifest", root / "ds" / "manifest.json", "--models", root / "models.bin"]
        loaded, load_splits = [], dataio.load_splits
        monkeypatch.setattr(dataio, "load_splits", lambda *a: loaded.append(sorted(a[2])) or load_splits(*a))
        assert run(*argv, "--out", tmp_path / "default.csv") == 0
        assert loaded == [["test"]]
        names = [name for name, method in METHODS.items() if task in method.tasks]
        assert list(dict.fromkeys(csv_read_scores(tmp_path / "default.csv")[2])) == names
        assert len([name for name in names if METHODS[name].hybrid]) == (6 if task == "multiclass" else 0)
        assert run(*argv, "--calibrate", "validation", "--out", tmp_path / "explicit.csv") == 0
        for table in (Path, scores_container):
            assert table(tmp_path / "default.csv").read_bytes() == table(tmp_path / "explicit.csv").read_bytes()

    def test_hybrids_score_without_a_validation_split(self, mc_dir, tmp_path):
        """The six hybrids score on a copy of the dataset whose manifest lists
        no validation split, to the bytes they score with the full manifest."""
        splits = json.loads((mc_dir / "ds" / "manifest.json").read_text())["splits"]
        del splits["validation"]
        manifest = _copy_with_manifest_fields(mc_dir / "ds", tmp_path, splits=splits)
        hybrids = ",".join(name for name, method in METHODS.items() if method.hybrid)
        for table, source in (("copy.csv", manifest), ("full.csv", mc_dir / "ds" / "manifest.json")):
            assert run("score", "--manifest", source, "--models", mc_dir / "models.bin", "--methods", hybrids,
                       "--out", tmp_path / table) == 0
        for table in (Path, scores_container):
            assert table(tmp_path / "copy.csv").read_bytes() == table(tmp_path / "full.csv").read_bytes()

    def test_hybrid_without_its_config_is_usage_error(self, mc_dir, tmp_path, capsys):
        models = tmp_path / "m.bin"
        assert run("fit", "--manifest", mc_dir / "ds" / "manifest.json", "--methods", "md", "--out", models) == 0
        code = run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", models,
                   "--methods", "SR,HUQ-MD", "--out", tmp_path / "s.csv")
        assert code == 1
        assert capsys.readouterr().err == ("usage error: method HUQ-MD needs a fitted 'huq-md' model; "
                                           "rerun fit with --methods huq-md\n")
        assert not (tmp_path / "s.csv").exists()

    def test_unknown_method_is_usage_error(self, mc_dir, tmp_path, capsys):
        code = run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "SoftmaxResponse", "--out", tmp_path / "s.csv")
        assert code == 1
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "--split nosuch --methods SR",
    ], ids=["split"])
    def test_split_not_in_the_manifest_is_a_data_error(self, argv, mc_dir, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run("score", "--manifest", mc_dir / "ds" / "manifest.json", "--models", mc_dir / "models.bin",
                   *argv.split(), "--out", out)
        assert code == 2
        assert capsys.readouterr().err == "data error [bad-format]: manifest has no split 'nosuch'\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["test", "nosuch"])
    def test_calibrate_other_than_validation_is_usage_error(self, value, tmp_path, capsys):
        """--calibrate is kept only so that existing command lines run: it
        takes validation alone, and any other value is refused before any
        file is read (the manifest here does not exist)."""
        out = tmp_path / "s.csv"
        code = run("score", "--manifest", tmp_path / "missing.json", "--methods", "SR", "--calibrate", value,
                   "--out", out)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("usage error: argument --calibrate: invalid choice") and value in err
        assert not out.exists()

    def test_density_without_models_is_usage_error(self, mc_dir, tmp_path, capsys):
        code = run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "MD", "--out", tmp_path / "s.csv")
        assert code == 1
        assert "fitted" in capsys.readouterr().err

    def test_multilabel_mp_emits_label_pairs(self, ml_dir, tmp_path):
        out = tmp_path / "mp.csv"
        assert run("score", "--manifest", ml_dir / "ds" / "manifest.json",
                   "--models", ml_dir / "models.bin", "--methods", "MP,MP-mean",
                   "--out", out) == 0
        instance, label, method, _ = csv_read_scores(out)
        pairs, inst = method == "MP", method == "MP-mean"
        assert pairs.sum() == 60 * 5 and (label[pairs] != EMPTY_LABEL).all()
        assert inst.sum() == 60 and (label[inst] == EMPTY_LABEL).all()
        # pair rows are instance-major
        assert instance[pairs].tolist() == [i for i in range(60) for _ in range(5)]
        assert label[pairs].tolist() == list(range(5)) * 60


@pytest.fixture(scope="module")
def evaluated(mc_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    scores = root / "scores.csv"
    assert run("score", "--manifest", mc_dir / "ds" / "manifest.json",
               "--models", mc_dir / "models.bin", "--methods", "SR,MD,Entropy",
               "--out", scores) == 0
    metrics = root / "metrics.json"
    assert run("evaluate", "--scores", scores,
               "--manifest", mc_dir / "ds" / "manifest.json",
               "--out", metrics, root / "curves") == 0
    return root, scores, metrics


def _stored_source(table):
    """The source of the scores that the score container of ``table`` holds."""
    raw = scores_container(table).read_bytes()
    return json.loads(raw[52:52 + struct.unpack_from("<8sIQ", raw)[2]])["source"]


def _flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(raw)


def _fail_third_curve_build(curves, monkeypatch):
    """Make evaluate's third curve build, the second method's after the
    oracle's and the first method's, raise, once curves.bin is open."""
    build, calls = rejection.build_curve, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            assert (curves / "curves.bin").exists()
            raise OSError("no space left on device")
        return build(*args)

    monkeypatch.setattr(rejection, "build_curve", failing)


class TestEvaluateAndReport:
    def test_metrics_shape(self, evaluated):
        _, _, metrics = evaluated
        payload = json.loads(metrics.read_text())
        assert payload["mode"] == "instance" and payload["span"] == "full"
        assert set(payload["methods"]) == {"SR", "MD", "Entropy"}
        for entry in payload["methods"].values():
            risk = entry["risk"]
            assert set(risk) == {"raw_auc", "rand_auc", "oracle_auc", "normalized", "flag"}
            assert risk["normalized"] is None or -5.0 < risk["normalized"] <= 1.0 + 1e-9

    def test_curves_written(self, evaluated):
        root, _, _ = evaluated
        curves = root / "curves"
        assert (curves / "SR.csv").exists()
        assert (curves / "risk_curves.svg").exists()
        header, first = (curves / "SR.csv").read_text().splitlines()[:2]
        assert header == "coverage,value"
        assert float(first.split(",")[0]) == 1.0

    def test_evaluate_deterministic(self, evaluated, mc_dir, tmp_path):
        _, scores, metrics = evaluated
        again = tmp_path / "metrics.json"
        assert run("evaluate", "--scores", scores,
                   "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", again, tmp_path / "curves") == 0
        assert again.read_bytes() == metrics.read_bytes()

    def test_report_renders(self, evaluated, tmp_path):
        root, _, metrics = evaluated
        out = tmp_path / "report.html"
        assert run("report", "--metrics", metrics, "--curves", root / "curves",
                   "--out", out) == 0
        html = out.read_text()
        assert "SR" in html and "Entropy" in html

    def test_label_mode_on_multiclass_is_usage_error(self, evaluated, mc_dir, capsys, tmp_path):
        _, scores, _ = evaluated
        code = run("evaluate", "--scores", scores,
                   "--manifest", mc_dir / "ds" / "manifest.json",
                   "--mode", "label", "--out", tmp_path / "m.json")
        assert code == 1
        assert "multilabel manifest" in capsys.readouterr().err

    def test_more_than_two_out_paths_is_usage_error(self, evaluated, mc_dir, tmp_path, capsys):
        _, scores, _ = evaluated
        code = run("evaluate", "--scores", scores,
                   "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", tmp_path / "m.json", tmp_path / "curves", tmp_path / "extra")
        assert code == 1
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_scores_file_is_data_error(self, mc_dir, tmp_path):
        code = run("evaluate", "--scores", tmp_path / "nope.csv",
                   "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", tmp_path / "m.json")
        assert code == 2

    @pytest.mark.parametrize("edit, named", [
        (lambda bad, _: bad.write_text("\n".join(bad.read_text().splitlines()[:2] + ["0,,SR"]) + "\n"),
         "data error [checksum-mismatch]: {table}: checksum"),
        (lambda bad, _: bad.write_text("\n".join(bad.read_text().splitlines()[:-1]) + "\n"),
         "data error [checksum-mismatch]: {table}: checksum"),
        (lambda bad, _: scores_container(bad).unlink(),
         "data error [data-error]: {container}: missing; `abstain score` writes it beside the score table"),
        (lambda bad, _: _flip_last_byte(scores_container(bad)),
         "data error [checksum-mismatch]: {container}: checksum"),
        (lambda bad, _: scores_container(bad).write_bytes(scores_container(bad).read_bytes()[:100]),
         "data error [bad-format]: {container}: malformed score index"),
        (lambda bad, _: scores_container(bad).write_bytes(b"UQSCORES" + struct.pack("<I", 1)
                                                          + scores_container(bad).read_bytes()[12:]),
         "data error [bad-version]: {container}: unsupported version 1"),
        (lambda bad, _: write_scores(bad, {"SR": np.zeros(60), "MD": np.zeros(61)}, _stored_source(bad)),
         "data error [bad-format]: {container}: method MD: shape [61], not [60] or [60, 3]"),
        (lambda bad, _: write_scores(bad, {"SR": np.r_[np.zeros(59), np.nan]}, _stored_source(bad)),
         "data error: NaN score"),
        (lambda bad, _: write_scores(bad, {"Entropy": np.zeros(60), "MD": np.ones(60),
                                           "SR": np.r_[np.nan, np.zeros(59)]}, _stored_source(bad)),
         "data error: NaN score"),
        (lambda bad, monkeypatch: _fail_third_curve_build(bad.parent / "out" / "curves", monkeypatch),
         "data error [io]: no space left on device"),
    ], ids=["malformed-row", "missing-row", "missing-container", "flipped-container-byte",
            "truncated-container", "container-version-1", "shape-not-of-the-manifest", "nan-score",
            "nan-in-the-last-method", "curve-build-raises-mid-stream"])
    def test_refused_table_writes_nothing(self, edit, named, evaluated, mc_dir, tmp_path, capsys, monkeypatch):
        """A score table that evaluate refuses, or whose container it
        refuses, leaves neither a metrics file nor a curves directory
        behind.  A table edited after score wrote it no longer has the
        digest its container holds.  Every score is checked before any
        output is opened, also a NaN in the last method in name order, and a
        curve build that fails after curves.bin is opened removes the
        partial container and the directories made for it."""
        _, scores, _ = evaluated
        bad = tmp_path / "bad.csv"
        shutil.copy(scores, bad)
        shutil.copy(scores_container(scores), scores_container(bad))
        edit(bad, monkeypatch)
        out = tmp_path / "out"
        code = run("evaluate", "--scores", bad, "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", out / "metrics.json", out / "curves")
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(named.format(table=bad, container=scores_container(bad))), err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["other-seed", "other-split"])
    def test_scores_of_another_dataset_or_split_write_nothing(self, case, tmp_path, capsys):
        """Scores of seed 7's test split evaluated on seed 11's manifest, and
        scores of the train split evaluated as the test split, both of the
        same row count, are a data error naming both sources; nothing is written."""
        spec = tmp_path / "spec.json"
        spec.write_text(SynthSpec(n_train=60, n_validation=30, n_test=60, n_classes=3, dim=4,
                                  mc_passes=2).to_json())
        for seed in (7, 11):
            assert run("gen-synth", "--spec", spec, "--seed", seed, "--out", tmp_path / f"ds{seed}") == 0
        manifest = tmp_path / "ds7" / "manifest.json"
        scored, evaluated_on = ("test", tmp_path / "ds11" / "manifest.json") if case == "other-seed" else ("train", manifest)
        scores = tmp_path / "s.csv"
        assert run("score", "--manifest", manifest, "--methods", "SR", "--split", scored, "--out", scores) == 0
        out = tmp_path / "out"
        code = run("evaluate", "--scores", scores, "--manifest", evaluated_on, "--out", out / "metrics.json")
        held, wanted = (split_source(load_manifest(m), role) for m, role in ((manifest, scored), (evaluated_on, "test")))
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error [data-error]: {scores_container(scores)}: scores of the {scored!r} split with probs "
            f"{held['probs'][:12]}.. and labels {held['labels'][:12]}.., not of the 'test' split with probs "
            f"{wanted['probs'][:12]}.. and labels {wanted['labels'][:12]}.. of the manifest\n")
        assert not out.exists()
        assert run("evaluate", "--scores", scores, "--manifest", manifest, "--split", scored,
                   "--out", out / "metrics.json") == 0

    def test_missing_metrics_directory_writes_nothing(self, evaluated, mc_dir, tmp_path, capsys):
        """A metrics path in a directory that does not exist, and that the
        curves directory does not make, is refused before any output is
        written, as an io error that names the path."""
        _, scores, _ = evaluated
        code = run("evaluate", "--scores", scores, "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", tmp_path / "missing" / "metrics.json", tmp_path / "curves")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error [io]: {tmp_path / 'missing' / 'metrics.json'}: ")
        assert list(tmp_path.iterdir()) == []

    def test_one_curve_per_method_and_one_oracle(self, evaluated, mc_dir, tmp_path, monkeypatch):
        _, scores, _ = evaluated
        calls = []
        build = rejection.build_curve
        monkeypatch.setattr(rejection, "build_curve", lambda *a: calls.append(a[2]) or build(*a))
        assert run("evaluate", "--scores", scores,
                   "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", tmp_path / "m.json", tmp_path / "curves") == 0
        assert calls == ["risk"] * (3 + 1)

    def test_curve_csv_bytes(self, tmp_path):
        write_curve_csv(tmp_path / "c.csv", rejection.coverages(3), np.array([1 / 3, 5e-324, 0.0]))
        assert (tmp_path / "c.csv").read_bytes() == (
            b"coverage,value\n1.0,0.3333333333333333\n"
            b"0.6666666666666666,5e-324\n0.3333333333333333,0.0\n")

    def test_report_on_split_without_errors(self, mc_dir, tmp_path):
        # labels set to the argmax predictions: no errors, so every
        # normalized area is null and flagged degenerate
        ds = tmp_path / "ds"
        shutil.copytree(mc_dir / "ds", ds)
        manifest = ds / "manifest.json"
        split = load_splits(load_manifest(manifest), ds, {"test": ("embeddings", "mc")})["test"]
        victim = ds / "test_labels.bin"
        payload = json.loads(manifest.read_text())
        payload["checksums"][victim.name] = write_matrix(victim, split.probs.argmax(axis=1)[:, None])
        manifest.write_text(json.dumps(payload))
        assert run("score", "--manifest", manifest, "--methods", "SR,Entropy",
                   "--out", tmp_path / "s.csv") == 0
        assert run("evaluate", "--scores", tmp_path / "s.csv", "--manifest", manifest,
                   "--out", tmp_path / "m.json", tmp_path / "curves") == 0
        risk = json.loads((tmp_path / "m.json").read_text())["methods"]["SR"]["risk"]
        assert risk["normalized"] is None and risk["flag"].startswith("degenerate")
        assert run("report", "--metrics", tmp_path / "m.json", "--curves", tmp_path / "curves",
                   "--out", tmp_path / "r.html") == 0
        assert "<td>SR</td><td>degenerate</td>" in (tmp_path / "r.html").read_text()

    @pytest.mark.parametrize("payload", [
        {"methods": 3}, [1, 2], {"methods": {"SR": 5}}, {"methods": {"SR": {"risk": 3}}},
        {"methods": {"SR": {"risk": {"normalized": "0.5"}}}},
    ], ids=["methods-not-object", "not-object", "method-not-object", "metric-not-object",
            "normalized-not-number"])
    def test_wrong_shape_metrics_is_data_error(self, payload, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(payload))
        code = run("report", "--metrics", metrics, "--out", tmp_path / "r.html")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error [data-error]: {metrics}: ")
        assert not (tmp_path / "r.html").exists()

    def test_bad_metrics_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{oops")
        code = run("report", "--metrics", bad, "--out", tmp_path / "r.html")
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


# VmHWM, the peak resident size of the process image, in KiB; unlike
# ru_maxrss it does not carry the parent's peak across exec.  locale,
# which the command imports, is imported before the start mark, as under
# abstain.cli before it loaded only what a command runs.
EVALUATE_PROBE = """
import json, locale, sys
def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
import abstain.cli as cli
start = vm_hwm()
assert cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps([start, vm_hwm()]))
"""


@pytest.fixture(scope="module")
def pair_scores(tmp_path_factory):
    """A 5000 x 20 multilabel test split and its score table: MP's 100,000
    pair rows and the instance-level rows of MP-mean and MP-max."""
    root = tmp_path_factory.mktemp("pairs")
    spec = root / "spec.json"
    spec.write_text(SynthSpec(seed=3, task="multilabel", n_labels=20, n_train=200,
                              n_validation=100, n_test=5000).to_json())
    assert run("gen-synth", "--spec", spec, "--out", root / "ds") == 0
    assert run("score", "--manifest", root / "ds" / "manifest.json", "--methods", "MP,MP-mean,MP-max",
               "--out", root / "s.csv") == 0
    return root


def evaluate_growth_per_pair(root, mode) -> float:
    """Bytes per (instance, label) pair by which ``evaluate --mode <mode>``
    on ``pair_scores`` grows its VmHWM over the loaded interpreter, in a
    fresh interpreter."""
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from /proc/self/status")
    argv = ["evaluate", "--scores", str(root / "s.csv"), "--manifest", str(root / "ds" / "manifest.json"),
            "--mode", mode, "--out", str(root / mode / "m.json"), str(root / mode / "curves")]
    probe = subprocess.run([sys.executable, "-c", EVALUATE_PROBE, json.dumps(argv)],
                           env=child_env(), capture_output=True, text=True, check=True)
    start, peak = json.loads(probe.stdout.splitlines()[-1])
    return (peak - start) * 1024 / (5000 * 20)


class TestMultilabelEvaluate:
    def test_label_mode_holds_under_105_bytes_per_pair(self, pair_scores):
        """``evaluate --mode label`` grows its peak resident memory by less
        than 105 bytes per (instance, label) pair.  It grows by 54 with
        modules compiled from source and by 64 with cached bytecode, where
        the start mark sits about 1.5 MB (15 bytes per pair) lower and the
        command's own peak does not move (README).  The bound holds in both
        states with room for the interpreter's own spread; the tracemalloc
        test below bounds the command's own peak deterministically."""
        assert evaluate_growth_per_pair(pair_scores, "label") < 105

    def test_instance_mode_holds_under_70_bytes_per_pair(self, pair_scores):
        """``evaluate --mode instance`` on a table that holds MP's pair rows
        grows its peak resident memory by less than 70 bytes per pair.  It
        only hashes MP's array in the score container and never builds it;
        it grows by 21 with modules compiled from source and 26 with cached
        bytecode.  The bound is there to catch a read that parses or keeps
        the pair rows, which this mode does not use."""
        assert evaluate_growth_per_pair(pair_scores, "instance") < 70

    def test_label_mode_traces_under_45_bytes_per_pair(self, pair_scores, tmp_path):
        """``evaluate --mode label`` on ``pair_scores`` peaks less than 45
        bytes per (instance, label) pair above its start (tracemalloc, in
        this process); it reads 40.9.  Throughout the curves it holds MP's
        float64 pair scores (8 bytes per pair) and the int8 counts of both
        metrics (5).  It builds one curve at a time, reduces each oracle
        curve to two numbers, writes each curve before it builds the next
        and sums the counts straight into float64, so its peak is one
        micro-F1 build: three float64 suffix sums (24) over the counts in
        removal order (3).  One more live float64 array of n values, such
        as a curve kept while the next is built, crosses the bound."""
        argv = ["evaluate", "--scores", pair_scores / "s.csv", "--manifest", pair_scores / "ds" / "manifest.json",
                "--mode", "label", "--out", tmp_path / "m.json", tmp_path / "curves"]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert run(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (5000 * 20) < 45

    @pytest.mark.parametrize("level", ["instance", "label"])
    def test_score_reader_peaks_under_3_5_mb_above_what_it_returns(self, pair_scores, level):
        """``read_scores`` on the score table of ``pair_scores`` (110,000
        scores) peaks less than 3.5 MB (tracemalloc) above its start,
        beyond the arrays it returns, at either level.  It hashes the table
        through one reused buffer, builds only the arrays of its level and
        hashes the others 64 KiB at a time, so at the instance level it
        never holds MP's 0.8 MB of pair scores: about 0.19 MB above what it
        returns at the instance level and 0.05 MB at the label level.  The
        CSV reader it replaced peaked 1.8 and 2.3 MB above; hashing the
        table in 1 MiB chunks took 2.1 MB."""
        source = _stored_source(pair_scores / "s.csv")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            scores = read_scores(pair_scores / "s.csv", level, 5000, 20, source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        above = peak - start - sum(values.nbytes for values in scores.values())
        assert above < 3.5e6
        if level == "instance":
            assert above < 5000 * 20 * 8 / 2

    def test_label_and_instance_modes(self, ml_dir, tmp_path):
        scores = tmp_path / "scores.csv"
        assert run("score", "--manifest", ml_dir / "ds" / "manifest.json",
                   "--models", ml_dir / "models.bin", "--methods", "MP,MP-mean,MD",
                   "--out", scores) == 0
        label_metrics = tmp_path / "label.json"
        assert run("evaluate", "--scores", scores,
                   "--manifest", ml_dir / "ds" / "manifest.json",
                   "--mode", "label", "--span", "first50",
                   "--out", label_metrics, tmp_path / "lc") == 0
        payload = json.loads(label_metrics.read_text())
        assert set(payload["methods"]) == {"MP"}
        assert set(payload["methods"]["MP"]) == {"accuracy", "f1_micro"}
        assert (tmp_path / "lc" / "MP.accuracy.csv").exists()
        assert (tmp_path / "lc" / "MP.f1_micro.csv").exists()

        inst_metrics = tmp_path / "inst.json"
        assert run("evaluate", "--scores", scores,
                   "--manifest", ml_dir / "ds" / "manifest.json",
                   "--mode", "instance", "--out", inst_metrics, tmp_path / "ic") == 0
        payload = json.loads(inst_metrics.read_text())
        assert set(payload["methods"]) == {"MP-mean", "MD"}

    def test_incomplete_pair_table_is_data_error(self, ml_dir, tmp_path, capsys):
        # MP's scores for the last label are missing: its array is (n, L - 1)
        scores = tmp_path / "scores.csv"
        assert run("score", "--manifest", ml_dir / "ds" / "manifest.json",
                   "--methods", "MP", "--out", scores) == 0
        source = _stored_source(scores)
        write_scores(scores, {"MP": read_scores(scores, "label", 60, 5, source)["MP"][:, :-1]}, source)
        code = run("evaluate", "--scores", scores, "--manifest", ml_dir / "ds" / "manifest.json",
                   "--mode", "label", "--out", tmp_path / "m.json")
        assert code == 2
        assert capsys.readouterr().err == (f"data error [bad-format]: {scores_container(scores)}: "
                                           "method MP: shape [60, 4], not [60] or [60, 5]\n")


def built_curves(manifest, table, mode):
    """``{"<method>[.<metric>]": values}`` of the curves ``evaluate --mode <mode>``
    builds from ``table`` on ``manifest``'s test split, built here by ``build_curve``."""
    loaded = load_manifest(manifest)
    split = load_splits(loaded, Path(manifest).parent, {"test": ()})["test"]
    scores = read_scores(table, mode, len(split), split.probs.shape[1], split_source(loaded, "test"))
    evaluations = rejection.unit_data(split.probs, split.labels, loaded.task, mode)
    suffixes = {metric: "" if len(evaluations) == 1 else f".{metric}" for metric, _ in evaluations}
    return {name + suffixes[metric]: rejection.build_curve(values.reshape(-1), data, metric)
            for metric, data in evaluations for name, values in scores.items()}


class TestCurveFiles:
    @pytest.mark.parametrize("mode", ["instance", "label"])
    @pytest.mark.parametrize("size", ["60x5", "5000x20"])
    def test_container_holds_the_built_bits_and_each_csv_the_plotted_points(self, size, mode, ml_dir, pair_scores,
                                                                            tmp_path):
        """Every (method, metric) curve reads back from curves.bin with
        build_curve's bits, and its CSV holds plot_points of those values as
        repr rows: every point of a curve of at most 566 points (60 x 5), the
        M4 points of a longer one (5000 x 20)."""
        if size == "60x5":
            manifest, table = ml_dir / "ds" / "manifest.json", tmp_path / "s.csv"
            assert run("score", "--manifest", manifest, "--models", ml_dir / "models.bin",
                       "--methods", "MP,MP-mean,MD", "--out", table) == 0
        else:
            manifest, table = pair_scores / "ds" / "manifest.json", pair_scores / "s.csv"
        curves = tmp_path / "curves"
        assert run("evaluate", "--scores", table, "--manifest", manifest, "--mode", mode,
                   "--out", tmp_path / "m.json", curves) == 0
        built, read = built_curves(manifest, table, mode), read_curves(curves / "curves.bin")
        assert list(read) == list(built) and len(built) == {"instance": 4, "label": 2}[mode]
        assert sorted(p.name for p in curves.glob("*.csv")) == sorted(f"{key}.csv" for key in built)
        for key, values in built.items():
            assert read[key].dtype == np.dtype("<f8")
            assert np.array_equal(read[key].view(np.uint64), values.view(np.uint64))
            xs, vs = report.plot_points(rejection.coverages(values.size), values)
            assert xs.size == values.size if values.size <= 566 else xs.size <= 4 * 566
            rows = "".join(f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(), vs.tolist()))
            assert (curves / f"{key}.csv").read_text() == "coverage,value\n" + rows


# Runs commands in this fresh interpreter pinned to one CPU, with the
# score table above the break-even, and fails if its writer forks.
PINNED_PROBE = """
import json, os, sys
from abstain import cli, dataio
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
dataio.FORK_ROWS = 1
def fork():
    raise AssertionError("a writer forked on one CPU")
os.fork = fork
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
"""


class TestForkedWriters:
    def commands(self, ml_dir, out):
        out.mkdir(exist_ok=True)
        return [["score", "--manifest", str(ml_dir / "ds" / "manifest.json"), "--models",
                 str(ml_dir / "models.bin"), "--methods", "MP,MP-mean,MD", "--out", str(out / "s.csv")],
                ["evaluate", "--scores", str(out / "s.csv"), "--manifest", str(ml_dir / "ds" / "manifest.json"),
                 "--mode", "label", "--out", str(out / "m.json"), str(out / "curves")]]

    def test_run_pinned_to_one_cpu_writes_the_forked_bytes(self, ml_dir, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(dataio, "FORK_ROWS", 1)
        for argv in self.commands(ml_dir, tmp_path / "two"):
            assert main(argv) == 0
        assert len(forks) == 1   # the score table
        subprocess.run([sys.executable, "-c", PINNED_PROBE, json.dumps(self.commands(ml_dir, tmp_path / "one"))],
                       env=child_env(), capture_output=True, text=True, check=True)
        two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
        one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
        assert two == one and len(two) == 8   # s.csv, s.csv.bin, m.json, curves.bin, two curve CSVs and two SVGs
        for name in two:
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

    @pytest.mark.parametrize("side", ["child", "parent"])
    @pytest.mark.parametrize("command", ["score"])
    def test_failed_half_is_an_io_error_that_leaves_no_output(self, command, side, ml_dir, tmp_path, forks,
                                                               monkeypatch, capsys):
        score, _ = self.commands(ml_dir, tmp_path)
        scores_container(tmp_path / "s.csv").write_bytes(b"stale")   # of an earlier run: must not outlive its table
        monkeypatch.setattr(dataio, "FORK_ROWS", 1)
        parent = os.getpid()

        def failing():   # raises in the chosen process only
            if (os.getpid() == parent) == (side == "parent"):
                raise OSError("no space left on device")

        text = dataio._score_text
        monkeypatch.setattr(dataio, "_score_text", lambda *span: failing() or text(*span))
        assert main(score) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error [io]: ")
        assert ("forked writer" in err) == (side == "child") and ("no space left" in err) == (side == "parent")
        assert not any(p.exists() for p in (tmp_path / "s.csv", scores_container(tmp_path / "s.csv")))
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):   # the parent has waited for its child
            os.waitpid(forks[0], os.WNOHANG)


SCIPY_SUBPACKAGES = ("scipy.special", "scipy.spatial", "scipy.sparse",
                     "scipy.optimize", "scipy.linalg", "scipy.stats")
# every layer module must be loaded by `import abstain.cli`: perfbench/traced.py
# looks each of them up in sys.modules
LAYERS = ("synth", "dataio", "baselines", "mc", "density", "hybrid", "rejection", "report", "core")
IMPORT_PROBE = """
import json, sys
watch, layers, commands = json.loads(sys.argv[1])
import abstain.cli as cli
def state(stage):
    return [stage, [m for m in watch if m in sys.modules],
            [layer for layer in layers if "abstain." + layer not in sys.modules]]
states = [state("import")]
for argv in commands:
    assert cli.main(argv) == 0, argv
    states.append(state(argv[0]))
print(json.dumps(states))
"""


# Runs one command as `python -m abstain.cli` does, in this fresh
# interpreter, then prints the names of the modules loaded.
MAIN_PROBE = """
import json, runpy, sys
sys.argv = ["abstain"] + json.loads(sys.argv[1])
try:
    runpy.run_module("abstain.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(sys.modules)))
"""


# Runs one command through the console script that pyproject.toml
# declares, in this fresh interpreter, then prints the modules loaded.
SCRIPT_PROBE = """
import importlib, json, sys, tomllib
with open(sys.argv[1], "rb") as fh:
    module, _, function = tomllib.load(fh)["project"]["scripts"]["abstain"].partition(":")
sys.argv = ["abstain"] + json.loads(sys.argv[2])
try:
    getattr(importlib.import_module(module), function)()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(sys.modules)))
"""


PACKAGE = Path(abstain.__file__).parent
CSV_PARSERS = {"csv.reader", "csv.DictReader", "np.loadtxt", "np.genfromtxt", "numpy.loadtxt", "numpy.genfromtxt"}


def source_nodes(*roots):
    """(path, node) for every AST node of every .py file under ``roots``."""
    sources = [path for root in roots for path in root.rglob("*.py")]
    assert len(sources) > 10
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


class TestImportHygiene:
    def test_console_script_report_loads_no_numpy(self, evaluated, tmp_path):
        root, _, metrics = evaluated
        argv = ["report", "--metrics", str(metrics), "--curves", str(root / "curves"),
                "--out", str(tmp_path / "report.html")]
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        probe = subprocess.run([sys.executable, "-c", SCRIPT_PROBE, str(pyproject), json.dumps(argv)],
                               env=child_env(), capture_output=True, text=True, check=True)
        modules = json.loads(probe.stdout.splitlines()[-1])
        assert (tmp_path / "report.html").exists()
        assert not [m for m in modules if m.split(".")[0] == "numpy" or m == "abstain.cli"]

    def test_commands_run_as_a_program_load_only_what_they_run(self, mc_dir, evaluated, tmp_path):
        # report loads no numpy, and no command but fit loads any scipy module,
        # not even the top-level package
        root, scores, metrics = evaluated
        manifest = str(mc_dir / "ds" / "manifest.json")
        commands = {
            "gen-synth": ["--out", str(tmp_path / "ds")],
            "fit": ["--manifest", manifest, "--methods", "md", "--out", str(tmp_path / "m.bin")],
            "score": ["--manifest", manifest, "--models", str(mc_dir / "models.bin"), "--methods", "all",
                      "--out", str(tmp_path / "scores.csv")],
            "evaluate": ["--scores", str(scores), "--manifest", manifest,
                         "--out", str(tmp_path / "metrics.json"), str(tmp_path / "curves")],
            "report": ["--metrics", str(metrics), "--curves", str(root / "curves"),
                       "--out", str(tmp_path / "report.html")],
        }
        loaded = {}
        for command, argv in commands.items():
            probe = subprocess.run([sys.executable, "-c", MAIN_PROBE, json.dumps([command, *argv])],
                                   env=child_env(), capture_output=True, text=True, check=True)
            modules = json.loads(probe.stdout.splitlines()[-1])
            assert "abstain.cli" not in modules, command   # run as __main__, never imported a second time
            loaded[command] = sorted({m.split(".")[0] for m in modules} & {"numpy", "scipy"})
        assert loaded == {"gen-synth": ["numpy"], "fit": ["numpy"], "score": ["numpy"],
                          "evaluate": ["numpy"], "report": []}

    def test_commands_that_call_no_scipy_load_no_scipy_subpackage(self, mc_dir, evaluated, tmp_path):
        # a fresh interpreter: this test process has loaded scipy subpackages already.
        # Only fit calls scipy (ARPACK, cdist, pdist, digamma, betaln); score
        # runs every multiclass method on models of every fitter
        root, scores, metrics = evaluated
        manifest = str(mc_dir / "ds" / "manifest.json")
        commands = [
            ["gen-synth", "--out", str(tmp_path / "ds")],
            ["fit", "--manifest", manifest, "--methods", "md", "--out", str(tmp_path / "m.bin")],
            ["score", "--manifest", manifest, "--models", str(mc_dir / "models.bin"), "--methods", "all",
             "--out", str(tmp_path / "scores.csv")],
            ["evaluate", "--scores", str(scores), "--manifest", manifest,
             "--out", str(tmp_path / "metrics.json"), str(tmp_path / "curves")],
            ["report", "--metrics", str(metrics), "--curves", str(root / "curves"),
             "--out", str(tmp_path / "report.html")],
        ]
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                                json.dumps([SCIPY_SUBPACKAGES, LAYERS, commands])],
                               env=child_env(), capture_output=True, text=True, check=True)
        states = json.loads(probe.stdout.splitlines()[-1])
        assert states == [[stage, [], []] for stage in ("import", "gen-synth", "fit", "score", "evaluate",
                                                         "report")]

    def test_no_module_or_script_can_load_a_pickle(self):
        # loading files must never run code: nothing imports a pickle
        # loader, and no numpy reader is allowed to unpickle
        found = []
        for path, node in source_nodes(PACKAGE, Path(__file__).resolve().parents[1] / "scripts"):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(m.split(".")[0] in ("pickle", "_pickle", "shelve") for m in modules):
                found.append(f"{path.name}:{node.lineno} imports {', '.join(modules)}")
            if isinstance(node, ast.Call) and any(
                    k.arg == "allow_pickle" and not (isinstance(k.value, ast.Constant) and k.value.value is False)
                    for k in node.keywords):
                found.append(f"{path.name}:{node.lineno} calls {ast.unparse(node.func)} with allow_pickle")
        assert not found

    def test_no_module_can_parse_a_csv_file(self):
        # the score table is an export: the package writes CSV and reads
        # back only its binary files, so it neither calls nor imports a CSV parser
        found = []
        for path, node in source_nodes(PACKAGE):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in CSV_PARSERS:
                found.append(f"{path.name}:{node.lineno} calls {ast.unparse(node.func)}")
            if isinstance(node, ast.ImportFrom) and any(f"{node.module}.{a.name}" in CSV_PARSERS for a in node.names):
                found.append(f"{path.name}:{node.lineno} imports from {node.module}")
        assert not found
