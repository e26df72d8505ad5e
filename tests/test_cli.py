"""End-to-end command-line pipeline tests, run in-process via main()."""
import json

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from abstain import density, rejection
from abstain.cli import main
from abstain.dataio import NO_LABEL, load_models, read_scores_csv, sha256_file
from abstain.synth import SynthSpec

MC_SPEC = SynthSpec(seed=5, n_train=120, n_validation=60, n_test=60,
                    n_classes=3, dim=4, mc_passes=4)
ML_SPEC = SynthSpec(seed=5, task="multilabel", n_labels=5, n_train=120,
                    n_validation=60, n_test=60, n_classes=3, dim=4, mc_passes=4)


def run(*argv) -> int:
    return main([str(a) for a in argv])


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


class TestFit:
    def test_default_methods_follow_task(self, mc_dir, ml_dir):
        assert set(load_models(mc_dir / "models.bin")) == {"md", "rde", "ddu", "nuq", "beta"}
        assert set(load_models(ml_dir / "models.bin")) == {"md", "rde", "ddu", "nuq"}

    def test_subset_of_methods(self, mc_dir, tmp_path):
        out = tmp_path / "m.bin"
        assert run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "md,ddu", "--out", out) == 0
        assert set(load_models(out)) == {"md", "ddu"}

    def test_unknown_method_is_usage_error(self, mc_dir, tmp_path, capsys):
        code = run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "kde", "--out", tmp_path / "m.bin")
        assert code == 1
        assert "unknown fit method" in capsys.readouterr().err

    def test_beta_on_multilabel_is_usage_error(self, ml_dir, tmp_path, capsys):
        code = run("fit", "--manifest", ml_dir / "ds" / "manifest.json",
                   "--methods", "beta", "--out", tmp_path / "m.bin")
        assert code == 1
        assert "multiclass manifest" in capsys.readouterr().err

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

    @pytest.mark.parametrize("spec, edit", [
        (MC_SPEC, lambda lines: lines[:2] + ["0"] + lines[3:]),       # short multiclass row
        (ML_SPEC, lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]),  # ragged
        (MC_SPEC, lambda lines: [""] + lines),                       # empty first line
    ], ids=["short-multiclass-row", "ragged-multilabel-rows", "empty-first-line"])
    def test_malformed_label_rows_are_format_errors(self, spec, edit, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        assert run("gen-synth", "--spec", spec_path, "--out", tmp_path / "ds") == 0
        victim = tmp_path / "ds" / "train_labels.csv"
        victim.write_text("\r\n".join(edit(victim.read_text().split("\n"))), newline="")
        manifest = tmp_path / "ds" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["checksums"][victim.name] = sha256_file(victim)
        manifest.write_text(json.dumps(payload))
        code = run("fit", "--manifest", manifest, "--out", tmp_path / "m.bin")
        assert code == 2
        assert "data error [bad-format]" in capsys.readouterr().err

    def test_rde_solver_failure_is_data_error(self, mc_dir, tmp_path, capsys, monkeypatch):
        def no_convergence(A, k, **kw):
            raise ArpackNoConvergence("No convergence (1200 iterations, 3/8 eigenvectors converged)",
                                      np.zeros(0), np.zeros((A.shape[0], 0)))

        monkeypatch.setattr(density, "eigsh", no_convergence)
        code = run("fit", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "rde", "--out", tmp_path / "m.bin")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: RDE kernel eigensolve failed") and "No convergence" in err


class TestScore:
    def test_basic_methods_row_counts(self, mc_dir, tmp_path):
        out = tmp_path / "s.csv"
        assert run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--models", mc_dir / "models.bin", "--methods", "SR,Entropy,MD",
                   "--split", "test", "--out", out) == 0
        instance, label, method, _ = read_scores_csv(out)
        assert len(instance) == 3 * 60
        assert set(method) == {"SR", "Entropy", "MD"}
        assert (label == NO_LABEL).all()

    def test_reruns_and_thread_count_leave_bytes_unchanged(self, mc_dir, tmp_path):
        args = ("score", "--manifest", mc_dir / "ds" / "manifest.json",
                "--models", mc_dir / "models.bin", "--methods", "SR,MD,NUQ,BALD")
        assert run(*args, "--out", tmp_path / "a.csv") == 0
        assert run(*args, "--out", tmp_path / "b.csv") == 0
        assert run(*args, "--out", tmp_path / "c.csv") == 0
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()

    def test_all_methods_with_hybrids(self, mc_dir, tmp_path):
        out = tmp_path / "all.csv"
        assert run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--models", mc_dir / "models.bin", "--methods", "all",
                   "--calibrate", "validation", "--out", out) == 0
        _, _, method, _ = read_scores_csv(out)
        methods = set(method)
        assert "HUQ2-MD" in methods and "HUQ-DDU" in methods and "Beta" in methods
        assert len(method) == len(methods) * 60

    def test_each_density_score_computed_once_per_split(self, mc_dir, tmp_path, monkeypatch):
        calls = {}
        for name in ("score_md", "score_rde", "score_ddu"):
            def counted(*args, _fn=getattr(density, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(density, name, counted)
        assert run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--models", mc_dir / "models.bin", "--methods", "all",
                   "--calibrate", "validation", "--out", tmp_path / "all.csv") == 0
        # once on the target split, once on the calibration split
        assert calls == {"score_md": 2, "score_rde": 2, "score_ddu": 2}

    def test_hybrid_without_calibrate_is_usage_error(self, mc_dir, tmp_path, capsys):
        code = run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--models", mc_dir / "models.bin", "--methods", "HUQ-MD",
                   "--out", tmp_path / "s.csv")
        assert code == 1
        assert "--calibrate" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, mc_dir, tmp_path, capsys):
        code = run("score", "--manifest", mc_dir / "ds" / "manifest.json",
                   "--methods", "SoftmaxResponse", "--out", tmp_path / "s.csv")
        assert code == 1
        assert "unknown method" in capsys.readouterr().err

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
        instance, label, method, _ = read_scores_csv(out)
        pairs, inst = method == "MP", method == "MP-mean"
        assert pairs.sum() == 60 * 5 and (label[pairs] != NO_LABEL).all()
        assert inst.sum() == 60 and (label[inst] == NO_LABEL).all()
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

    def test_missing_scores_file_is_data_error(self, mc_dir, tmp_path):
        code = run("evaluate", "--scores", tmp_path / "nope.csv",
                   "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", tmp_path / "m.json")
        assert code == 2

    def test_one_curve_per_method_and_one_oracle(self, evaluated, mc_dir, tmp_path, monkeypatch):
        _, scores, _ = evaluated
        calls = []
        build = rejection.build_curve
        monkeypatch.setattr(rejection, "build_curve", lambda *a: calls.append(a[2]) or build(*a))
        assert run("evaluate", "--scores", scores,
                   "--manifest", mc_dir / "ds" / "manifest.json",
                   "--out", tmp_path / "m.json", tmp_path / "curves") == 0
        assert calls == ["risk"] * (3 + 1)

    def test_bad_metrics_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{oops")
        code = run("report", "--metrics", bad, "--out", tmp_path / "r.html")
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestMultilabelEvaluate:
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
        scores = tmp_path / "scores.csv"
        assert run("score", "--manifest", ml_dir / "ds" / "manifest.json",
                   "--models", ml_dir / "models.bin", "--methods", "MP",
                   "--out", scores) == 0
        lines = scores.read_text().splitlines()
        scores.write_text("\n".join(lines[:-1]) + "\n")  # drop one pair row
        code = run("evaluate", "--scores", scores,
                   "--manifest", ml_dir / "ds" / "manifest.json",
                   "--mode", "label", "--out", tmp_path / "m.json")
        assert code == 2
        assert "misses some label pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, duplicate", [("label", "0,0,MP,0.999"), ("instance", "0,,MD,0.999")])
    def test_duplicate_score_row_is_data_error(self, ml_dir, tmp_path, capsys, mode, duplicate):
        scores = tmp_path / "scores.csv"
        assert run("score", "--manifest", ml_dir / "ds" / "manifest.json",
                   "--models", ml_dir / "models.bin", "--methods", "MP,MD",
                   "--out", scores) == 0
        lines = scores.read_text().splitlines()
        original = next(i for i, line in enumerate(lines) if line.startswith(duplicate[:-5]))
        if mode == "instance":  # keep the row count: the duplicate replaces instance 1's row
            del lines[original + 1]
        lines.insert(original + 1, duplicate)
        scores.write_text("\n".join(lines) + "\n")
        code = run("evaluate", "--scores", scores,
                   "--manifest", ml_dir / "ds" / "manifest.json",
                   "--mode", mode, "--out", tmp_path / "m.json")
        assert code == 2
        assert "2 score rows for instance 0" in capsys.readouterr().err
