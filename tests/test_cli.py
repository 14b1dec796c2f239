import json

import pytest
import requests

from helpers import StubResponse, StubSession, synthetic_study_files
from negcamp.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def annotate_fixture(data_dir, out, extra=()):
    return run(
        "annotate",
        "--corpus", data_dir / "corpus.jsonl",
        "--mock", data_dir / "mock_responses.jsonl",
        "--codebook", "main_study",
        "--variant", "no_context:original",
        "--out", out,
        *extra,
    )


class TestAnnotateCommand:
    def test_fixture_run(self, data_dir, tmp_path):
        assert annotate_fixture(data_dir, tmp_path) == 0
        lines = (tmp_path / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 60
        manifest = json.loads((tmp_path / "manifest_annotate.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == {
            "n_results": 60,
            "n_failures": 0,
            "input_tokens": manifest["outputs"]["input_tokens"],
            "output_tokens": 60,
            "cost_usd": manifest["outputs"]["cost_usd"],
        }
        assert manifest["codebook"]["name"] == "main_study"
        assert "config_digest" in manifest

    def test_missing_corpus_names_field(self, tmp_path, capsys):
        code = run("annotate", "--mock", "missing.jsonl", "--out", tmp_path)
        assert code == 2
        assert "corpus" in capsys.readouterr().err

    def test_nonexistent_corpus_path(self, tmp_path, capsys):
        code = run("annotate", "--corpus", tmp_path / "nope.jsonl", "--mock", "x", "--out", tmp_path)
        assert code == 2
        assert "corpus" in capsys.readouterr().err

    def test_unknown_codebook(self, data_dir, tmp_path, capsys):
        code = annotate_fixture(data_dir, tmp_path, extra=("--codebook", "nonsense"))
        assert code == 2
        assert "codebook" in capsys.readouterr().err

    def test_failure_threshold_exit(self, data_dir, tmp_path, capsys):
        # mock map omitting five documents: 5/60 failures > 1% threshold
        full = (data_dir / "mock_responses.jsonl").read_text(encoding="utf-8").splitlines()
        trimmed = [line for line in full if json.loads(line)["doc_id"] not in {"d001", "d002", "d003", "d004", "d005"}]
        mock = tmp_path / "partial_mock.jsonl"
        mock.write_text("\n".join(trimmed) + "\n", encoding="utf-8")
        code = run(
            "annotate", "--corpus", data_dir / "corpus.jsonl", "--mock", mock, "--out", tmp_path / "out"
        )
        assert code == 3
        assert "threshold" in capsys.readouterr().err
        failures = (tmp_path / "out" / "failures.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(failures) == 5

    def test_rerun_byte_identical(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert annotate_fixture(data_dir, out) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert annotate_fixture(data_dir, out) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_no_api_key_without_mock(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NEGCAMP_API_KEY", raising=False)
        code = run("annotate", "--corpus", data_dir / "corpus.jsonl", "--out", tmp_path)
        assert code == 2
        assert "NEGCAMP_API_KEY" in capsys.readouterr().err

    def test_rejected_api_key_exits_2(self, data_dir, tmp_path, capsys, monkeypatch):
        session = StubSession(StubResponse(401))
        monkeypatch.setenv("NEGCAMP_API_KEY", "test-key")
        monkeypatch.setenv("NEGCAMP_ENDPOINT", "http://127.0.0.1:9/v1/chat/completions")
        monkeypatch.setattr(requests, "Session", lambda: session)
        code = run("annotate", "--corpus", data_dir / "corpus.jsonl", "--concurrency", 4, "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "401" in err and "test-key" not in err
        assert session.posts <= 4
        assert not (tmp_path / "annotations.jsonl").exists()

    def test_config_file(self, data_dir, tmp_path):
        config = {
            "corpus": str(data_dir / "corpus.jsonl"),
            "mock": str(data_dir / "mock_responses.jsonl"),
            "codebook": "main_study",
            "out": str(tmp_path / "out"),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run("annotate", "--config", config_path) == 0
        assert (tmp_path / "out" / "annotations.jsonl").exists()

    def test_config_file_unknown_key(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"out": "o", "coprus": "typo.jsonl"}), encoding="utf-8")
        assert run("annotate", "--config", config_path) == 2
        assert "coprus" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_fixture_reports(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert annotate_fixture(data_dir, out) == 0
        code = run(
            "evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", data_dir / "gold.csv", "--out", out
        )
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        assert report["schema_version"] == 1
        assert set(report["by_country"]) == {"DE", "ES", "GB"}
        assert set(report["by_language"]) == {"de", "en", "es"}
        for row in [report["pooled"], *report["by_country"].values()]:
            assert set(row) == {"acc", "f1_0", "f1_1", "f1_w", "f1_macro", "alpha_k", "kappa_bp", "supp_0", "supp_1", "n", "flags"}
        assert report["pooled"]["n"] == 60
        text = (out / "evaluation.txt").read_text(encoding="utf-8")
        assert "pooled" in text and "country" in text

    def test_identical_labels_perfect_scores(self, data_dir, tmp_path, gold_map):
        out = tmp_path / "out"
        out.mkdir()
        rows = [
            {
                "doc_id": doc_id,
                "label": label,
                "raw_response": str(label),
                "model_id": "m",
                "prompt_hash": "0" * 16,
                "input_tokens": 1,
                "output_tokens": 1,
            }
            for doc_id, label in sorted(gold_map.items())
        ]
        (out / "annotations.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        code = run("evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", data_dir / "gold.csv", "--out", out)
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        assert report["pooled"]["acc"] == 1.0
        assert report["pooled"]["alpha_k"] == 1.0

    def test_disjoint_ids_exit_4(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        row = {
            "doc_id": "zzz", "label": 1, "raw_response": "1", "model_id": "m",
            "prompt_hash": "0" * 16, "input_tokens": 1, "output_tokens": 1,
        }
        (out / "annotations.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
        code = run("evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", data_dir / "gold.csv", "--out", out)
        assert code == 4

    def test_missing_annotations_exit_2(self, data_dir, tmp_path, capsys):
        code = run("evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", data_dir / "gold.csv", "--out", tmp_path)
        assert code == 2
        assert "annotations" in capsys.readouterr().err

    def test_multi_coder_gold_reports_human_irr(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert annotate_fixture(data_dir, out) == 0
        base = (data_dir / "gold.csv").read_text(encoding="utf-8").splitlines()
        second = [base[0]]
        for line in base[1:]:
            doc_id, _, label = line.split(",")
            second.append(line)
            # second coder flips a handful of labels
            flipped = str(1 - int(label)) if doc_id in {"d004", "d029", "d047"} else label
            second.append(f"{doc_id},gold2,{flipped}")
        gold2 = tmp_path / "gold2.csv"
        gold2.write_text("\n".join(second) + "\n", encoding="utf-8")
        code = run(
            "evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", gold2,
            "--gold-coder", "gold1", "--out", out,
        )
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        irr = report["human_irr"]
        assert irr["n_raters"] == 2
        assert irr["n_items"] == 60
        assert 0.0 < irr["alpha_k"] < 1.0
        assert irr["kappa_bp"] == pytest.approx(2 * (57 / 60) - 1, abs=1e-12)
        # restricting the gold standard to one coder keeps the model comparison intact
        assert report["pooled"]["n"] == 60

    def test_gold_coders_without_overlap_leave_irr_undefined(self, data_dir, golden_dir, tmp_path):
        # every document coded once, alternately by two coders: no pair to agree
        base = (data_dir / "gold.csv").read_text(encoding="utf-8").splitlines()
        split = [base[0]]
        for k, line in enumerate(base[1:]):
            doc_id, _, label = line.split(",")
            split.append(f"{doc_id},gold{1 + k % 2},{label}")
        gold = tmp_path / "gold_split.csv"
        gold.write_text("\n".join(split) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", gold,
            "--annotations", golden_dir / "annotations.jsonl", "--out", out,
        )
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        assert report["human_irr"] == {
            "alpha_k": None,
            "kappa_bp": None,
            "n_items": 60,
            "n_raters": 2,
            "flags": ["alpha_undefined", "kappa_undefined"],
        }
        assert report["pooled"]["n"] == 60


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    return synthetic_study_files(tmp_path_factory.mktemp("synth"))


class TestStudyCommand:
    def study_args(self, synth, out, variant="m1"):
        corpus, annotations, meta = synth
        return (
            "study",
            "--corpus", corpus,
            "--annotations", annotations,
            "--party-meta", meta,
            "--min-tweets", 0,
            "--model-variant", variant,
            "--out", out,
        )

    def test_model1_shape(self, synth, tmp_path):
        out = tmp_path / "m1"
        assert run(*self.study_args(synth, out)) == 0
        regression = json.loads((out / "regression.json").read_text(encoding="utf-8"))
        assert regression["n"] == 151
        assert regression["n_clusters"] == 19
        names = [c["name"] for c in regression["coefficients"]]
        assert names[:4] == ["(Intercept)", "Government experience", "Anti-elite salience", "Ideological extreme"]
        for coef in regression["coefficients"]:
            assert coef["ci_low"] <= coef["estimate"] <= coef["ci_high"]
        aggregates = (out / "aggregates.csv").read_text(encoding="utf-8").splitlines()
        assert aggregates[0] == "party_id,country,n_total,n_original,n_negative_original,pct_negative"
        assert len(aggregates) == 152
        assert (out / "figure1_country.csv").exists()
        assert (out / "figure2_party.csv").exists()
        assert not (out / "marginal_means.csv").exists()

    def test_model2_swaps_ideology_term(self, synth, tmp_path):
        out = tmp_path / "m2"
        assert run(*self.study_args(synth, out, variant="m2")) == 0
        names = [c["name"] for c in json.loads((out / "regression.json").read_text(encoding="utf-8"))["coefficients"]]
        assert "General Left-Right" in names
        assert "Ideological extreme" not in names

    def test_family_model_emits_marginal_means(self, synth, tmp_path):
        out = tmp_path / "family"
        assert run(*self.study_args(synth, out, variant="family")) == 0
        lines = (out / "marginal_means.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "family,predicted,ci_low,ci_high,n_obs,flags"
        assert len(lines) == 12  # 11 families present + header
        manifest = json.loads((out / "manifest_study.json").read_text(encoding="utf-8"))
        assert manifest["model_variant"] == "family"

    def test_rank_deficient_exit_5(self, tmp_path, capsys):
        # anti-elite salience constructed as an exact multiple of extremism
        corpus_lines = []
        meta_rows = ["party_id,country,lrgen,govt,antielite_salience,family,name"]
        annotation_rows = []
        for i in range(8):
            pid = f"p{i}"
            lrgen = 5.0 + 0.5 * i
            meta_rows.append(f"{pid},GB,{lrgen},{i % 2},{2 * abs(5 - lrgen)},socialist,P{i}")
            for j in range(3):
                doc_id = f"{pid}_d{j}"
                corpus_lines.append(json.dumps({
                    "id": doc_id, "text": "m", "lang": "en", "country": "GB", "author": "a",
                    "party": pid, "created_at": "2020-01-01T00:00:00Z", "retweet": False,
                }))
                annotation_rows.append(json.dumps({
                    "doc_id": doc_id, "label": j % 2, "raw_response": "1", "model_id": "m",
                    "prompt_hash": "0" * 16, "input_tokens": 1, "output_tokens": 1,
                }))
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
        annotations = tmp_path / "a.jsonl"
        annotations.write_text("\n".join(annotation_rows) + "\n", encoding="utf-8")
        meta = tmp_path / "p.csv"
        meta.write_text("\n".join(meta_rows) + "\n", encoding="utf-8")
        code = run(
            "study", "--corpus", corpus, "--annotations", annotations, "--party-meta", meta,
            "--min-tweets", 0, "--out", tmp_path / "out",
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "Anti-elite salience" in err or "Ideological extreme" in err

    def test_study_rerun_byte_identical(self, synth, tmp_path):
        out = tmp_path / "again"
        assert run(*self.study_args(synth, out)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*self.study_args(synth, out)) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_invalid_model_variant(self, synth, tmp_path):
        corpus, annotations, meta = synth
        # argparse rejects the bad choice itself, with the config exit status
        with pytest.raises(SystemExit) as err:
            run(
                "study", "--corpus", corpus, "--annotations", annotations, "--party-meta", meta,
                "--model-variant", "m3", "--out", tmp_path,
            )
        assert err.value.code == 2


class TestManifests:
    def test_manifests_have_no_absolute_paths(self, data_dir, tmp_path):
        out = tmp_path / "deep" / "nested" / "out"
        assert annotate_fixture(data_dir, out) == 0
        manifest = (out / "manifest_annotate.json").read_text(encoding="utf-8")
        assert str(tmp_path) not in manifest
        assert "corpus.jsonl" in manifest

    def test_config_digest_stable_across_out_dirs(self, data_dir, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert annotate_fixture(data_dir, out) == 0
        manifests = [(out / "manifest_annotate.json").read_bytes() for out in outs]
        assert manifests[0] == manifests[1]

    def test_codebook_setting_ignored_outside_annotate(self, data_dir, golden_dir, tmp_path):
        # a config shared across commands may name a codebook that only
        # annotate resolves; evaluate and study neither need nor digest it
        config_path = tmp_path / "shared.json"
        config_path.write_text(json.dumps({"codebook": "no_such_codebook"}), encoding="utf-8")
        annotations = golden_dir / "annotations.jsonl"
        out = tmp_path / "out"
        assert run(
            "evaluate", "--config", config_path, "--corpus", data_dir / "corpus.jsonl",
            "--gold", data_dir / "gold.csv", "--annotations", annotations, "--out", out,
        ) == 0
        assert (out / "manifest_evaluate.json").read_bytes() == (golden_dir / "manifest_evaluate.json").read_bytes()
        assert run(
            "study", "--config", config_path, "--corpus", data_dir / "corpus.jsonl",
            "--annotations", annotations, "--party-meta", data_dir / "parties.csv",
            "--min-tweets", 0, "--model-variant", "m1", "--out", out / "study_m1",
        ) == 0
        assert (out / "study_m1" / "manifest_study.json").read_bytes() == (
            golden_dir / "study_m1" / "manifest_study.json"
        ).read_bytes()
