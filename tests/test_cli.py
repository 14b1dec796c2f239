import json
import os
import stat
import subprocess
import sys

import pytest

import negcamp
from helpers import JSON_PAST_LIMITS, completion, respond, synthetic_study_files
from negcamp import cli
from negcamp.annotate import MockTransport, read_labels
from negcamp.cli import main
from negcamp.ingest import Corpus


SRC = os.path.dirname(os.path.dirname(negcamp.__file__))


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

    def test_annotations_encoded_as_cache_lines(self, data_dir, tmp_path):
        out = tmp_path / "out"
        for _ in range(2):  # a cold run, then a re-run served from the cache
            assert annotate_fixture(data_dir, out) == 0
            cached = set((out / "cache.jsonl").read_bytes().splitlines(keepends=True))
            lines = (out / "annotations.jsonl").read_bytes().splitlines(keepends=True)
            assert len(lines) == 60
            assert set(lines) <= cached

    @pytest.mark.parametrize("label", [7, None])
    def test_cached_label_checked_against_raw_response(self, data_dir, golden_dir, tmp_path, monkeypatch, caplog, label):
        golden = (golden_dir / "annotations.jsonl").read_text(encoding="utf-8")
        records = [json.loads(line) for line in golden.splitlines()]
        assert records[0]["doc_id"] == "d001" and records[0]["raw_response"] == "0"
        records[0]["label"] = label
        cache = tmp_path / "cache.jsonl"
        cache.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        calls = []
        complete = MockTransport.complete

        def recording(self, system_text, user_text, config, doc_id=""):
            calls.append(doc_id)
            return complete(self, system_text, user_text, config, doc_id=doc_id)

        monkeypatch.setattr(MockTransport, "complete", recording)
        assert annotate_fixture(data_dir, tmp_path / "out", extra=("--cache", cache)) == 0
        assert calls == ["d001"]
        assert (tmp_path / "out" / "annotations.jsonl").read_text(encoding="utf-8") == golden
        assert "skipping unreadable entry" in caplog.text

    def test_records_not_utf8_rejected(self, data_dir, golden_dir, tmp_path):
        # the fixture plus a lone surrogate escape in a text and undecodable bytes in an id
        corpus = tmp_path / "corpus.jsonl"
        first = json.loads((data_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
        surrogate = json.dumps(dict(first, id="x1", text="bad \ud800 text")).encode()
        undecodable = json.dumps(dict(first, id="x2")).encode().replace(b"x2", b"x\xff\xfe")
        corpus.write_bytes((data_dir / "corpus.jsonl").read_bytes() + surrogate + b"\n" + undecodable + b"\n")
        rejections = (
            '{"doc_id": "x1", "line": 61, "reason": "invalid text: a lone surrogate or bytes that are not UTF-8"}\n'
            '{"doc_id": "x\\\\udcff\\\\udcfe", "line": 62, "reason": "invalid id: a lone surrogate or bytes that are not UTF-8"}\n'
        )
        code = run(
            "annotate", "--corpus", corpus, "--mock", data_dir / "mock_responses.jsonl", "--codebook", "main_study",
            "--variant", "no_context:original", "--out", tmp_path / "annotate",
        )
        assert code == 0
        assert (tmp_path / "annotate" / "rejections.jsonl").read_text(encoding="utf-8") == rejections
        golden = (golden_dir / "annotations.jsonl").read_text(encoding="utf-8")
        assert (tmp_path / "annotate" / "annotations.jsonl").read_text(encoding="utf-8") == golden
        code = run(
            "evaluate", "--corpus", corpus, "--gold", data_dir / "gold.csv",
            "--annotations", golden_dir / "annotations.jsonl", "--out", tmp_path / "evaluate",
        )
        assert code == 0
        assert (tmp_path / "evaluate" / "rejections.jsonl").read_text(encoding="utf-8") == rejections

    def test_no_api_key_without_mock(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NEGCAMP_API_KEY", raising=False)
        code = run("annotate", "--corpus", data_dir / "corpus.jsonl", "--out", tmp_path)
        assert code == 2
        assert "NEGCAMP_API_KEY" in capsys.readouterr().err

    def test_rejected_api_key_exits_2(self, data_dir, tmp_path, capsys, monkeypatch, provider):
        server = provider(respond(401))
        monkeypatch.setenv("NEGCAMP_API_KEY", "test-key")
        monkeypatch.setenv("NEGCAMP_ENDPOINT", server.url)
        code = run("annotate", "--corpus", data_dir / "corpus.jsonl", "--concurrency", 4, "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "401" in err and "test-key" not in err
        assert server.requests <= 4
        assert not (tmp_path / "annotations.jsonl").exists()

    def test_live_endpoint_gives_the_mock_run_s_labels_without_requests(self, data_dir, golden_dir, tmp_path, provider):
        # one worker takes the documents in id order, so the script answers each as the mock file does
        with (data_dir / "mock_responses.jsonl").open(encoding="utf-8") as fh:
            mock = dict(sorted((r["doc_id"], r["response"]) for r in map(json.loads, fh)))
        server = provider(*map(completion, mock.values()))
        code = (
            "import sys\nsys.modules['requests'] = None\nfrom negcamp.cli import main\n"
            f"sys.exit(main(['annotate', '--corpus', {str(data_dir / 'corpus.jsonl')!r}, '--concurrency', '1', "
            f"'--out', {str(tmp_path)!r}]))"
        )
        env = {**os.environ, "NEGCAMP_API_KEY": "test-key", "NEGCAMP_ENDPOINT": server.url, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert server.requests == 60
        assert read_labels(tmp_path / "annotations.jsonl") == read_labels(golden_dir / "annotations.jsonl")

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

    @pytest.mark.parametrize(
        "bad_line, error",
        [
            ('{"doc_id": "d002", "response": "1"', "JSONDecodeError"),
            ('{"response": "1"}', "KeyError: 'doc_id'"),
            ('{"doc_id": "d002"}', "KeyError: 'response'"),
            ('["d002", "1"]', "TypeError"),
            ("[" * 100_000 + "]" * 100_000, "ValueError: nested too deeply"),
            ('{"doc_id": "d002", "response": ' + "1" * 5_000 + "}", "ValueError: an integer with too many digits"),
        ],
        ids=["bad-json", "no-doc-id", "no-response", "not-object", "too-deep", "too-many-digits"],
    )
    def test_malformed_mock_exits_2(self, data_dir, tmp_path, capsys, bad_line, error):
        first = (data_dir / "mock_responses.jsonl").read_text(encoding="utf-8").splitlines()[0]
        mock = tmp_path / "mock.jsonl"
        mock.write_text(first + "\n" + bad_line + "\n", encoding="utf-8")
        code = run("annotate", "--corpus", data_dir / "corpus.jsonl", "--mock", mock, "--out", tmp_path / "out")
        assert code == 2
        assert f"config error: malformed record in mock file {mock}: line 2: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", JSON_PAST_LIMITS)
    def test_config_file_past_json_limits_exits_2(self, tmp_path, capsys, text, reason):
        config_path = tmp_path / "run.json"
        config_path.write_text(text, encoding="utf-8")
        assert run("annotate", "--config", config_path, "--out", tmp_path / "out") == 2
        assert f"config error: cannot read config file {config_path}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", JSON_PAST_LIMITS)
    def test_codebook_file_past_json_limits_exits_2(self, data_dir, tmp_path, capsys, text, reason):
        codebook = tmp_path / "codebook.json"
        codebook.write_text(text, encoding="utf-8")
        assert annotate_fixture(data_dir, tmp_path / "out", extra=("--codebook", codebook)) == 2
        assert f"config error: cannot load codebook {codebook}: {reason}" in capsys.readouterr().err

    def test_cache_line_nested_too_deeply_skipped(self, data_dir, golden_dir, tmp_path, caplog):
        golden = (golden_dir / "annotations.jsonl").read_text(encoding="utf-8")
        cache = tmp_path / "cache.jsonl"
        cache.write_text("[" * 100_000 + "]" * 100_000 + "\n" + golden, encoding="utf-8")
        assert annotate_fixture(data_dir, tmp_path / "out", extra=("--cache", cache)) == 0
        assert (tmp_path / "out" / "annotations.jsonl").read_text(encoding="utf-8") == golden
        assert "skipping unreadable entry" in caplog.text

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("threshold", [float("nan"), 2, -0.01, float("inf")], ids=["nan", "2", "negative", "inf"])
    def test_failure_threshold_outside_unit_interval_exits_2_before_input_read(
        self, data_dir, tmp_path, capsys, monkeypatch, route, threshold
    ):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("read_corpus", "ingest_documents", "read_labels"):
            monkeypatch.setattr(cli, name, unread)
        if route == "flag":
            setting = ("--failure-threshold", threshold)
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"failure_threshold": threshold}), encoding="utf-8")  # NaN and Infinity
            setting = ("--config", config)
        assert annotate_fixture(data_dir, tmp_path / "out", extra=setting) == 2
        assert "config error: failure_threshold must be a number in [0, 1], not " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_unknown_key(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"out": "o", "coprus": "typo.jsonl"}), encoding="utf-8")
        assert run("annotate", "--config", config_path) == 2
        assert "coprus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("study", {"include_retweets": "no"}, 'include_retweets must be true or false, not "no"'),
        ("annotate", {"failure_threshold": "x"}, 'failure_threshold must be a number, not "x"'),
        ("annotate", {"concurrency": "8"}, 'concurrency must be an integer, not "8"'),
    ],
    ids=["bool-as-string", "threshold-as-string", "concurrency-as-string"],
)
def test_config_value_of_wrong_type_exits_2_before_input_read(
    data_dir, golden_dir, tmp_path, capsys, monkeypatch, command, setting, message
):
    def unread(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("read_corpus", "ingest_documents", "read_labels"):
        monkeypatch.setattr(cli, name, unread)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(setting), encoding="utf-8")
    inputs = {
        "annotate": ("--mock", data_dir / "mock_responses.jsonl"),
        "study": ("--annotations", golden_dir / "annotations.jsonl", "--party-meta", data_dir / "parties.csv"),
    }[command]
    code = run(command, "--config", config, "--corpus", data_dir / "corpus.jsonl", *inputs, "--out", tmp_path / "out")
    assert code == 2
    assert f"config error: config key {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def corrupt_annotations(golden_dir, tmp_path, defect):
    """The golden annotations with the first record given a non-binary label
    or stripped of its prompt hash."""
    records = [json.loads(line) for line in (golden_dir / "annotations.jsonl").read_text(encoding="utf-8").splitlines()]
    if defect == "label-7":
        records[0]["label"] = 7
    else:
        del records[0]["prompt_hash"]
    path = tmp_path / "annotations.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.mark.parametrize("defect", ["label-7", "no-prompt-hash"])
class TestMalformedAnnotations:
    def test_evaluate_exits_2(self, data_dir, golden_dir, tmp_path, capsys, defect):
        annotations = corrupt_annotations(golden_dir, tmp_path, defect)
        out = tmp_path / "out"
        code = run(
            "evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", data_dir / "gold.csv",
            "--annotations", annotations, "--out", out,
        )
        assert code == 2
        assert f"config error: malformed record in annotations file {annotations}" in capsys.readouterr().err
        assert not (out / "evaluation.json").exists()

    def test_study_exits_2(self, data_dir, golden_dir, tmp_path, capsys, defect):
        annotations = corrupt_annotations(golden_dir, tmp_path, defect)
        out = tmp_path / "out"
        code = run(
            "study", "--corpus", data_dir / "corpus.jsonl", "--annotations", annotations,
            "--party-meta", data_dir / "parties.csv", "--min-tweets", 0, "--out", out,
        )
        assert code == 2
        assert f"config error: malformed record in annotations file {annotations}" in capsys.readouterr().err
        assert not (out / "aggregates.csv").exists()


@pytest.mark.parametrize("text, reason", JSON_PAST_LIMITS)
@pytest.mark.parametrize("command", ["evaluate", "study"])
def test_annotation_line_past_json_limits_exits_2(data_dir, golden_dir, tmp_path, capsys, command, text, reason):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text((golden_dir / "annotations.jsonl").read_text(encoding="utf-8") + text + "\n", encoding="utf-8")
    inputs = {"evaluate": ("--gold", data_dir / "gold.csv"), "study": ("--party-meta", data_dir / "parties.csv")}[command]
    code = run(command, "--corpus", data_dir / "corpus.jsonl", "--annotations", annotations, *inputs, "--out", tmp_path / "out")
    assert code == 2
    assert f"config error: malformed record in annotations file {annotations}: ValueError: {reason}" in capsys.readouterr().err


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


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("concurrency", [0, -1])
def test_concurrency_below_1_exits_2_before_input_read(data_dir, tmp_path, capsys, monkeypatch, route, concurrency):
    def unread(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "ingest_documents", unread)
    monkeypatch.setattr(cli.MockTransport, "from_jsonl", unread)
    if route == "flag":
        setting = ("--concurrency", concurrency)
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"concurrency": concurrency}), encoding="utf-8")
        setting = ("--config", config)
    assert annotate_fixture(data_dir, tmp_path / "out", extra=setting) == 2
    assert f"config error: concurrency must be at least 1, not {concurrency}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_every_output_file_has_the_umask_s_mode(data_dir, golden_dir, tmp_path, umask):
    """Each file a command writes, atomically or by appending, is created
    with mode 0o666 less the umask, as ``open`` creates one."""
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert annotate_fixture(data_dir, out) == 0
        assert run("evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", data_dir / "gold.csv", "--out", out) == 0
        assert run(
            "study", "--corpus", data_dir / "corpus.jsonl", "--party-meta", data_dir / "parties.csv", "--min-tweets", 0,
            "--model-variant", "family", "--out", out,
        ) == 0
    finally:
        os.umask(previous)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert {"annotations.jsonl", "cache.jsonl", "evaluation.json", "corpus_index.jsonl", "marginal_means.csv"} <= set(modes)
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


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


@pytest.mark.parametrize("which", ["gold", "party_meta"])
def test_curated_csv_not_utf8_exits_2(data_dir, golden_dir, tmp_path, capsys, which):
    annotations, out = golden_dir / "annotations.jsonl", tmp_path / "out"
    if which == "gold":
        bad, line = tmp_path / "gold.csv", 2
        bad.write_bytes(b"doc_id,coder_id,label\nd001,c\xff1,1\n")
        argv = ("evaluate", "--gold", bad)
    else:
        bad, line = tmp_path / "parties.csv", 3
        rows = (data_dir / "parties.csv").read_bytes().splitlines(keepends=True)
        rows[line - 1] = rows[line - 1].replace(b"Christlich", b"Christ\xfflich")
        bad.write_bytes(b"".join(rows))
        argv = ("study", "--party-meta", bad, "--min-tweets", 0)
    code = run(*argv, "--corpus", data_dir / "corpus.jsonl", "--annotations", annotations, "--out", out)
    assert code == 2
    assert f"config error: {bad.name} line {line}: bytes that are not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["flag", "config"])
def test_negative_min_tweets_exits_2_before_corpus_read(data_dir, golden_dir, tmp_path, capsys, monkeypatch, route):
    def unread(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(cli, "read_corpus", unread)
    if route == "flag":
        setting = ("--min-tweets", -1)
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_tweets": -1}), encoding="utf-8")
        setting = ("--config", config)
    code = run(
        "study", "--corpus", data_dir / "corpus.jsonl", "--annotations", golden_dir / "annotations.jsonl",
        "--party-meta", data_dir / "parties.csv", *setting, "--out", tmp_path / "out",
    )
    assert code == 2
    assert "config error: min_tweets must be a non-negative integer, not -1" in capsys.readouterr().err


class TestStreamedCorpus:
    """evaluate and study read the corpus as one stream, in file order."""

    def run_both(self, data_dir, golden_dir, corpus, out):
        annotations = golden_dir / "annotations.jsonl"
        assert run(
            "evaluate", "--corpus", corpus, "--gold", data_dir / "gold.csv", "--annotations", annotations, "--out", out,
        ) == 0
        assert run(
            "study", "--corpus", corpus, "--annotations", annotations, "--party-meta", data_dir / "parties.csv",
            "--min-tweets", 0, "--model-variant", "m1", "--out", out / "study_m1",
        ) == 0

    def test_reversed_corpus_gives_identical_outputs(self, data_dir, golden_dir, tmp_path):
        lines = (data_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        corpus = tmp_path / "reversed.jsonl"
        corpus.write_text("".join(reversed(lines)), encoding="utf-8")
        out = tmp_path / "out"
        self.run_both(data_dir, golden_dir, corpus, out)
        for name in (
            "evaluation.json", "study_m1/aggregates.csv", "study_m1/figure1_country.csv", "study_m1/figure2_party.csv",
            "study_m1/regression.json",
        ):
            assert (out / name).read_bytes() == (golden_dir / name).read_bytes(), name

    def test_no_corpus_built(self, data_dir, golden_dir, tmp_path, monkeypatch):
        def refuse(self, rows):
            raise AssertionError("a Corpus was built")

        monkeypatch.setattr(Corpus, "__init__", refuse)
        self.run_both(data_dir, golden_dir, data_dir / "corpus.jsonl", tmp_path / "out")


def with_bad_record(data_dir, tmp_path):
    """The fixture corpus plus one record without an id: one rejection."""
    corpus = tmp_path / "corpus_with_rejection.jsonl"
    corpus.write_bytes((data_dir / "corpus.jsonl").read_bytes() + b'{"text": "no id"}\n')
    return corpus


class TestNoStaleOutputs:
    """A command run into an OUT removes the outputs it owns that this run
    did not write, so none of an earlier run's survives."""

    def test_clean_annotate_removes_failures_and_rejections(self, data_dir, tmp_path):
        full = (data_dir / "mock_responses.jsonl").read_text(encoding="utf-8").splitlines()
        mock = tmp_path / "mock_without_d001.jsonl"
        mock.write_text("".join(line + "\n" for line in full if json.loads(line)["doc_id"] != "d001"), encoding="utf-8")
        out = tmp_path / "out"
        code = run("annotate", "--corpus", with_bad_record(data_dir, tmp_path), "--mock", mock, "--out", out)
        assert code == 3
        assert (out / "failures.jsonl").exists() and (out / "rejections.jsonl").exists()
        assert annotate_fixture(data_dir, out) == 0
        assert not (out / "failures.jsonl").exists()
        assert not (out / "rejections.jsonl").exists()

    def test_m1_after_family_removes_marginal_means(self, synth, tmp_path):
        corpus, annotations, meta = synth
        common = ["--corpus", corpus, "--annotations", annotations, "--party-meta", meta, "--min-tweets", 0]
        assert run("study", *common, "--model-variant", "family", "--out", tmp_path) == 0
        assert (tmp_path / "marginal_means.csv").exists()
        assert run("study", *common, "--model-variant", "m1", "--out", tmp_path) == 0
        assert not (tmp_path / "marginal_means.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "study"])
    def test_corpus_without_rejections_removes_them(self, data_dir, golden_dir, tmp_path, command):
        out = tmp_path / "out"
        common = ["--annotations", golden_dir / "annotations.jsonl", "--out", out]
        if command == "evaluate":
            common += ["--gold", data_dir / "gold.csv"]
        else:
            common += ["--party-meta", data_dir / "parties.csv", "--min-tweets", 0]
        assert run(command, "--corpus", with_bad_record(data_dir, tmp_path), *common) == 0
        assert (out / "rejections.jsonl").exists()
        assert run(command, "--corpus", data_dir / "corpus.jsonl", *common) == 0
        assert not (out / "rejections.jsonl").exists()
