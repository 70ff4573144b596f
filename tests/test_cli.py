import contextlib
import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pddiag import cli
from pddiag.cli import PREDICTION_FIELDS, _config, build_parser, main, read_predictions, write_predictions
from pddiag.cohort import Cohort, SubjectRecord, read_manifest, write_manifest
from pddiag.config import SCHEMA, ConfigError, RunConfig, load_config
from pddiag.diagnoser import Label
from pddiag.preprocess import ToolConfig
from pddiag.priors import AgingPriorParams, save_relevance_table
from pddiag.synth import SynthConfig, generate_cohort
from pddiag.training import PredictionRecord, TrainConfig, load_checkpoint, save_checkpoint_atomic
from pddiag.volume_io import write_atlas, write_volume


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """A small synth -> train 1,2,3 -> predict pipeline shared by read-only tests."""
    root = tmp_path_factory.mktemp("mini")
    data = root / "data"
    out = root / "run"
    assert run_cli("synth", "--out", data, "--n", 16, "--dims", 16, "--seed", 9, "--noise-std", 2.0) == 0
    common = [
        "--manifest", data / "manifest.csv",
        "--atlas", data / "atlas.nii",
        "--relevance", data / "relevance.csv",
    ]
    for stage in (1, 2, 3):
        code = run_cli("train", "--stage", stage, "--out-dir", out, "--epochs", 3, "--seed", 4, *common)
        assert code == 0
    pred = root / "pred.csv"
    assert run_cli("predict", "--checkpoint", out / "stage3.ckpt", "--out", pred, *common) == 0
    return {"data": data, "out": out, "pred": pred, "common": common}


class TestSynthCommand:
    def test_deterministic_output_tree(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "--out", out, "--n", 4, "--dims", 8, "--seed", 3) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_zero_subjects_ok(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "z", "--n", 0, "--dims", 8) == 0
        manifest = (tmp_path / "z" / "manifest.csv").read_text().splitlines()
        assert manifest == ["subject_id,path,age,label,is_healthy"]
        assert (tmp_path / "z" / "atlas.nii").exists()

    def test_indivisible_dims_fail_loudly(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "x", "--n", 2, "--dims", 30) == 1
        assert "divisible" in capsys.readouterr().err

    def test_streamed_tree_equals_in_memory_cohort(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path / "cli", "--n", 6, "--dims", 8, "--seed", 5) == 0
        ref = tmp_path / "ref"
        (ref / "volumes").mkdir(parents=True)
        cohort, satlas = generate_cohort(SynthConfig(n_subjects=6, dims=(8, 8, 8), seed=5))
        for rec in cohort:
            rec.path = f"volumes/{rec.subject_id}.nii"
            write_volume(rec.volume, ref / rec.path)
        write_atlas(satlas.atlas, ref / "atlas.nii")
        save_relevance_table(satlas.table, ref / "relevance.csv")
        write_manifest(cohort, ref / "manifest.csv")
        assert len(tree_digest(ref)) == 6 + 3
        assert tree_digest(tmp_path / "cli") == tree_digest(ref)

    def test_traced_peak_does_not_grow_with_n(self, tmp_path):
        def peak(n: int) -> int:
            tracemalloc.start()
            try:
                assert run_cli("synth", "--out", tmp_path / str(n), "--n", n, "--dims", 32, "--seed", 1) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the cohort held in memory would add 60 float64 volumes of 256 KiB each
        assert peak(64) - peak(4) < 1 << 20

    def test_non_finite_setting_fails_before_any_file(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "o", "--n", 2, "--dims", 8, "--noise-std", "nan") == 1
        assert "noise_std" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_write_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        # a complete earlier run into the same directory must not leave its manifest
        # listing a mix of old and new volumes
        assert run_cli("synth", "--out", tmp_path / "o", "--n", 4, "--dims", 8, "--seed", 1) == 0
        calls = []

        def failing_second_write(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            write_volume(*args, **kwargs)

        monkeypatch.setattr(cli, "write_volume", failing_second_write)
        assert run_cli("synth", "--out", tmp_path / "o", "--n", 4, "--dims", 8, "--seed", 2) == 1
        assert "disk full" in capsys.readouterr().err
        assert len(calls) == 2
        assert not (tmp_path / "o" / "manifest.csv").exists()

    def test_smaller_rerun_removes_stale_volumes(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("synth", "--out", out, "--n", 6, "--dims", 8, "--seed", 1) == 0
        (out / "volumes" / "keep.txt").write_text("not a synth volume")
        assert run_cli("synth", "--out", out, "--n", 2, "--dims", 8, "--seed", 1) == 0
        assert sorted(p.name for p in (out / "volumes").iterdir()) == ["keep.txt", "s0000.nii", "s0001.nii"]
        assert len((out / "manifest.csv").read_text().splitlines()) == 1 + 2

    def test_unknown_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


# Linux carries a process's resident high-water mark across fork and exec, so
# a child started straight from the test process would report at least this
# process's own RSS. A small launcher starts the measured child instead and
# reads that child's own ru_maxrss from wait4 (RUSAGE_CHILDREN would mix in
# every earlier child of the launcher).
_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _synth_max_rss_kb(out: Path, n: int) -> int:
    """Peak resident set, in KiB, of one ``pddiag synth --dims 32`` child."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    cmd = [sys.executable, "-m", "pddiag.cli", "synth", "--out", str(out), "--n", str(n), "--dims", "32"]
    launched = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, *cmd], env=env, capture_output=True, text=True, timeout=120
    )
    code, max_rss = map(int, launched.stdout.split())
    assert code == 0
    return max_rss


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_synth_rss_does_not_grow_with_n(tmp_path):
    # the in-memory cohort made the n=64 child about 15 MB larger than the n=4 child
    small = _synth_max_rss_kb(tmp_path / "small", 4)
    large = _synth_max_rss_kb(tmp_path / "large", 64)
    assert abs(large - small) < 4 * 1024


class TestTrainCommand:
    def test_missing_prerequisite_names_stage(self, tmp_path, mini_run, capsys):
        code = run_cli(
            "train", "--stage", 3, "--out-dir", tmp_path / "fresh", "--epochs", 1, *mini_run["common"]
        )
        assert code == 1
        assert "stage 2" in capsys.readouterr().err

    def test_stage2_requires_stage1_checkpoint(self, tmp_path, mini_run, capsys):
        code = run_cli(
            "train", "--stage", 2, "--out-dir", tmp_path / "fresh2", "--epochs", 1, *mini_run["common"]
        )
        assert code == 1
        assert "stage 1" in capsys.readouterr().err
        assert not (tmp_path / "fresh2").exists()

    @pytest.mark.parametrize(
        "stage, source, recorded", [(3, "stage1.ckpt", 1), (2, "stage2.ckpt", 2), (2, None, None)]
    )
    def test_previous_checkpoint_of_wrong_stage_refused(self, tmp_path, mini_run, capsys, stage, source, recorded):
        out = tmp_path / "wrong"
        out.mkdir()
        prev = out / f"stage{stage - 1}.ckpt"
        if source is None:  # a checkpoint that records no stage
            params = load_checkpoint(mini_run["out"] / "stage1.ckpt")[0]
            save_checkpoint_atomic(params, None, prev)
        else:
            shutil.copyfile(mini_run["out"] / source, prev)
        before = tree_digest(out)
        code = run_cli("train", "--stage", stage, "--out-dir", out, "--epochs", 1, *mini_run["common"])
        assert code == 1
        assert f"records stage {recorded}, expected {stage - 1}" in capsys.readouterr().err
        assert tree_digest(out) == before

    def test_previous_checkpoint_of_other_width_refused(self, tmp_path, mini_run, capsys):
        out = tmp_path / "narrow"
        out.mkdir()
        shutil.copyfile(mini_run["out"] / "stage1.ckpt", out / "stage1.ckpt")
        before = tree_digest(out)
        code = run_cli("train", "--stage", 2, "--out-dir", out, "--channels", 4, *mini_run["common"])
        assert code == 1
        assert "has 8 channels, [model] channels is 4" in capsys.readouterr().err
        assert tree_digest(out) == before

    @pytest.mark.parametrize(
        "flag, value, setting",
        [("--epochs", 0, "epochs"), ("--batch", 0, "batch"), ("--lr", 0.0, "lr"), ("--weight-decay", -1.0, "weight_decay")],
    )
    def test_bad_setting_writes_nothing(self, tmp_path, mini_run, capsys, flag, value, setting):
        out = tmp_path / "bad"
        code = run_cli("train", "--stage", 1, "--out-dir", out, flag, value, *mini_run["common"])
        assert code == 1
        assert f"error: {setting} must" in capsys.readouterr().err
        assert not out.exists()

    def test_three_checkpoints_written(self, mini_run):
        for stage in (1, 2, 3):
            assert (mini_run["out"] / f"stage{stage}.ckpt").exists()
            assert (mini_run["out"] / f"stage{stage}_trace.csv").exists()

    def test_seeded_trace_is_reproducible(self, tmp_path, mini_run):
        out2 = tmp_path / "re"
        code = run_cli(
            "train", "--stage", 1, "--out-dir", out2, "--epochs", 3, "--seed", 4, *mini_run["common"]
        )
        assert code == 0
        assert (out2 / "stage1_trace.csv").read_bytes() == (mini_run["out"] / "stage1_trace.csv").read_bytes()


class TestPredictEvaluateReport:
    def test_predict_deterministic(self, tmp_path, mini_run):
        again = tmp_path / "again.csv"
        code = run_cli("predict", "--checkpoint", mini_run["out"] / "stage3.ckpt", "--out", again, *mini_run["common"])
        assert code == 0
        assert again.read_bytes() == mini_run["pred"].read_bytes()

    @pytest.mark.parametrize("name", ["branch1.head_b", "branch2.head_b", "branch2.conv_w"])
    def test_non_finite_checkpoint_writes_no_predictions(self, tmp_path, mini_run, capsys, name):
        params = load_checkpoint(mini_run["out"] / "stage3.ckpt")[0]
        dict(params.named_params())[name].data.flat[0] = float("nan")
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint_atomic(params, None, ckpt, stage=3)
        out = tmp_path / "pred.csv"
        assert run_cli("predict", "--checkpoint", ckpt, "--out", out, *mini_run["common"]) == 1
        assert f"array {name} holds NaN or Inf" in capsys.readouterr().err
        assert not out.exists()

    def test_predictions_parse(self, mini_run):
        records = read_predictions(mini_run["pred"])
        assert len(records) == 16
        assert all(0.0 <= r.p_pd <= 1.0 for r in records)

    def test_evaluate_from_predictions_fixture(self, tmp_path, capsys):
        # TP=3, TN=4, FP=1, FN=2 -> ACC 0.7, TPR 0.6, FPR 0.2
        rows = ["subject_id,label,p_pd,delta,predicted_age,decision"]
        rows += [f"tp{i},pd,0.9,10.0,75.0,pd" for i in range(3)]
        rows += [f"tn{i},other,0.1,0.0,65.0,other" for i in range(4)]
        rows += ["fp0,other,0.8,8.0,73.0,pd"]
        rows += [f"fn{i},pd,0.2,1.0,66.0,other" for i in range(2)]
        fixture = tmp_path / "fix.csv"
        fixture.write_text("\n".join(rows) + "\n")
        out = tmp_path / "metrics.txt"
        assert run_cli("evaluate", "--predictions", fixture, "--out", out) == 0
        text = out.read_text()
        assert "acc=0.7\n" in text
        assert "tpr=0.6\n" in text
        assert "fpr=0.2\n" in text
        assert "tp=3" in text and "tn=4" in text and "fp=1" in text and "fn=2" in text

    def test_evaluate_from_model(self, mini_run, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code = run_cli(
            "evaluate", "--checkpoint", mini_run["out"] / "stage3.ckpt", "--out", out, *mini_run["common"]
        )
        assert code == 0
        assert "acc=" in out.read_text()

    def test_evaluate_unlabeled_suggests_predict(self, tmp_path, capsys):
        fixture = tmp_path / "nolabel.csv"
        fixture.write_text(
            "subject_id,label,p_pd,delta,predicted_age,decision\ns0,,0.9,1.0,66.0,pd\ns1,pd,0.2,0.0,65.0,other\n"
        )
        assert run_cli("evaluate", "--predictions", fixture) == 1
        assert "predict" in capsys.readouterr().err

    def test_report_roc_and_confusion(self, mini_run, tmp_path, capsys):
        roc = tmp_path / "roc.csv"
        assert run_cli("report", "--predictions", mini_run["pred"], "--out-roc", roc) == 0
        lines = roc.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert lines[1].startswith("0.0,0.0,inf")
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0
        assert "confusion matrix" in capsys.readouterr().out

    def test_report_unlabeled_writes_no_roc(self, tmp_path, capsys):
        fixture = tmp_path / "nolabel.csv"
        fixture.write_text(
            "subject_id,label,p_pd,delta,predicted_age,decision\ns0,,0.9,1.0,66.0,pd\ns1,pd,0.2,0.0,65.0,other\n"
        )
        roc = tmp_path / "roc.csv"
        assert run_cli("report", "--predictions", fixture, "--out-roc", roc) == 1
        assert "predict" in capsys.readouterr().err
        assert not roc.exists()


PREDICTION_HEADER = ",".join(PREDICTION_FIELDS)


class TestReadPredictions:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("s2,pd,0.9,1.0", "expected 6 fields"),  # short row
            ("s2,pd,0.9,1.0,66.0,pd,extra", "expected 6 fields"),  # long row
            ("s2,pd,high,1.0,66.0,pd", "high"),
            ("s2,pd,nan,1.0,66.0,pd", "p_pd must lie in"),
            ("s2,pd,1.5,1.0,66.0,pd", "p_pd must lie in"),
            ("s2,pd,0.9,far,66.0,pd", "far"),
            ("s2,pd,0.9,1.0,old,pd", "old"),
            ("s2,maybe,0.9,1.0,66.0,pd", "maybe"),
            ("s2,pd,0.9,1.0,66.0,", "''"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "pred.csv"
        path.write_text("\n".join([PREDICTION_HEADER, "s1,other,0.1,0.0,65.0,other", row]) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_predictions(path)
        assert f"{path}, line 3: " in str(info.value)

    def test_written_bytes(self, tmp_path):
        records = [
            PredictionRecord('a,"b', Label.PD, 0.1, -2.5, 62.5, Label.OTHER),
            PredictionRecord("u1", None, 0.75, 1e-05, 66.0, Label.PD),
        ]
        write_predictions(records, tmp_path / "pred.csv")
        assert (tmp_path / "pred.csv").read_bytes() == (
            b"subject_id,label,p_pd,delta,predicted_age,decision\r\n"
            b'"a,""b",pd,0.1,-2.5,62.5,other\r\n'
            b"u1,,0.75,1e-05,66.0,pd\r\n"
        )

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("id,label,p,delta,age,decision\ns1,pd,0.9,1.0,66.0,pd\n")
        with pytest.raises(ValueError, match="expected header"):
            read_predictions(path)


FIELD = st.sampled_from(["s1", "pd", "other", "", "0.5", "1.5", "-3", "nan", "1e400", '"', "\r"])


class TestMalformedPredictions:
    @settings(max_examples=300, deadline=None)
    @given(
        body=st.one_of(
            st.lists(st.lists(FIELD | st.text(max_size=6), max_size=8).map(",".join), max_size=5).map(
                lambda rows: "\n".join([PREDICTION_HEADER, *rows]).encode()
            ),
            st.binary(max_size=200),
        )
    )
    def test_only_value_errors_escape(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzzed_predictions.csv"
        path.write_bytes(body)
        with contextlib.suppress(ValueError):
            read_predictions(path)


CONFIG_LINE = st.sampled_from(
    ["[prior]", "[train]", "[synth]", "[DEFAULT]", "[nonsense]", "[", "zeta = 9.5", "epochs = 3", "epochs = soon",
     "dims = 1e400", "bogus = 1", "no equals", "  indented", "=", "; comment", "seed = " + "9" * 5000]
) | st.text(max_size=8)  # fmt: skip


class TestMalformedConfig:
    @settings(max_examples=300, deadline=None)
    @given(
        body=st.one_of(
            st.lists(CONFIG_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode()),
            st.binary(max_size=200),
        )
    )
    def test_only_config_errors_escape(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzzed_config.ini"
        path.write_bytes(body)
        try:
            assert isinstance(load_config(path), RunConfig)
        except ConfigError:
            pass


class TestPreprocessCommand:
    def test_rows_without_a_path_fail_before_anything_runs(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        with_path = SubjectRecord("s1", 60.0, path=str(tmp_path / "s1.nii"))
        write_manifest(Cohort([with_path, SubjectRecord("s2", 61.0), SubjectRecord("s3", 62.0)]), manifest)
        cache = tmp_path / "cache"
        assert run_cli("preprocess", "--manifest", manifest, "--cache-dir", cache) == 1
        err = capsys.readouterr().err
        assert "without a path" in err and "s2, s3" in err and "s1" not in err
        assert not cache.exists()

    def test_out_manifest_in_a_subdirectory_lists_loadable_volumes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--out", "data", "--n", 3, "--dims", 8, "--seed", 2) == 0
        Path("run.ini").write_text(
            "[preprocess]\n"
            "strip_cmd = cp {input} {output}\n"
            "bias_cmd = cp {input} {output}\n"
            "register_cmd = sh -c 'cp \"$0\" \"$1\"' {input} {output} {template}\n"
            "template = template.nii\n"
        )
        Path("out").mkdir()
        given = ["--config", "run.ini", "--manifest", "data/manifest.csv", "--out-manifest", "out/processed.csv"]
        assert run_cli("preprocess", *given) == 0
        processed = read_manifest(tmp_path / "out" / "processed.csv")
        raw = read_manifest(tmp_path / "data" / "manifest.csv")
        assert [s.subject_id for s in processed] == [s.subject_id for s in raw]
        for got, want in zip(processed, raw):
            assert got.load_volume().data.tobytes() == want.load_volume().data.tobytes()


class TestSplitCommand:
    def test_writes_stratified_fold_manifests(self, tmp_path, mini_run):
        out = tmp_path / "folds"
        code = run_cli("split", "--manifest", mini_run["data"] / "manifest.csv", "--folds", 4, "--out-dir", out)
        assert code == 0
        all_test_ids = []
        for k in range(4):
            train = read_manifest(out / f"fold{k}_train.csv")
            test = read_manifest(out / f"fold{k}_test.csv")
            assert len(train) + len(test) == 16
            assert sum(1 for s in test if s.label is Label.PD) == 2  # 8 PD over 4 folds
            assert not {s.subject_id for s in train} & {s.subject_id for s in test}
            all_test_ids.extend(s.subject_id for s in test)
        assert len(set(all_test_ids)) == 16

    def test_fold_manifests_resolve_volumes(self, tmp_path, mini_run):
        out = tmp_path / "folds2"
        assert run_cli("split", "--manifest", mini_run["data"] / "manifest.csv", "--folds", 2, "--out-dir", out) == 0
        cohort = read_manifest(out / "fold0_test.csv")
        cohort[0].load_volume()  # paths stayed valid outside the source tree

    def test_multi_fold_evaluate_reports_both_rules(self, tmp_path, capsys):
        header = "subject_id,label,p_pd,delta,predicted_age,decision"
        # fold A: 1 TP, 1 TN -> acc 1.0; fold B: 1 TP, 1 TN, 2 FP -> acc 0.5
        a = tmp_path / "a.csv"
        a.write_text(f"{header}\np0,pd,0.9,10,75,pd\np1,other,0.1,0,65,other\n")
        b = tmp_path / "b.csv"
        b.write_text(
            f"{header}\nq0,pd,0.9,9,74,pd\nq1,other,0.2,0,65,other\nq2,other,0.8,7,70,pd\nq3,other,0.7,8,70,pd\n"
        )
        assert run_cli("evaluate", "--predictions", a, "--predictions", b) == 0
        out = capsys.readouterr().out
        assert "fold0.acc=1.0" in out
        assert "fold1.acc=0.5" in out
        assert "mean.acc=0.75" in out
        assert "pooled.acc=" + repr(4 / 6) in out
        assert "pooled.tp=2" in out


class TestConfig:
    def test_default_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.get("train", "lr") == 1e-3
        assert cfg.get("train", "weight_decay") == 1e-3
        assert cfg.get("train", "batch") == 4
        assert cfg.get("prior", "alpha") == 1.0
        assert cfg.get("prior", "zeta") == 9.5
        assert cfg.get("prior", "tau") == 4.5

    def test_default_digest_is_pinned(self):
        # checkpoints record this digest, so the default dump must not drift
        assert RunConfig().digest() == "648d0bdc130b5e2b"

    def test_data_paths_leave_the_digest_alone(self, tmp_path):
        # the hash names a run's settings, not where its files are
        path = tmp_path / "run.ini"
        path.write_text("[data]\ncohort_manifest = /a/m.csv\natlas_path = atlas.nii\nrelevance_csv = r.csv\n")
        cfg = load_config(path)
        assert cfg.get("data", "atlas_path") == "atlas.nii"
        assert cfg.digest() == RunConfig().digest()
        cfg.set("train", "epochs", "7")
        assert cfg.digest() != RunConfig().digest()

    def test_sections_build_their_dataclasses(self):
        assert (RunConfig().prior(), RunConfig().train_config()) == (AgingPriorParams(), TrainConfig())
        assert (RunConfig().synth_config(), RunConfig().tool_config()) == (SynthConfig(), ToolConfig())
        cfg = RunConfig()
        for section, key, raw in [
            ("prior", "alpha", "0.5"),
            ("train", "seed", "9"),
            ("synth", "dims", "20"),
            ("synth", "noise_std", "2.5"),
            ("preprocess", "template", "/t/template.nii"),
        ]:
            cfg.set(section, key, raw)
        assert cfg.prior() == AgingPriorParams(alpha=0.5)
        assert cfg.train_config() == TrainConfig(seed=9)
        assert cfg.synth_config() == SynthConfig(dims=(20, 20, 20), noise_std=2.5)
        assert cfg.tool_config() == ToolConfig(template_path="/t/template.nii")

    def test_dump_load_round_trip(self, tmp_path):
        cfg = RunConfig()
        cfg.set("train", "epochs", "7")
        cfg.set("prior", "zeta", "11.5")
        path = tmp_path / "run.ini"
        path.write_text(cfg.dump())
        reloaded = load_config(path)
        assert reloaded.values == cfg.values
        assert reloaded.dump() == cfg.dump()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[prior]\nzeta = 9.5\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(path)

    def test_type_errors_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nepochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_config(path)

    @pytest.mark.parametrize(
        "body",
        [b"zeta = 9.5\n", b"[prior]\nzeta = 9.5\nzeta = 8.5\n", b"[prior]\nzeta\n", b"[prior]\nzeta = \xff\n"],
        ids=["no-section-header", "repeated-key", "no-equals", "not-utf8"],
    )
    def test_unparsable_file_is_config_error(self, tmp_path, body):
        path = tmp_path / "bad.ini"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match="bad.ini"):
            load_config(path)

    def test_dump_config_command(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nepochs = 5\n")
        assert run_cli("report", "--config", path, "--dump-config") == 0
        out = capsys.readouterr().out
        assert "epochs = 5" in out
        assert "zeta = 9.5" in out  # defaults included

    def test_flag_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[synth]\ndims = 30\n")  # invalid, but the flag wins
        assert run_cli("synth", "--config", path, "--out", tmp_path / "o", "--n", 1, "--dims", 8) == 0


# command, flag, value -> the [section] key the flag sets and the value it parses to
CONFIG_FLAGS = [
    ("synth", "--n", "12", "synth", "n_subjects", 12),
    ("synth", "--seed", "3", "synth", "seed", 3),
    ("synth", "--dims", "20", "synth", "dims", 20),
    ("synth", "--pd-fraction", "0.25", "synth", "pd_fraction", 0.25),
    ("synth", "--noise-std", "2.5", "synth", "noise_std", 2.5),
    ("synth", "--signal-gain", "0.3", "synth", "signal_gain", 0.3),
    ("split", "--manifest", "m.csv", "data", "cohort_manifest", "m.csv"),
    ("preprocess", "--manifest", "m.csv", "data", "cohort_manifest", "m.csv"),
    ("preprocess", "--jobs", "3", "preprocess", "jobs", 3),
    ("preprocess", "--cache-dir", "my cache", "preprocess", "cache_dir", "my cache"),
    ("train", "--stage", "2", "train", "stage", 2),
    ("train", "--epochs", "5", "train", "epochs", 5),
    ("train", "--batch", "2", "train", "batch", 2),
    ("train", "--lr", "0.002", "train", "lr", 0.002),
    ("train", "--weight-decay", "0.01", "train", "weight_decay", 0.01),
    ("train", "--seed", "9", "train", "seed", 9),
    ("train", "--channels", "6", "model", "channels", 6),
    *(
        (command, flag, value, "data", key, value)
        for command in ("train", "predict", "evaluate")
        for flag, key, value in [
            ("--manifest", "cohort_manifest", "m.csv"),
            ("--atlas", "atlas_path", "atlas.nii"),
            ("--relevance", "relevance_csv", "r.csv"),
        ]
    ),
]
REQUIRED_ARGS = {
    "synth": ["--out", "o"],
    "split": ["--out-dir", "o"],
    "preprocess": [],
    "train": ["--out-dir", "o"],
    "predict": ["--checkpoint", "c.ckpt", "--out", "o"],
    "evaluate": [],
}

# each command's options as its --help listed them before the config flags came from config.SCHEMA
HELP_OPTIONS = {
    "synth": [
        ("--config", "CONFIG", ""),
        ("--out", "OUT", "output directory"),
        ("--n", "N", "number of subjects"),
        ("--seed", "SEED", ""),
        ("--dims", "DIMS", "cube edge length (divisible by 4)"),
        ("--pd-fraction", "PD_FRACTION", ""),
        ("--noise-std", "NOISE_STD", ""),
        ("--signal-gain", "SIGNAL_GAIN", ""),
    ],
    "preprocess": [
        ("--config", "CONFIG", ""),
        ("--manifest", "MANIFEST", "cohort manifest of raw scans"),
        ("--out-manifest", "OUT_MANIFEST", "write manifest of processed scans"),
        ("--jobs", "JOBS", ""),
        ("--cache-dir", "CACHE_DIR", ""),
    ],
    "train": [
        ("--config", "CONFIG", ""),
        ("--stage", "{1,2,3}", ""),
        ("--out-dir", "OUT_DIR", ""),
        ("--manifest", "MANIFEST", ""),
        ("--atlas", "ATLAS", ""),
        ("--relevance", "RELEVANCE", ""),
        ("--epochs", "EPOCHS", ""),
        ("--batch", "BATCH", ""),
        ("--lr", "LR", ""),
        ("--weight-decay", "WEIGHT_DECAY", ""),
        ("--seed", "SEED", ""),
        ("--channels", "CHANNELS", ""),
    ],
    "split": [
        ("--config", "CONFIG", ""),
        ("--manifest", "MANIFEST", ""),
        ("--folds", "FOLDS", ""),
        ("--seed", "SEED", ""),
        ("--out-dir", "OUT_DIR", ""),
    ],
    "predict": [
        ("--config", "CONFIG", ""),
        ("--checkpoint", "CHECKPOINT", ""),
        ("--manifest", "MANIFEST", ""),
        ("--atlas", "ATLAS", ""),
        ("--relevance", "RELEVANCE", ""),
        ("--out", "OUT", ""),
    ],
    "evaluate": [
        ("--config", "CONFIG", ""),
        (
            "--predictions",
            "PREDICTIONS",
            "existing predictions CSV; repeat for per-fold files to get mean and pooled summaries",
        ),
        ("--checkpoint", "CHECKPOINT", ""),
        ("--manifest", "MANIFEST", ""),
        ("--atlas", "ATLAS", ""),
        ("--relevance", "RELEVANCE", ""),
        ("--out", "OUT", "write metrics key-value document"),
    ],
}


class TestConfigFlags:
    @pytest.mark.parametrize(
        "command, flag, raw, section, key, want", CONFIG_FLAGS, ids=[f"{c}{f}" for c, f, *_ in CONFIG_FLAGS]
    )
    def test_flag_sets_its_key(self, command, flag, raw, section, key, want):
        cfg = _config(build_parser().parse_args([command, *REQUIRED_ARGS[command], flag, raw]))
        got = cfg.get(section, key)
        assert got == want and type(got) is type(want)
        default = RunConfig()
        assert [(s, k) for s in SCHEMA for k in SCHEMA[s] if cfg.get(s, k) != default.get(s, k)] == [(section, key)]

    @pytest.mark.parametrize("command", REQUIRED_ARGS)
    def test_every_config_flag_is_listed(self, command):
        args = build_parser().parse_args([command, *REQUIRED_ARGS[command]])
        assert sorted(d for d in vars(args) if "." in d) == sorted(
            f"{s}.{k}" for c, _, _, s, k, _ in CONFIG_FLAGS if c == command
        )
        assert _config(args).dump() == RunConfig().dump()

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nlr = 0.5\nepochs = 4\n")
        cfg = _config(build_parser().parse_args(["train", "--config", str(path), "--out-dir", "o", "--lr", "0.002"]))
        assert (cfg.get("train", "lr"), cfg.get("train", "epochs")) == (0.002, 4)

    def test_empty_data_flag_overrides_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[data]\ncohort_manifest = m.csv\n")
        assert run_cli("split", "--config", path, "--manifest", "", "--out-dir", tmp_path / "folds") == 1
        assert "no cohort manifest given" in capsys.readouterr().err

    @pytest.mark.parametrize("command", HELP_OPTIONS)
    def test_help_lists_the_same_options(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main([command, "--help"])
        rows = []
        for line in capsys.readouterr().out.partition("options:")[2].splitlines():
            if line.startswith("  --"):
                option, _, rest = line.strip().partition(" ")
                metavar, _, help_text = rest.partition("  ")
                rows.append((option, metavar, help_text.strip()))
            elif line.startswith("      ") and rows:
                rows[-1] = (*rows[-1][:2], line.strip())
        assert rows == HELP_OPTIONS[command]


def test_data_by_flags_or_file_in_any_directory_writes_the_same_model(tmp_path, monkeypatch):
    """A run's outputs depend on its settings and data, not on where the data lies or what names its paths."""
    digests = {}
    for root in (tmp_path / "a", tmp_path / "b"):
        data = root / "data"
        assert run_cli("synth", "--out", data, "--n", 12, "--dims", 16, "--seed", 5) == 0
        flags = [
            "--manifest", data / "manifest.csv",
            "--atlas", data / "atlas.nii",
            "--relevance", data / "relevance.csv",
        ]  # fmt: skip
        # the config file names its paths relative to the directory the run starts in
        (root / "run.ini").write_text(
            "[data]\n"
            "cohort_manifest = data/manifest.csv\n"
            "atlas_path = data/atlas.nii\n"
            "relevance_csv = data/relevance.csv\n"
        )
        monkeypatch.chdir(root)
        for how, given in [("flags", flags), ("file", ["--config", "run.ini"])]:
            out = root / how
            for stage in (1, 2, 3):
                assert run_cli("train", "--stage", stage, "--out-dir", out, "--epochs", 2, "--seed", 3, *given) == 0
            assert run_cli("predict", "--checkpoint", out / "stage3.ckpt", "--out", out / "pred.csv", *given) == 0
            wanted = ["stage1.ckpt", "stage2.ckpt", "stage3.ckpt", "pred.csv"]
            digests[root.name, how] = [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in wanted]
    assert len(digests) == 4
    assert len(set(map(tuple, digests.values()))) == 1, digests
