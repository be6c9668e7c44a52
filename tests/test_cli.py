import csv
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coeye import CoEyeConfig, Dataset, classify, cli, errors, load_model, load_ucr, write_ucr
from coeye.cli import _config_from_args, build_parser, main
from tests.conftest import synth_dataset

FAST = ["--trees", "10", "--sax-alphas", "3,4", "--sfa-alphas", "3,4", "--threads", "1"]
UCR = Path(__file__).parent / "data" / "ucr"


def _train_chinatown(out, *flags):
    """``coeye train`` on Chinatown with one-alphabet grids and ``flags`` last, in a process that must end in 10 s."""
    src = Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "coeye.cli", "train", "--data", str(UCR), "--dataset", "Chinatown",
         "--sax-alphas", "3", "--sfa-alphas", "3", "--threads", "1", *flags, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=10,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    for kind in ("waves", "trends"):
        write_ucr(synth_dataset(kind, seed=1), tmp / f"{kind}_TRAIN.tsv")
        write_ucr(synth_dataset(kind, seed=2), tmp / f"{kind}_TEST.tsv")
    return tmp


@pytest.fixture(scope="module")
def trained(workdir):
    model_path = workdir / "waves.model.json"
    code = main(["train", "--data", str(workdir), "--dataset", "waves",
                 "--out", str(model_path), *FAST])
    assert code == 0
    return model_path


class TestTrain:
    def test_success_writes_model(self, workdir, trained, capsys):
        assert trained.exists()
        load_model(trained)

    def test_prints_lens_counts_and_smote(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(workdir), "--dataset", "waves",
                     "--out", str(out), *FAST])
        captured = capsys.readouterr().out
        assert code == 0
        assert "sax lenses:" in captured and "sfa lenses:" in captured
        assert "smote percentage: 0.0000" in captured

    def test_missing_train_file_exit_2(self, workdir, tmp_path, capsys):
        code = main(["train", "--data", str(workdir), "--dataset", "nothere",
                     "--out", str(tmp_path / "m.json"), *FAST])
        assert code == 2

    def test_label_outside_int64_exit_2(self, tmp_path, capsys):
        (tmp_path / "big_TRAIN.tsv").write_text("1e20\t1.0\t2.0\n1\t0.0\t0.5\n")
        code = main(["train", "--data", str(tmp_path), "--dataset", "big", "--out", str(tmp_path / "m.json"), *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "line 1, column 1" in err

    def test_float_label_at_2_53_exit_2(self, tmp_path, capsys):
        (tmp_path / "big_TRAIN.tsv").write_text("1\t0.0\t0.5\n9007199254740992.0\t1.0\t2.0\n")
        code = main(["train", "--data", str(tmp_path), "--dataset", "big", "--out", str(tmp_path / "m.json"), *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "line 2, column 1" in err

    def test_smote_off_flag(self, workdir, tmp_path, capsys):
        code = main(["train", "--data", str(workdir), "--dataset", "waves",
                     "--out", str(tmp_path / "m.json"), "--smote", "off", *FAST])
        assert code == 0
        assert "smote percentage: 0.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_2(self, workdir, tmp_path, capsys, threads):
        code = main(["train", "--data", str(workdir), "--dataset", "waves",
                     "--out", str(tmp_path / "m.json"), *FAST, "--threads", threads])
        assert code == 2
        assert "threads must be at least 1" in capsys.readouterr().err

    def test_folds_past_int64_exit_2(self, workdir, tmp_path, capsys):
        # the fold assignment used to raise an OverflowError traceback
        code = main(["train", "--data", str(workdir), "--dataset", "waves",
                     "--out", str(tmp_path / "m.json"), *FAST, "--folds", str(10**30)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, name", [("--sax-alphas", "sax_alphas"), ("--sfa-alphas", "sfa_alphas"),
                                            ("--sax-w", "sax_word_lengths"), ("--sfa-w", "sfa_word_lengths")])
    def test_empty_grid_list_exit_2_before_any_work(self, workdir, tmp_path, capsys, monkeypatch, flag, name):
        # it used to run SMOTE, then exit 3 with "no feasible (alpha, w) pairs"
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("train ran"))
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(workdir), "--dataset", "waves", *FAST, flag, "", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {name} must not be empty: it leaves no (alpha, w) pair to search\n"
        assert not out.exists()

    def test_trees_past_the_stream_exit_2_promptly(self, tmp_path):
        # a tree is keyed by one 32-bit word; this count used to run on silently past 20 s
        result = _train_chinatown(tmp_path / "m.json", "--trees", str(10**30))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize("flag, code", [("--seed", 0), ("--sax-w", 3), ("--sfa-w", 3),
                                            ("--sax-alphas", 2), ("--sfa-alphas", 2)])
    def test_huge_integer_flags_end_promptly(self, tmp_path, flag, code):
        # a huge seed is harmless, a huge word length leaves no feasible lens
        # (NoFeasibleLens) and a huge alphabet is refused
        result = _train_chinatown(tmp_path / "m.json", flag, str(10**30))
        assert result.returncode == code
        if code:
            assert result.stderr.startswith("error: ")
        else:
            assert main(["predict", "--model", str(tmp_path / "m.json"), "--data", str(UCR),
                         "--dataset", "Chinatown", "--out", str(tmp_path / "p.csv")]) == 0


class TestOutDirectory:
    """A command whose --out is empty, is a directory, or lies in one that does not exist, exits 2 before any work."""

    def test_train_exit_2_before_training(self, workdir, tmp_path, capsys, monkeypatch):
        # it trained the whole model, then failed to open the file (or, for "", to rename it)
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(a))
        out = tmp_path / "missing" / "m.json"
        for given, error in ((str(out), f"--out {out}: no directory {out.parent}"), ("", "--out is empty")):
            code = main(["train", "--data", str(workdir), "--dataset", "waves", "--out", given, *FAST])
            assert (code, calls) == (2, [])
            assert capsys.readouterr().err == f"error: {error}\n"

    def test_benchmark_exit_2_before_training(self, workdir, tmp_path, capsys, monkeypatch):
        from coeye import evaluate

        calls = []
        monkeypatch.setattr(evaluate, "train", lambda *a, **k: calls.append(a))
        out = tmp_path / "missing" / "b.csv"
        for given, error in ((str(out), f"--out {out}: no directory"), ("", "--out is empty")):
            code = main(["benchmark", "--data", str(workdir), "--datasets", "waves", "--out", given, *FAST])
            assert (code, calls) == (2, [])
            assert capsys.readouterr().err.startswith(f"error: {error}")

    def test_predict_exit_2_before_loading(self, trained, workdir, tmp_path, capsys, monkeypatch):
        # an empty --out wrote the CSV to stdout, as if none were given
        calls = []
        monkeypatch.setattr(cli, "load_model", lambda *a: calls.append(a))
        out = tmp_path / "missing" / "p.csv"
        for given, error in ((str(out), f"--out {out}: no directory"), ("", "--out is empty")):
            code = main(["predict", "--model", str(trained), "--data", str(workdir), "--dataset", "waves",
                         "--out", given])
            assert (code, calls) == (2, [])
            assert capsys.readouterr().err.startswith(f"error: {error}")

    def test_directory_as_out_exit_2_before_training(self, workdir, tmp_path, capsys, monkeypatch):
        # it trained the whole model, then failed to replace the directory with the file
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(a))
        code = main(["train", "--data", str(workdir), "--dataset", "waves", "--out", str(tmp_path), *FAST])
        assert (code, calls) == (2, [])
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory\n"

    def test_bare_file_name_and_stdout_pass(self):
        # a bare file name is written to the working directory, and predict writes stdout without --out
        cli._check_out("m.json")
        cli._check_out(None)


class TestPredict:
    def test_accuracy_printed_and_rows_match(self, workdir, trained, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(trained), "--data", str(workdir),
                     "--dataset", "waves", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "accuracy:" in printed
        accuracy = float(printed.split("accuracy:")[1].strip())
        assert 0.0 <= accuracy <= 1.0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 20
        assert set(rows[0]) == {"index", "predicted", "confidence", "round", "true", "correct"}

    def test_csv_on_stdout_holds_one_row_per_series(self, workdir, trained, capsys):
        # the accuracy line used to follow the CSV on stdout, read as one more row
        code = main(["predict", "--model", str(trained), "--data", str(workdir), "--dataset", "waves"])
        assert code == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["index"] for row in rows] == [str(i) for i in range(20)]
        assert re.fullmatch(r"accuracy: [01]\.\d{6}\n", captured.err)

    def test_values_only_input(self, workdir, trained, tmp_path, capsys):
        series = synth_dataset("waves", seed=3).X[:4]
        path = tmp_path / "input.tsv"
        with open(path, "w") as fh:
            for row in series:
                fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")
        code = main(["predict", "--model", str(trained), "--input", str(path)])
        assert code == 0
        printed = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(printed)))
        assert len(rows) == 4
        assert set(rows[0]) == {"index", "predicted", "confidence", "round"}

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x"])
    def test_unparseable_input_exit_2(self, workdir, trained, tmp_path, capsys, cell):
        row = ["0.5"] * 32
        row[4] = cell
        path = tmp_path / "bad.tsv"
        path.write_text("\t".join(["0.25"] * 32) + "\n" + "\t".join(row) + "\n")
        for command in ("predict", "inspect"):
            assert main([command, "--model", str(trained), "--input", str(path)]) == 2
            assert "line 2, column 5" in capsys.readouterr().err

    def test_ragged_input_exit_2(self, workdir, trained, tmp_path, capsys):
        path = tmp_path / "ragged.tsv"
        path.write_text("\t".join(["0.5"] * 32) + "\n" + "\t".join(["0.5"] * 31) + "\n")
        assert main(["predict", "--model", str(trained), "--input", str(path)]) == 2

    def test_wrong_length_exit_4(self, workdir, trained, tmp_path, capsys):
        path = tmp_path / "short.tsv"
        path.write_text("\t".join(["0.5"] * 7) + "\n")
        code = main(["predict", "--model", str(trained), "--input", str(path)])
        assert code == 4

    def test_deeply_nested_model_exit_2(self, trained, tmp_path, capsys):
        # it exited 1 with a RecursionError traceback
        model = tmp_path / "nested.json"
        model.write_text("[" * 100_000 + "]" * 100_000)
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * 32) + "\n")
        assert main(["predict", "--model", str(model), "--input", str(series)]) == 2
        assert "not a valid model file" in capsys.readouterr().err

    def test_no_input_exit_2(self, trained, capsys, monkeypatch):
        monkeypatch.delenv("COEYE_DATA_DIR", raising=False)
        code = main(["predict", "--model", str(trained)])
        assert code == 2


class TestLenses:
    def test_csv_output(self, workdir, capsys):
        code = main(["lenses", "--data", str(workdir), "--dataset", "waves", *FAST])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "representation,alpha,w,drop_dc,cv_accuracy"
        assert len(lines) >= 3
        for line in lines[1:]:
            rep, alpha, w, drop_dc, acc = line.split(",")
            assert rep in ("sax", "sfa")
            assert 0.0 <= float(acc) <= 1.0

    def test_prints_the_lenses_of_a_smote_trained_model(self, tmp_path, capsys):
        # an imbalanced split: the search runs on the SMOTE-balanced rows, as in `coeye train`
        ds = synth_dataset("waves", seed=1)
        keep = np.flatnonzero((ds.y == 1) | (np.arange(len(ds)) % 10 < 4))
        write_ucr(Dataset(ds.X[keep], ds.y[keep]), tmp_path / "skewed_TRAIN.tsv")
        args = ["--data", str(tmp_path), "--dataset", "skewed", "--smote", "on", *FAST]
        assert main(["lenses", *args]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[1:]
        assert main(["train", "--out", str(tmp_path / "m.json"), *args]) == 0
        assert "smote added: 0 " not in capsys.readouterr().out
        model = load_model(tmp_path / "m.json")
        assert printed == [
            f"{e.lens.representation},{e.lens.alpha},{e.lens.w},{int(e.lens.drop_dc)},{e.lens.cv_accuracy:.6f}"
            for e in model.eyes
        ]


class TestInspect:
    def test_rows_and_trace(self, workdir, trained, capsys):
        code = main(["inspect", "--model", str(trained), "--data", str(workdir),
                     "--dataset", "waves", "--index", "2"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        model = load_model(trained)
        expected_rows = len(model.eyes) * len(model.class_labels)
        data_lines = [l for l in lines if l[0].isdigit()]
        assert len(data_lines) == expected_rows
        assert "final label:" in out
        round_used = out.split("vote round: ")[1].split()[0]
        assert round_used in ("first", "second", "fallback")

        # per-eye probabilities sum to one
        probs = {}
        for line in data_lines:
            eye, rep, alpha, w, cls, p = line.split(",")
            probs.setdefault(eye, []).append(float(p))
        for eye, values in probs.items():
            assert sum(values) == pytest.approx(1.0, abs=1e-5)

    def test_final_label_matches_predict(self, workdir, trained, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        main(["predict", "--model", str(trained), "--data", str(workdir),
              "--dataset", "waves", "--out", str(out)])
        capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        code = main(["inspect", "--model", str(trained), "--data", str(workdir),
                     "--dataset", "waves", "--index", "0"])
        assert code == 0
        inspected = capsys.readouterr().out
        final = inspected.split("final label: ")[1].split()[0]
        assert final == rows[0]["predicted"]

    def test_vote_lines_match_classify(self, workdir, trained, capsys):
        model, test = load_model(trained), load_ucr(workdir / "waves_TEST.tsv")
        for index in range(4):
            assert main(["inspect", "--model", str(trained), "--data", str(workdir),
                         "--dataset", "waves", "--index", str(index)]) == 0
            pred = classify(model, test.X[index])
            tail = capsys.readouterr().out.splitlines()[-4:]
            assert tail == [f"vote sax_best: {pred.sax_label}", f"vote sfa_best: {pred.sfa_label}",
                            f"vote round: {pred.round}", f"final label: {pred.label} (confidence {pred.confidence:.6f})"]

    def test_bad_index_exit_2(self, workdir, trained, capsys):
        code = main(["inspect", "--model", str(trained), "--data", str(workdir),
                     "--dataset", "waves", "--index", "99"])
        assert code == 2


class TestTransform:
    def test_constant_series_single_letter(self, tmp_path, capsys):
        rows = np.vstack([np.full(16, 3.0), np.arange(16.0)])
        from coeye import Dataset
        write_ucr(Dataset(rows, np.array([1, 2])), tmp_path / "const_TRAIN.tsv")
        code = main(["transform", "--data", str(tmp_path), "--dataset", "const",
                     "--rep", "sax", "--alpha", "4", "--w", "8", "--index", "0"])
        assert code == 0
        word = capsys.readouterr().out.strip()
        assert len(word) == 8
        assert word == word[0] * 8

    def test_word_length(self, workdir, capsys):
        code = main(["transform", "--data", str(workdir), "--dataset", "waves",
                     "--rep", "sfa", "--alpha", "5", "--w", "10", "--index", "1"])
        assert code == 0
        assert len(capsys.readouterr().out.strip()) == 10

    def test_alpha_over_26_exit_2(self, workdir, capsys):
        code = main(["transform", "--data", str(workdir), "--dataset", "waves",
                     "--rep", "sax", "--alpha", "27", "--w", "8", "--index", "0"])
        assert code == 2

    def test_sfa_matches_library_word(self, workdir, capsys):
        from coeye import fit_mcb, load_ucr, sfa

        code = main(["transform", "--data", str(workdir), "--dataset", "waves",
                     "--rep", "sfa", "--alpha", "4", "--w", "12", "--index", "3"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        train_set = load_ucr(workdir / "waves_TRAIN.tsv")
        table = fit_mcb(train_set, 4, 12, drop_dc=False)
        assert printed == sfa(train_set.X[3], table).to_text()


class TestBenchmark:
    def test_rows_written(self, workdir, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["benchmark", "--data", str(workdir), "--datasets", "waves,trends",
                     "--modes", "coeye", "--seeds", "0,1", "--out", str(out), *FAST])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 4

    def test_unknown_mode_exit_2(self, workdir, tmp_path, capsys):
        code = main(["benchmark", "--data", str(workdir), "--datasets", "waves",
                     "--modes", "bogus", "--out", str(tmp_path / "b.csv"), *FAST])
        assert code == 2
        assert "mode" in capsys.readouterr().err

    def test_rerun_identical_non_timing_columns(self, workdir, tmp_path, capsys):
        timing = {"t_search_sax_s", "t_search_sfa_s", "t_train_s", "t_predict_s", "t_total_s"}

        def stable(path):
            rows = list(csv.DictReader(io.StringIO(path.read_text())))
            return [tuple(v for c, v in r.items() if c not in timing) for r in rows]

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main(["benchmark", "--data", str(workdir), "--datasets", "waves",
                         "--modes", "ed1nn", "--seeds", "5", "--out", str(out), *FAST])
            assert code == 0
        assert stable(a) == stable(b)

    def test_no_data_dir_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("COEYE_DATA_DIR", raising=False)
        code = main(["benchmark", "--datasets", "waves", "--out", str(tmp_path / "n.csv"), *FAST])
        assert code == 2
        assert capsys.readouterr().err == "error: --data is required (or set COEYE_DATA_DIR)\n"
        assert not (tmp_path / "n.csv").exists()

    def test_manifest_names_skip_blank_lines_and_precede_datasets(self, workdir, tmp_path, capsys):
        manifest = tmp_path / "names.txt"
        manifest.write_text("trends\n\n   \nwaves\n")
        out = tmp_path / "m.csv"
        code = main(["benchmark", "--data", str(workdir), "--manifest", str(manifest), "--datasets", "waves",
                     "--modes", "ed1nn", "--seeds", "0", "--out", str(out), *FAST])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [r["dataset"] for r in rows] == ["trends", "waves", "waves"]

    def test_no_datasets_exit_2_before_the_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = main(["benchmark", "--data", str(workdir), "--modes", "ed1nn", "--out", str(out), *FAST])
        assert code == 2
        assert capsys.readouterr().err == "error: provide --datasets or --manifest\n"
        assert not out.exists()

    def test_all_errors_nonzero_exit(self, workdir, tmp_path, capsys):
        code = main(["benchmark", "--data", str(workdir), "--datasets", "ghost",
                     "--modes", "coeye", "--seeds", "0", "--out", str(tmp_path / "g.csv"), *FAST])
        assert code == 3

    @pytest.mark.parametrize("flag", ["--modes", "--seeds"])
    def test_empty_list_exit_2_before_the_file(self, workdir, tmp_path, capsys, flag):
        out = tmp_path / "e.csv"
        code = main(["benchmark", "--data", str(workdir), "--datasets", "waves", flag, "", "--out", str(out), *FAST])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("modes, seeds", [("ed1nn,coeye", "-1"), ("ed1nn", "0,-1")])
    def test_negative_seed_exit_2_before_the_file(self, workdir, tmp_path, capsys, modes, seeds):
        # it was reported as failed training: an error row per mode, ed1nn's too, with exit 3 or 0
        out = tmp_path / "s.csv"
        code = main(["benchmark", "--data", str(workdir), "--datasets", "waves", "--modes", modes,
                     "--seeds", seeds, "--out", str(out), *FAST])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not out.exists()

    def test_empty_grid_list_exit_2_before_the_file(self, workdir, tmp_path, capsys):
        # it used to write a coeye error row beside the ed1nn row and exit 0
        out = tmp_path / "g.csv"
        code = main(["benchmark", "--data", str(workdir), "--datasets", "waves", "--modes", "coeye,ed1nn",
                     "--seeds", "0", "--out", str(out), *FAST, "--sax-alphas", ""])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: sax_alphas must not be empty")
        assert not out.exists()

    def test_every_mode_in_one_pass(self, workdir, tmp_path, capsys, monkeypatch):
        from coeye import evaluate

        calls, train = [], evaluate.train
        monkeypatch.setattr(evaluate, "train", lambda *a, **k: calls.append(k) or train(*a, **k))
        out = tmp_path / "m.csv"
        code = main(["benchmark", "--data", str(workdir), "--datasets", "waves, trends", "--modes",
                     "sfa_only,ed1nn coeye,random_lenses", "--seeds", "0", "--out", str(out), *FAST])
        assert code == 0
        assert calls == [{"lens_strategy": "search"}, {"lens_strategy": "random"}] * 2
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["dataset"], r["mode"]) for r in rows] == [
            (name, mode) for name in ("waves", "trends") for mode in ("sfa_only", "ed1nn", "coeye", "random_lenses")
        ]


class TestHelpAndUsage:
    @pytest.mark.parametrize(
        "command", ["train", "predict", "lenses", "inspect", "transform", "benchmark"]
    )
    def test_help_documents_defaults(self, command, capsys):
        code = main([command, "--help"])
        assert code == 0
        text = capsys.readouterr().out
        assert "--help" not in ("",)  # help text rendered
        if command in ("train", "lenses", "benchmark"):
            assert "42" in text  # seed default
            assert "100" in text  # trees default
            assert "minmax" in text

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "coeye" in capsys.readouterr().out


class TestDefaults:
    def test_train_flags_default_to_the_config(self):
        args = build_parser().parse_args(["train", "--dataset", "waves", "--out", "m.json"])
        assert _config_from_args(args) == CoEyeConfig(threads=os.cpu_count())

    def test_benchmark_seeds_default_to_the_config_seed(self):
        args = build_parser().parse_args(["benchmark", "--datasets", "waves", "--out", "r.csv"])
        assert args.seeds == (CoEyeConfig().seed,)


# every type that does not exit with 2
NON_DEFAULT_EXIT = {
    "NoFeasibleLens": 3, "NoMinorityClass": 3, "EmptyTrainingSet": 3, "EmptyEnsemble": 3,
    "SeriesLengthMismatch": 4, "FeatureMismatch": 4,
}
COEYE_ERRORS = [kind for _, kind in inspect.getmembers(errors, inspect.isclass) if issubclass(kind, errors.CoEyeError)]


def _raise(kind):
    if kind in (errors.RaggedData, errors.ParseError):
        raise kind("data.tsv", 3, 2, "bad cell")
    raise kind("boom")


class TestExitCodes:
    def test_non_default_codes_name_real_types(self):
        assert set(NON_DEFAULT_EXIT) <= {kind.__name__ for kind in COEYE_ERRORS}

    @pytest.mark.parametrize(
        "kind", COEYE_ERRORS + [FileNotFoundError, IsADirectoryError, PermissionError, ValueError],
        ids=lambda kind: kind.__name__,
    )
    def test_exit_code_of_each_error_type(self, kind, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_predict", lambda args: _raise(kind))
        assert main(["predict", "--model", "m.json"]) == NON_DEFAULT_EXIT.get(kind.__name__, 2)
        assert capsys.readouterr().err.startswith("error:")
