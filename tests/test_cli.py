"""CLI surface: flags, files, exit codes, determinism."""

import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradleak.cli
import gradleak.extraction
import gradleak.validation
from gradleak import (
    ConfigError,
    ExtractionConfig,
    GradleakError,
    Oracle,
    RecoveredModel,
    generate_random_net,
    learn_model,
    load_net,
    load_recovered,
    recovered_from_net,
    save_net,
    save_recovered,
)
from gradleak.cli import main


def run(*argv):
    return main(list(argv))


@pytest.fixture
def refused_extraction(monkeypatch):
    """learn_model raises a library error that is neither a search nor a sign failure."""

    def refuse(oracle, cfg):
        raise ConfigError("refused before any search")

    monkeypatch.setattr(gradleak.cli, "learn_model", refuse)


def _duplicated_row(search):
    """A search whose Z repeats row 0, so the sign system is singular and the sign phase fails."""

    def duplicated(*args):
        z, crossings, ends = search(*args)
        return z[[0, 0, 2, 3, 4]], crossings, ends

    return duplicated


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    assert run("gen", "--d", "12", "--h", "5", "--seed", "1", "--out", str(path)) == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "--d", "20", "--h", "8", "--seed", "1", "--out", str(a)) == 0
        assert run("gen", "--d", "20", "--h", "8", "--seed", "1", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_satisfies_invariants(self, tmp_path):
        path = tmp_path / "m.json"
        assert run("gen", "--d", "20", "--h", "8", "--seed", "1", "--out", str(path)) == 0
        net = load_net(path)
        assert net.d == 20 and net.h == 8
        np.testing.assert_allclose(np.sum(net.A**2, axis=1), 1.0, atol=1e-12)

    def test_h_above_d_exits_one(self, tmp_path, capsys):
        assert run("gen", "--d", "2", "--h", "3", "--seed", "0", "--out", str(tmp_path / "x.json")) == 1
        assert capsys.readouterr().err == "error: need 1 <= h <= d, got h=3, d=2\n"

    def test_missing_flag_exits_one(self, tmp_path):
        assert run("gen", "--d", "4", "--out", str(tmp_path / "x.json")) == 1


class TestExtractVerify:
    def test_grad_pipeline(self, tmp_path, model_file):
        rec = tmp_path / "rec.json"
        rep = tmp_path / "rep.json"
        assert (
            run(
                "extract", "--model", str(model_file), "--mode", "grad",
                "--seed", "0", "--out", str(rec), "--report", str(rep),
            )
            == 0
        )
        report = json.loads(rep.read_text())
        assert report["success"] is True
        assert report["gradient_queries"] > 0
        assert len(report["crossings"]) == 5
        assert len(report["refusals"]) == report["retries"]
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 0

    def test_smoothgrad_zero_sigma_matches_grad(self, tmp_path, model_file):
        rec_g = tmp_path / "g.json"
        rec_s = tmp_path / "s.json"
        assert run("extract", "--model", str(model_file), "--mode", "grad", "--seed", "3", "--out", str(rec_g)) == 0
        assert (
            run(
                "extract", "--model", str(model_file), "--mode", "smoothgrad",
                "--sigma", "0", "--seed", "3", "--out", str(rec_s),
            )
            == 0
        )
        assert rec_g.read_bytes() == rec_s.read_bytes()

    def test_membership_query_accounting(self, tmp_path, model_file):
        rec_g, rep_g = tmp_path / "g.json", tmp_path / "repg.json"
        rec_m, rep_m = tmp_path / "m.json", tmp_path / "repm.json"
        assert run("extract", "--model", str(model_file), "--seed", "5", "--out", str(rec_g), "--report", str(rep_g)) == 0
        assert (
            run(
                "extract", "--model", str(model_file), "--mode", "membership",
                "--seed", "5", "--out", str(rec_m), "--report", str(rep_m),
            )
            == 0
        )
        g = json.loads(rep_g.read_text())
        m = json.loads(rep_m.read_text())
        ratio = m["value_queries"] / g["gradient_queries"]
        assert 0.9 * 12 <= ratio <= 1.1 * 13
        assert run("verify", "--model", str(model_file), "--recovered", str(rec_m)) == 0

    def test_wrong_width_exits_two_and_writes_report(self, tmp_path, model_file):
        rec = tmp_path / "rec.json"
        rep = tmp_path / "rep.json"
        code = run(
            "extract", "--model", str(model_file), "--h", "6", "--max-retries", "1",
            "--seed", "0", "--out", str(rec), "--report", str(rep),
        )
        assert code == 2
        assert not rec.exists()
        report = json.loads(rep.read_text())
        assert report["success"] is False
        # Both lines were refused, each for its own reason.
        assert (report["phase"], report["retries"], len(report["refusals"])) == ("search", 1, 2)
        assert all(isinstance(reason, str) and reason for reason in report["refusals"])

    def test_sign_phase_failure_reports_phase_and_true_retries(self, tmp_path, model_file, monkeypatch):
        # The search finds all 5 crossings on the first line and the sign
        # solve is then refused, on a Z with one row duplicated, whose sign
        # system is singular: no retries were spent.
        monkeypatch.setattr(gradleak.extraction, "_search_line", _duplicated_row(gradleak.extraction._search_line))
        rec = tmp_path / "rec.json"
        rep = tmp_path / "rep.json"
        code = run(
            "extract", "--model", str(model_file), "--max-retries", "3",
            "--seed", "0", "--out", str(rec), "--report", str(rep),
        )
        assert code == 2
        report = json.loads(rep.read_text())
        assert report["success"] is False
        assert report["phase"] == "sign"
        assert report["retries"] == 0
        assert report["refusals"] == []
        assert len(report["crossings"]) == 5
        # The sign solve reads the search line's end gradients: no value
        # query (10, the 2h sign equations, before it did).
        assert report["value_queries"] == 0
        # Its rounds, one request each, carried the gradient queries in batches.
        assert 0 < report["rounds"] < report["gradient_queries"]

    def test_membership_width_below_truth_is_refused(self, tmp_path):
        # Every line holds all 8 crossings; stopping at the seventh once
        # returned a wrong model at exit 0. On each line the search refuses
        # as soon as certified plus open brackets exceed 7, so the sign solve
        # is never reached.
        model = tmp_path / "m.json"
        rep = tmp_path / "rep.json"
        assert run("gen", "--d", "20", "--h", "8", "--seed", "8", "--out", str(model)) == 0
        for max_retries, phase, retries in (("0", "search", 0), ("5", "search", 5)):
            code = run(
                "extract", "--model", str(model), "--mode", "membership", "--h", "7", "--seed", "8",
                "--max-retries", max_retries, "--out", str(tmp_path / "r.json"), "--report", str(rep),
            )
            assert code == 2
            report = json.loads(rep.read_text())
            assert (report["phase"], report["retries"]) == (phase, retries)

    def test_any_library_error_exits_two_with_report(self, tmp_path, model_file, refused_extraction):
        rec = tmp_path / "rec.json"
        rep = tmp_path / "rep.json"
        code = run("extract", "--model", str(model_file), "--out", str(rec), "--report", str(rep))
        assert code == 2
        assert not rec.exists()
        report = json.loads(rep.read_text())
        assert report["success"] is False
        assert (report["phase"], report["retries"], report["refusals"], report["crossings"]) == (None, 0, [], [])
        assert report["gradient_queries"] == report["value_queries"] == 0

    def test_corrupted_recovered_exits_three(self, tmp_path, model_file):
        rec = tmp_path / "rec.json"
        assert run("extract", "--model", str(model_file), "--seed", "0", "--out", str(rec)) == 0
        payload = json.loads(rec.read_text())
        nz = [i for i, v in enumerate(payload["s"]) if v != 0]
        payload["s"][nz[0]] = 0
        rec.write_text(json.dumps(payload))
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 3

    def test_width_mismatch_exits_three(self, tmp_path, model_file, capsys):
        # A recovered model one unit short is a wrong model, not a usage error.
        rec = tmp_path / "rec.json"
        save_recovered(recovered_from_net(load_net(model_file)), rec)
        payload = json.loads(rec.read_text())
        h = payload["h"]
        del payload["Z"][0]
        payload["s"] = payload["s"][1:h] + payload["s"][h + 1 :]
        payload["h"] = h - 1
        rec.write_text(json.dumps(payload))
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 3
        out = capsys.readouterr().out
        assert "max relative error" in out and "row match skipped" in out

    def test_equal_rows_make_the_row_match_ambiguous(self, tmp_path, model_file, capsys):
        # Two equal rows under a valid sign pattern: the function is wrong
        # (exit 3) and no row can be matched to one unit over the other.
        rec = tmp_path / "rec.json"
        save_recovered(recovered_from_net(load_net(model_file)), rec)
        payload = json.loads(rec.read_text())
        payload["Z"][1] = payload["Z"][0]
        rec.write_text(json.dumps(payload))
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 3
        assert "row match ambiguous" in capsys.readouterr().out

    def test_nan_error_exits_three(self, tmp_path, capsys):
        # Two equal rows of 1e308 added with opposite signs evaluate to
        # inf - inf = NaN; the error is reported as nan, not dropped. The
        # equal rows are ambiguous, reported with their true cosines rather
        # than the 0 of overflowed norms.
        model, rec = tmp_path / "model.json", tmp_path / "rec.json"
        save_net(generate_random_net(4, 2, seed=0), model)
        save_recovered(RecoveredModel(Z=np.full((2, 4), 1e308), s=[1, -1, 0, 0]), rec)
        assert run("verify", "--model", str(model), "--recovered", str(rec)) == 3
        out = capsys.readouterr().out
        assert "max relative error over 100000 points: nan" in out
        assert "row match ambiguous: rows 1/0: best |cosine| 0.598079778203" in out

    def test_non_object_model_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("5\n")
        assert run("verify", "--model", str(path), "--recovered", str(path)) == 1
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "extract"])
    @pytest.mark.parametrize("key, bad", [("A", {"x": 1}), ("w", {"a": 1})])
    def test_non_numeric_matrix_exits_one_without_traceback(self, tmp_path, command, key, bad):
        # Run as a separate process so that an escaping exception would show
        # up as a traceback on stderr rather than fail inside pytest.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 2, "h": 1, "A": [[1.0, 0.0]], "w": [1.0], key: bad}))
        argv = ["--model", str(path)]
        argv += ["--recovered", str(path)] if command == "verify" else ["--out", str(tmp_path / "r.json")]
        src = str(Path(gradleak.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "gradleak.cli", command, *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 1
        assert f"error: model file key '{key}' must hold numbers" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, bad", [("d", 2.0), ("h", True)])
    @pytest.mark.parametrize("which", ["model", "recovered"])
    def test_header_count_that_is_not_an_integer_exits_one(self, tmp_path, capsys, which, key, bad):
        # A file with "d": 2.0 and "h": true loaded as d=2, h=1 and verified.
        net = generate_random_net(2, 1, seed=0)
        files = {"model": tmp_path / "model.json", "recovered": tmp_path / "rec.json"}
        save_net(net, files["model"])
        save_recovered(recovered_from_net(net), files["recovered"])
        files[which].write_text(json.dumps({**json.loads(files[which].read_text()), key: bad}))
        assert run("verify", "--model", str(files["model"]), "--recovered", str(files["recovered"])) == 1
        assert f"error: {which} file {key} must be an integer of at least 0, got {bad!r}" in capsys.readouterr().err

    def test_non_numeric_recovered_matrix_exits_one(self, tmp_path, model_file, capsys):
        rec = tmp_path / "rec.json"
        rec.write_text(json.dumps({"d": 12, "h": 1, "Z": {"x": 1}, "s": [1, 0]}))
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 1
        assert "error: recovered file key 'Z' must hold numbers" in capsys.readouterr().err

    def test_non_integer_sign_entry_exits_one(self, tmp_path, model_file):
        rec = tmp_path / "rec.json"
        save_recovered(recovered_from_net(load_net(model_file)), rec)
        payload = json.loads(rec.read_text())
        nz = [i for i, v in enumerate(payload["s"]) if v != 0]
        payload["s"][nz[0]] = 1.9 * payload["s"][nz[0]]
        rec.write_text(json.dumps(payload))
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 1

    def test_reference_model_verifies_tightly(self, tmp_path, model_file):
        net = load_net(model_file)
        rec = tmp_path / "ref.json"
        save_recovered(recovered_from_net(net), rec)
        assert (
            run(
                "verify", "--model", str(model_file), "--recovered", str(rec),
                "--samples", "20000", "--tol", "1e-12",
            )
            == 0
        )

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tolerance_exits_one(self, tmp_path, model_file, tol):
        # The model matches, so a mismatch exit (3) would be a false verdict.
        rec = tmp_path / "ref.json"
        save_recovered(recovered_from_net(load_net(model_file)), rec)
        assert run("verify", "--model", str(model_file), "--recovered", str(rec), "--tol", tol) == 1

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exit_one(self, tmp_path, model_file, samples, capsys):
        # Another net's rows: 0 points would pass them unchecked.
        rec = tmp_path / "other.json"
        save_recovered(recovered_from_net(generate_random_net(12, 5, seed=2)), rec)
        args = ("verify", "--model", str(model_file), "--recovered", str(rec))
        assert run(*args, "--samples", "100") == 3
        capsys.readouterr()
        assert run(*args, "--samples", samples) == 1
        assert "--samples must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_one(self, tmp_path, model_file, sigma, capsys):
        rec = tmp_path / "rec.json"
        code = run(
            "extract", "--model", str(model_file), "--mode", "smoothgrad",
            "--sigma", sigma, "--seed", "0", "--out", str(rec),
        )
        assert code == 1
        assert not rec.exists()
        assert f"sigma must lie in [0, inf), got {float(sigma)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["grad", "membership"])
    def test_sigma_outside_smoothgrad_exits_one(self, tmp_path, model_file, mode, capsys):
        # Only smoothgrad blurs: elsewhere a positive --sigma would be ignored.
        rec = tmp_path / "rec.json"
        args = ("extract", "--model", str(model_file), "--mode", mode, "--seed", "0", "--out", str(rec))
        assert run(*args, "--sigma", "0.3") == 1
        assert not rec.exists()
        assert f"--sigma 0.3 applies to --mode smoothgrad alone, not --mode {mode}" in capsys.readouterr().err
        assert run(*args, "--sigma", "0") == 0

    @pytest.mark.parametrize("mode", ["grad", "membership", "smoothgrad"])
    def test_n_samples_without_blur_exits_one(self, tmp_path, model_file, mode, capsys):
        # Only blurred smoothgrad draws samples: elsewhere --n-samples would be ignored.
        rec = tmp_path / "rec.json"
        args = ("extract", "--model", str(model_file), "--mode", mode, "--sigma", "0", "--seed", "0", "--out", str(rec))
        assert run(*args, "--n-samples", "3") == 1
        assert not rec.exists()
        assert "--n-samples 3 applies to --mode smoothgrad with --sigma > 0 alone" in capsys.readouterr().err
        assert run(*args) == 0

    def test_n_samples_with_blur_is_accepted(self, tmp_path, model_file):
        rec = tmp_path / "rec.json"
        args = ("extract", "--model", str(model_file), "--mode", "smoothgrad", "--n-samples", "3", "--seed", "0", "--out", str(rec))
        assert run(*args, "--sigma", "0.01") == 0
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 0
        # At sigma 0.1 the blur covers the half-circle on every line of this
        # net: the search refuses it (exit 2), which is no usage error.
        assert run(*args, "--sigma", "0.1") == 2

    def test_extract_outputs_are_byte_deterministic(self, tmp_path, model_file):
        rec_a, rep_a = tmp_path / "a.json", tmp_path / "arep.json"
        rec_b, rep_b = tmp_path / "b.json", tmp_path / "brep.json"
        for rec, rep in ((rec_a, rep_a), (rec_b, rep_b)):
            assert (
                run(
                    "extract", "--model", str(model_file), "--seed", "9",
                    "--out", str(rec), "--report", str(rep),
                )
                == 0
            )
        assert rec_a.read_bytes() == rec_b.read_bytes()
        assert rep_a.read_bytes() == rep_b.read_bytes()

    def test_dimension_mismatch_exits_one(self, tmp_path, model_file):
        other = tmp_path / "other.json"
        assert run("gen", "--d", "6", "--h", "2", "--seed", "2", "--out", str(other)) == 0
        rec = tmp_path / "rec.json"
        assert run("extract", "--model", str(other), "--seed", "1", "--out", str(rec)) == 0
        assert run("verify", "--model", str(model_file), "--recovered", str(rec)) == 1

    def test_missing_model_file_exits_one(self, tmp_path):
        assert run("extract", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")) == 1


class TestLemmas:
    def test_all_reports_pass(self, capsys):
        assert run("lemmas", "--which", "all", "--samples", "100000", "--seed", "1") == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [rec["lemma"] for rec in lines] == ["gap", "tail", "chi2diff", "product"]
        assert all(rec["passed"] for rec in lines)
        # Each line carries its check's wall time.
        assert all(isinstance(rec["ms"], float) and rec["ms"] >= 0.0 for rec in lines)

    @pytest.mark.parametrize("samples, blocks, workers", [("20000", 1, 1), ("100000", 2, 2), ("200000", 4, 3), ("1000000", 16, 3)])
    def test_lines_carry_blocks_and_workers(self, monkeypatch, capsys, samples, blocks, workers):
        monkeypatch.setattr(gradleak.validation, "_cpu_count", lambda: 3)
        assert run("lemmas", "--which", "all", "--samples", samples, "--seed", "1") == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4
        for rec in lines:
            assert list(rec)[-3:] == ["ms", "blocks", "workers"]
            assert (rec["blocks"], rec["workers"]) == (blocks, workers)

    def test_single_lemma_with_values(self, capsys):
        assert run("lemmas", "--which", "tail", "--l", "10", "--samples", "100000", "--seed", "1") == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["bound"] == pytest.approx(0.063662, abs=1e-6)

    def test_gap_lemma_bound(self, capsys):
        assert run("lemmas", "--which", "gap", "--c", "0.5", "--epsilon", "0.001", "--samples", "100000", "--seed", "0") == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["bound"] == pytest.approx(0.0687, abs=2e-4)

    def test_bad_parameters_exit_one(self):
        assert run("lemmas", "--which", "gap", "--c", "1.5", "--samples", "1000") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--which", "chi2diff", "--epsilon", "nan"),
            ("--which", "gap", "--epsilon", "nan"),
            ("--which", "gap", "--c", "nan"),
            ("--which", "tail", "--l", "nan"),
            ("--which", "tail", "--l", "inf"),
        ],
    )
    def test_non_finite_parameters_exit_one(self, flags, capsys):
        assert run("lemmas", *flags, "--samples", "10000") == 1
        assert capsys.readouterr().out == ""


class TestOneRunRecord:
    """A run's record is one ExtractionReport whether it succeeds or fails.

    learn_model's raised error carries it as err.report, with no model, and
    the extract report that the CLI writes is its report_dict().
    """

    @pytest.mark.parametrize(
        "phase, h, max_retries",
        [(None, 5, 5), ("search", 8, 2), ("sign", 5, 5)],
        ids=["success", "search-failure", "sign-failure"],
    )
    def test_report_of_every_outcome(self, tmp_path, model_file, monkeypatch, phase, h, max_retries):
        lines = []
        search = gradleak.extraction._search_line
        if phase == "sign":
            search = _duplicated_row(search)
        monkeypatch.setattr(gradleak.extraction, "_search_line", lambda *args: (lines.append(args), search(*args))[1])

        cfg = ExtractionConfig(h=h, seed=0, max_retries=max_retries)
        oracle = Oracle(load_net(model_file))
        if phase is None:
            report = learn_model(oracle, cfg)
            assert report.model is not None
        else:
            with pytest.raises(GradleakError) as err:
                learn_model(oracle, cfg)
            report = err.value.report
            assert report.model is None
            assert report.phase == phase
        # Every line searched but the last was a retry, whatever the outcome.
        assert report.retries == len(lines) - 1
        assert (report.gradient_queries, report.value_queries, report.rounds) == (
            oracle.ledger.gradient_queries, oracle.ledger.value_queries, oracle.ledger.rounds,
        )

        rep = tmp_path / "rep.json"
        code = run(
            "extract", "--model", str(model_file), "--h", str(h), "--max-retries", str(max_retries),
            "--seed", "0", "--out", str(tmp_path / "rec.json"), "--report", str(rep),
        )
        assert code == (0 if phase is None else 2)
        assert json.loads(rep.read_text()) == report.report_dict()
        assert ("phase" in report.report_dict()) == (phase is not None)


class TestBench:
    def test_csv_layout_and_success(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert (
            run(
                "bench", "--h-list", "2,3", "--d", "8", "--trials", "2",
                "--seed", "0", "--out", str(out),
            )
            == 0
        )
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [
            "h", "d", "mode", "trial", "success",
            "gradient_queries", "value_queries", "rounds", "retries", "refusals", "max_rel_error", "seconds",
        ]
        assert len(rows) == 4
        assert [(r["h"], r["trial"]) for r in rows] == [
            ("2", "0"), ("2", "1"), ("3", "0"), ("3", "1"),
        ]
        for row in rows:
            if row["success"] == "True":
                assert float(row["max_rel_error"]) <= 1e-7
            # A round carries every open bracket's request, so a grad run needs fewer rounds than queries.
            assert 0 < int(row["rounds"]) < int(row["gradient_queries"])
            # The refusals column is the report's, one reason per retry on a returned model.
            assert len(json.loads(row["refusals"])) == int(row["retries"])

    def test_library_error_is_a_failed_row(self, tmp_path, refused_extraction):
        out = tmp_path / "bench.csv"
        assert run("bench", "--h-list", "2", "--d", "8", "--trials", "1", "--seed", "0", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["success"], r["retries"], r["max_rel_error"]) for r in rows] == [("False", "0", "nan")]

    def test_deterministic_modulo_seconds(self, tmp_path):
        def strip_seconds(path):
            with open(path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("bench", "--h-list", "2", "--d", "6", "--trials", "3", "--seed", "7", "--out", str(out)) == 0
        assert strip_seconds(a) == strip_seconds(b)

    def test_membership_rows_pair_with_grad_rows(self, tmp_path):
        import math

        from gradleak import select_parameters

        grad_csv, mem_csv = tmp_path / "g.csv", tmp_path / "m.csv"
        args = ["--h-list", "2,3", "--d", "16", "--trials", "2", "--seed", "3"]
        assert run("bench", *args, "--mode", "grad", "--out", str(grad_csv)) == 0
        assert run("bench", *args, "--mode", "membership", "--out", str(mem_csv)) == 0
        with open(grad_csv, newline="") as fh:
            grad_rows = list(csv.DictReader(fh))
        with open(mem_csv, newline="") as fh:
            mem_rows = list(csv.DictReader(fh))

        def retry_free(row):
            # A retried run repeats whole searches. A clean run spends the
            # two end requests, its splits and 2h probes: within h full
            # bisections of the paper's [-l, l] to epsilon, plus 2h + 2.
            h = int(row["h"])
            eps, l = select_parameters(0.1, 0.01, h)
            return int(row["gradient_queries"]) <= h * (math.ceil(math.log2(2 * l / eps)) + 2) + 2

        paired = 0
        for g, m in zip(grad_rows, mem_rows):
            if g["success"] != "True" or m["success"] != "True" or not retry_free(g):
                continue
            paired += 1
            ratio = int(m["value_queries"]) / int(g["gradient_queries"])
            assert 0.9 * 16 <= ratio <= 1.1 * 17
        assert paired >= 2

    def test_bad_h_list_exits_one(self, tmp_path):
        assert run("bench", "--h-list", "2,x", "--d", "6", "--trials", "1", "--out", str(tmp_path / "o.csv")) == 1

    @pytest.mark.parametrize("h_list, trials", [(",", "1"), ("2", "0")])
    def test_empty_h_list_or_no_trials_exits_one(self, tmp_path, h_list, trials):
        assert run("bench", "--h-list", h_list, "--d", "6", "--trials", trials, "--out", str(tmp_path / "o.csv")) == 1

    def test_h_above_d_exits_one(self, tmp_path):
        assert run("bench", "--h-list", "9", "--d", "6", "--trials", "1", "--out", str(tmp_path / "o.csv")) == 1


class TestExitCodeContract:
    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_no_command(self):
        assert run() == 1


class TestLibraryDefaults:
    """Each default the parser passes is the library's own, so a changed library default reaches the CLI."""

    @staticmethod
    def parse(*argv):
        return gradleak.cli.build_parser().parse_args(list(argv))

    def test_gen_uses_the_generator_defaults(self):
        args = self.parse("gen", "--d", "4", "--h", "2", "--out", "net.json")
        params = inspect.signature(generate_random_net).parameters
        assert (args.c_min, args.w_min) == (params["c_min"].default, params["w_min"].default)

    def test_extract_and_bench_use_the_attack_defaults(self):
        cfg = ExtractionConfig(h=1)
        ext = self.parse("extract", "--model", "net.json", "--out", "rec.json")
        assert (ext.delta, ext.c, ext.max_retries) == (cfg.delta, cfg.c, cfg.max_retries)
        ben = self.parse("bench", "--h-list", "2", "--d", "4", "--trials", "1", "--out", "b.csv")
        assert ben.delta == cfg.delta

    def test_verify_uses_the_exactness_tolerance(self):
        args = self.parse("verify", "--model", "net.json", "--recovered", "rec.json")
        assert args.tol == gradleak.validation.VERIFY_TOL == 1e-7
