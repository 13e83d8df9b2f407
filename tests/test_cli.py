import contextlib
import csv
import io
import json
import math
import re
import runpy
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spatcast as sc
from spatcast.cli import build_parser, main


@pytest.fixture
def cycles_csv(tmp_path):
    path = tmp_path / "cycles.csv"
    rc = main(["simulate", "--cycles", "300", "--seed", "7", "-o", str(path)])
    assert rc == 0
    return path


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--cycles", "100", "--seed", "3", "-o", str(a)]) == 0
        assert main(["simulate", "--cycles", "100", "--seed", "3", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 9\nschedule = 0-24@110\nmax_d4 = 50\n")
        out = tmp_path / "c.csv"
        assert main(["simulate", "--cycles", "20", "--config", str(cfg),
                     "-o", str(out)]) == 0
        table = sc.read_cycle_csv(out)
        assert set(table.cycle_lengths().tolist()) == {110.0}

    @pytest.mark.parametrize("text, message", [
        ("seed = 9\nschedule = 0-24@nan\n", "schedule: cycle length must be finite, got nan"),
        ("seed = 1e3\n", "line 1: seed: invalid literal for int() with base 10: '1e3'"),
        ("seed = -1\n", "line 1: seed: must be >= 0, got -1"),
    ])
    def test_bad_config_exits_1(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        rc = main(["simulate", "--cycles", "20", "--config", str(cfg),
                   "-o", str(tmp_path / "c.csv")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


class TestIngest:
    def test_events_round_trip_through_csvs(self, tmp_path, cycles_csv):
        table = sc.read_cycle_csv(cycles_csv)
        events_csv = tmp_path / "events.csv"
        sc.write_event_csv(sc.emit_events(table), events_csv)
        out = tmp_path / "re.csv"
        assert main(["ingest", "--events", str(events_csv), "-o", str(out)]) == 0
        assert out.read_bytes() == cycles_csv.read_bytes()

    def test_leading_bom_is_skipped(self, tmp_path, cycles_csv):
        # Excel's "CSV UTF-8" starts the file with one; it used to exit 1
        # with "expected header [...], got ['\ufefftimestamp_ms', ...]".
        events_csv = tmp_path / "events.csv"
        sc.write_event_csv(sc.emit_events(sc.read_cycle_csv(cycles_csv)), events_csv)
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + events_csv.read_bytes())
        out = tmp_path / "re.csv"
        assert main(["ingest", "--events", str(bom_csv), "-o", str(out)]) == 0
        assert out.read_bytes() == cycles_csv.read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["ingest", "--events", str(tmp_path / "nope.csv"),
                   "-o", str(tmp_path / "out.csv")])
        assert rc == 1

    def test_short_event_row_names_its_line(self, tmp_path, capsys, cycles_csv):
        events_csv = tmp_path / "events.csv"
        sc.write_event_csv(sc.emit_events(sc.read_cycle_csv(cycles_csv)), events_csv)
        lines = events_csv.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0]
        events_csv.write_text("\n".join(lines) + "\n")
        rc = main(["ingest", "--events", str(events_csv), "-o", str(tmp_path / "out.csv")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 5: not enough values to unpack (expected 4, got 3)\n"

    def test_oversized_header_field_exits_1(self, tmp_path, capsys):
        events_csv = tmp_path / "events.csv"
        events_csv.write_text('"' + "t" * 200_000 + "\n1,1,p4,start\n")
        rc = main(["ingest", "--events", str(events_csv), "-o", str(tmp_path / "out.csv")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 1: field larger than field limit (131072)\n"


class TestFit:
    def test_distribution_dump(self, tmp_path, cycles_csv):
        out = tmp_path / "dist.csv"
        rc = main(["fit", "--input", str(cycles_csv), "--quantity", "d4",
                   "--cycle-length", "120", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,probability"
        probs = [float(l.split(",")[1]) for l in lines[1:]]
        assert sum(probs) == pytest.approx(1.0)

    def test_leading_bom_is_skipped(self, tmp_path, cycles_csv):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + cycles_csv.read_bytes())
        outs = [tmp_path / "plain.csv", tmp_path / "bom_out.csv"]
        for source, out in zip((cycles_csv, bom_csv), outs):
            assert main(["fit", "--input", str(source), "--quantity", "d4+d1",
                         "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_empty_stratum_exits_1(self, tmp_path, cycles_csv):
        rc = main(["fit", "--input", str(cycles_csv), "--cycle-length", "90",
                   "-o", str(tmp_path / "d.csv")])
        assert rc == 1


class TestPredict:
    """``predict`` and ``message``, its sibling that prints a SPaT message."""

    def test_prediction_deterministic(self, capsys, cycles_csv):
        assert main(["predict", "--input", str(cycles_csv), "--phase", "p4",
                     "--t", "36"]) == 0
        first = capsys.readouterr().out
        assert main(["predict", "--input", str(cycles_csv), "--phase", "p4",
                     "--t", "36"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["quantity"] == "d4"
        assert payload["predictedDuration"] > 36.0

    def test_confidence_and_asymmetric_methods(self, capsys, cycles_csv):
        assert main(["predict", "--input", str(cycles_csv), "--t", "0",
                     "--method", "confidence:0.8"]) == 0
        conf = json.loads(capsys.readouterr().out)
        assert conf["method"] == "confidence(0.8)"
        assert main(["predict", "--input", str(cycles_csv), "--t", "0",
                     "--method", "asymmetric:3:1"]) == 0
        asym = json.loads(capsys.readouterr().out)
        assert asym["method"] == "asymmetric(3,1)"

    @pytest.mark.parametrize("spec, extra, reason", [
        ("confidence", [], "predictor must look like 'confidence:alpha', got 'confidence'"),
        ("asymmetric:nan:1", [], "c1 and c2 must be > 0 and finite, got c1=nan, c2=1.0"),
        ("asymmetric:1:inf", [], "c1 and c2 must be > 0 and finite, got c1=1.0, c2=inf"),
        ("asymmetric:nan:1", ["--phase", "p1", "--approach", "2"],
         "c1 and c2 must be > 0 and finite, got c1=nan, c2=1.0"),
    ])
    def test_bad_method_is_data_error(self, capsys, cycles_csv, spec, extra, reason):
        rc = main(["predict", "--input", str(cycles_csv), "--t", "10",
                   "--method", spec, *extra])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {reason}\n"

    @pytest.mark.parametrize("flag, value, extra", [
        ("--t", "-1", ["predict", "--phase", "p2"]),
        ("--t", "-1", ["message", "--phase", "p2"]),
        ("--t", "-1", ["message"]),
        ("--phase-start", "-5", ["message", "--t", "10"]),
    ])
    def test_negative_time_is_usage_error(self, capsys, cycles_csv, flag, value, extra):
        command, *rest = extra
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(cycles_csv), *rest, flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: expected a finite number >= 0, got {value}" in err

    def test_sum_phase_routes(self, capsys, cycles_csv):
        assert main(["predict", "--input", str(cycles_csv), "--phase", "p1",
                     "--t", "38", "--approach", "1"]) == 0
        a1 = json.loads(capsys.readouterr().out)
        assert main(["predict", "--input", str(cycles_csv), "--phase", "p1",
                     "--t", "38", "--approach", "2"]) == 0
        a2 = json.loads(capsys.readouterr().out)
        assert a1["quantity"] == a2["quantity"] == "d4+d1"

    def test_message_mode(self, capsys, cycles_csv):
        assert main(["message", "--input", str(cycles_csv), "--phase", "p4",
                     "--t", "0", "--site", "s1"]) == 0
        msg = json.loads(capsys.readouterr().out)
        assert msg["site"] == "s1"
        assert msg["startTime"] == 0.0

    # What ``predict --message`` printed on this fixture before ``message``
    # replaced it: ``message`` with the same flags prints the same bytes.
    @pytest.mark.parametrize("flags, out, err", [
        (["--phase", "p4", "--t", "0", "--site", "s1"],
         '{"site":"s1","cycle":0,"phase":"p4","madeAt":0.00,"startTime":0.00,'
         '"minEndTime":36.00,"maxEndTime":60.00,"likelyTime":42.29,"confidenceAlpha":0.80,'
         '"confidenceValue":36.00,"nextTime":120.00,"degraded":false}\n', ""),
        (["--phase", "p1", "--t", "38.5", "--phase-start", "40"], "",
         "error: phase_start = 40 s is after t = 38.5 s; the phase has not started yet\n"),
        (["--phase", "p1", "--t", "38.5", "--phase-start", "36"],
         '{"site":"","cycle":0,"phase":"p1","madeAt":38.50,"startTime":36.00,'
         '"minEndTime":41.00,"maxEndTime":76.00,"likelyTime":52.39,"confidenceAlpha":0.80,'
         '"confidenceValue":41.00,"nextTime":162.29,"degraded":false}\n', ""),
        (["--phase", "p2", "--t", "500"],
         '{"site":"","cycle":0,"phase":"p2","madeAt":500.00,"startTime":0.00,'
         '"minEndTime":501.00,"maxEndTime":501.00,"likelyTime":501.00,"confidenceAlpha":0.80,'
         '"confidenceValue":501.00,"nextTime":621.00,"degraded":true}\n', ""),
        (["--phase", "p5", "--t", "10", "--alpha", "0.3"],
         '{"site":"","cycle":0,"phase":"p5","madeAt":10.00,"startTime":0.00,'
         '"minEndTime":36.00,"maxEndTime":76.00,"likelyTime":45.02,"confidenceAlpha":0.30,'
         '"confidenceValue":51.00,"nextTime":162.29,"degraded":false}\n', ""),
        (["--phase", "p8", "--t", "50", "--phase-start", "37.25", "--alpha", "0.95",
          "--site", 'a"b'],
         '{"site":"a\\"b","cycle":0,"phase":"p8","madeAt":50.00,"startTime":37.25,'
         '"minEndTime":51.00,"maxEndTime":60.00,"likelyTime":55.12,"confidenceAlpha":0.95,'
         '"confidenceValue":51.00,"nextTime":120.00,"degraded":false}\n', ""),
        (["--phase", "p6", "--t", "119.99"],
         '{"site":"","cycle":0,"phase":"p6","madeAt":119.99,"startTime":0.00,'
         '"minEndTime":120.00,"maxEndTime":120.00,"likelyTime":120.00,"confidenceAlpha":0.80,'
         '"confidenceValue":120.00,"nextTime":165.02,"degraded":false}\n', ""),
        (["--phase", "p4", "--t", "36", "--cycle-length", "120", "--target-day", "0",
          "--delta", "1"], "", "error: no cycles in days [-1, -1]\n"),
        (["--phase", "p4", "--t", "36", "--cycle-length", "120", "--target-day", "1",
          "--delta", "1"],
         '{"site":"","cycle":0,"phase":"p4","madeAt":36.00,"startTime":0.00,'
         '"minEndTime":41.00,"maxEndTime":60.00,"likelyTime":48.84,"confidenceAlpha":0.80,'
         '"confidenceValue":41.00,"nextTime":120.00,"degraded":false}\n', ""),
    ], ids=["p4-site", "p1-phase-start-after-t", "p1-phase-start", "p2-hold", "p5-alpha",
            "p8-all-flags", "p6", "empty-window", "window"])
    def test_message_prints_predict_message_bytes(self, capsys, cycles_csv, flags, out,
                                                  err):
        rc = main(["message", "--input", str(cycles_csv), *flags])
        assert rc == (1 if err else 0)
        assert capsys.readouterr() == (out, err)

    def test_coordination_phase_ends_at_cycle_length(self, capsys, cycles_csv):
        assert main(["predict", "--input", str(cycles_csv), "--phase", "p2",
                     "--t", "70"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predictedDuration"] == 120.0
        assert payload["residual"] == 50.0

    def test_coordination_phase_past_cycle_length_exits_1(self, capsys, cycles_csv):
        for t in ("120", "500"):
            rc = main(["predict", "--input", str(cycles_csv), "--phase", "p2", "--t", t])
            out, err = capsys.readouterr()
            assert rc == 1
            assert out == ""
            assert err == f"error: t = {t} s is beyond the cycle length 120 s\n"

    def test_coordination_phase_past_cycle_length_message_holds(self, capsys, cycles_csv):
        # The one-shot message holds, degraded, as the stream does at such a t.
        for t in ("120", "500"):
            rc = main(["message", "--input", str(cycles_csv), "--phase", "p2", "--t", t])
            out, err = capsys.readouterr()
            assert rc == 0
            assert err == ""
            msg = json.loads(out)
            assert msg["degraded"] is True
            assert msg["likelyTime"] == float(t) + 1.0

    @pytest.mark.parametrize("t", ["1e16", "1e308"])
    def test_t_too_large_to_hold_exits_1(self, capsys, cycles_csv, t):
        # Past history the message holds at t + 1 s, which rounds back to t
        # here.  Once a held line with likelyTime equal to madeAt (1e16), and
        # an error about nextTime that named no flag (1e308).
        rc = main(["message", "--input", str(cycles_csv), "--phase", "p4", "--t", t])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: t = {float(t):g} s is too large to hold: t + 1 s is not above t\n"
        )

    @pytest.mark.parametrize("argv, flag, reason", [
        (["predict", "--input", "c.csv", "--t", "10", "--phase-start", "5"],
         "--phase-start", None),
        (["predict", "--input", "c.csv", "--t", "10", "--alpha", "0.3"], "--alpha", None),
        (["predict", "--input", "c.csv", "--t", "10", "--approach", "2"], "--approach",
         "only for the sum phases p1, p5"),
        (["predict", "--input", "c.csv", "--phase", "p2", "--t", "10", "--approach", "1"],
         "--approach", "only for the sum phases p1, p5"),
        (["message", "--input", "c.csv", "--phase", "p1", "--t", "10", "--approach", "2"],
         "--approach", None),
        (["predict", "--input", "c.csv", "--t", "10", "--message"], "--message", None),
        (["message", "--input", "c.csv", "--t", "10", "--method", "expectation"],
         "--method", None),
        (["simulate", "--cycles", "6", "-o", "c.csv", "--site", "x"], "--site", None),
        (["ingest", "--events", "e.csv", "-o", "c.csv", "--site", "x"], "--site", None),
        (["fit", "--input", "c.csv", "-o", "d.csv", "--site", "x"], "--site", None),
        (["predict", "--input", "c.csv", "--t", "10", "--site", "x"], "--site", None),
        (["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
          "--site", "x"], "--site", None),
    ])
    def test_flag_that_changes_nothing_is_usage_error(self, capsys, argv, flag, reason):
        # Each of these once printed what the run without the flag printed.  A
        # command that does not declare the flag rejects it; ``--approach`` on
        # a phase that is no sum is the one rule written by hand.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        if reason is None:
            given = " ".join(argv[argv.index(flag):])
            assert err.endswith(f"error: unrecognized arguments: {given}\n")
        else:
            assert f"error: argument {flag}: {reason}" in err

    def test_phase_start_after_t_exits_1(self, capsys, cycles_csv):
        argv = ["message", "--input", str(cycles_csv), "--phase", "p4", "--t", "10",
                "--phase-start"]
        assert main([*argv, "30"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: phase_start = 30 s is after t = 10 s; "
                       "the phase has not started yet\n")
        assert main([*argv, "10"]) == 0
        assert json.loads(capsys.readouterr().out)["startTime"] == 10.0

    def test_coordination_phase_on_mixed_plan_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "plans.cfg"
        cfg.write_text("schedule = 0-6@100, 6-24@120\n")
        mixed = tmp_path / "mixed.csv"
        assert main(["simulate", "--config", str(cfg), "--cycles", "720",
                     "-o", str(mixed)]) == 0
        for phase in ("p2", "p6", "p4"):
            rc = main(["predict", "--input", str(mixed), "--phase", phase,
                       "--t", "30"])
            out, err = capsys.readouterr()
            assert rc == 1
            assert out == ""
            assert err.startswith("error: table mixes cycle lengths [100.0, 120.0]")

    def test_ring2_phase(self, capsys, cycles_csv):
        assert main(["predict", "--input", str(cycles_csv), "--phase", "p8",
                     "--t", "36"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quantity"] == "d8"

    def test_bad_alpha_is_usage_error(self, capsys, cycles_csv):
        with pytest.raises(SystemExit) as exc:
            main(["message", "--input", str(cycles_csv), "--t", "0",
                  "--alpha", "1.5"])
        assert exc.value.code == 2
        assert "argument --alpha: alpha must be in (0, 1), got 1.5" in capsys.readouterr().err


class TestBadCycleCsv:
    @pytest.mark.parametrize("edit, reason", [
        (lambda f: f[:3] + ["nan"] + f[4:], "d4 must be finite and >= 0"),
        (lambda f: f[:-1], "expected 9 fields, got 8"),
    ])
    def test_bad_row_exits_1(self, tmp_path, capsys, cycles_csv, edit, reason):
        lines = cycles_csv.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["predict", "--input", str(bad), "--t", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line 3: {reason}\n"

    def test_oversized_field_exits_1(self, tmp_path, capsys, cycles_csv):
        lines = cycles_csv.read_text().splitlines()
        lines[3] = '"' + "1" * 200_000
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--input", str(bad), "-o", str(tmp_path / "d.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 4: field larger than field limit (131072)\n"


class TestEvaluate:
    def test_comparison_csv(self, tmp_path, cycles_csv):
        out = tmp_path / "cmp.csv"
        rc = main(["evaluate", "--input", str(cycles_csv),
                   "--compare", "expectation,confidence:0.8",
                   "--metric", "mae", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,predictor,metric,value,n"
        predictors = {l.split(",")[1] for l in lines[1:]}
        assert predictors == {"expectation", "confidence:0.8"}

    def test_plot_data_flag(self, tmp_path, cycles_csv):
        out = tmp_path / "cmp.csv"
        prefix = str(tmp_path / "d4")
        rc = main(["evaluate", "--input", str(cycles_csv),
                   "--compare", "expectation", "--metric", "mae",
                   "--plot-data", prefix, "-o", str(out)])
        assert rc == 0
        assert (tmp_path / "d4_pdf.csv").exists()
        assert (tmp_path / "d4_cdf.csv").exists()

    @pytest.mark.parametrize("existing", [None, b"t,predictor\r\n"])
    def test_plot_data_into_missing_directory_leaves_output_alone(
        self, tmp_path, capsys, cycles_csv, existing
    ):
        # Once exited 1 after writing the whole comparison CSV.
        out = tmp_path / "cmp.csv"
        if existing is not None:
            out.write_bytes(existing)
        rc = main(["evaluate", "--input", str(cycles_csv), "--compare", "expectation",
                   "--plot-data", str(tmp_path / "missing" / "x"), "-o", str(out)])
        assert rc == 1
        assert "No such file or directory" in capsys.readouterr().err
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    def test_leave_one_out_on_other_training_data_exits_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--cycles", "200", "--seed", "1", "-o", str(a)]) == 0
        assert main(["simulate", "--cycles", "200", "--seed", "2", "-o", str(b)]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--input", str(a), "--train-input", str(b),
                   "--quantity", "d4", "--leave-one-out", "--compare", "expectation",
                   "-o", str(tmp_path / "c.csv")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: leave-one-out requires in-sample evaluation\n"

    def test_bin_width_past_the_largest_float_exits_1(self, tmp_path, capsys, cycles_csv):
        # Once numpy's overflow RuntimeWarning, then "Maximum allowed size exceeded".
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["evaluate", "--input", str(cycles_csv), "--compare", "expectation",
                       "--plot-data", str(tmp_path / "p"), "--bin-width", "1e308",
                       "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == (
            "", "error: bin_width = 1e+308 s puts the last bin edge past the largest float\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == [cycles_csv.name]

    def test_unknown_metric_is_data_error(self, tmp_path, cycles_csv):
        rc = main(["evaluate", "--input", str(cycles_csv),
                   "--compare", "expectation", "--metric", "nope",
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("metric, reason", [
        ("loss:nan:1", "c1 and c2 must be > 0 and finite, got c1=nan, c2=1.0"),
        ("loss:inf:1", "c1 and c2 must be > 0 and finite, got c1=inf, c2=1.0"),
        ("loss:1:nan", "c1 and c2 must be > 0 and finite, got c1=1.0, c2=nan"),
        ("loss:0:1", "c1 and c2 must be > 0 and finite, got c1=0.0, c2=1.0"),
        ("loss:1e20:1", "c1/(c1+c2) must be in (0, 1), got c1=1e+20, c2=1.0"),
        ("mae,loss:1e308:1e300", "loss(1e+308,1e+300) of expectation overflows to inf"),
    ])
    def test_bad_metric_writes_nothing(self, tmp_path, capsys, cycles_csv, metric, reason):
        out_csv = tmp_path / "x.csv"
        rc = main(["evaluate", "--input", str(cycles_csv), "--compare", "expectation",
                   "--metric", metric, "-o", str(out_csv)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {reason}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("spec, reason", [
        ("bogus", "unknown predictor 'bogus'"),
        ("confidence:1.5", "alpha must be in (0, 1)"),
        ("asymmetric:3", "predictor must look like 'asymmetric:c1:c2', got 'asymmetric:3'"),
        ("asymmetric:3:1:1",
         "predictor must look like 'asymmetric:c1:c2', got 'asymmetric:3:1:1'"),
        ("asymmetric:0:1", "c1 and c2 must be > 0"),
        ("asymmetric:nan:1", "c1 and c2 must be > 0 and finite, got c1=nan, c2=1.0"),
        ("asymmetric:1:inf", "c1 and c2 must be > 0 and finite, got c1=1.0, c2=inf"),
    ])
    def test_bad_predictor_is_data_error(self, tmp_path, capsys, cycles_csv, spec, reason):
        rc = main(["evaluate", "--input", str(cycles_csv), "--compare", spec,
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith(f"error: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--input", "{big}", "--step", "0.01"],  # error_curve's grid
        ["--input", "{cycles}", "--train-input", "{big}",  # write_plot_data's bins
         "--plot-data", "{tmp}/p", "--bin-width", "0.01"],
    ])
    def test_grid_too_large_to_allocate_exits_1(self, tmp_path, capsys, cycles_csv, argv):
        # 10**18 steps of 0.01 s up to d4 = 10**16 s: 6.94 EiB, more than any
        # 64-bit address space maps.  Once a numpy MemoryError traceback.
        lines = cycles_csv.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[3] = "9999999999999999.99"
        lines[2] = ",".join(fields)
        big = tmp_path / "big.csv"
        big.write_text("".join(lines))
        argv = [a.format(big=big, cycles=cycles_csv, tmp=tmp_path) for a in argv]
        rc = main(["evaluate", *argv, "--quantity", "d4", "--compare", "expectation",
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: Unable to allocate 6\.94 EiB .*\n", err)

    @pytest.mark.parametrize("extra", [[], ["--leave-one-out"]])
    def test_weights_whose_ratio_rounds_to_0_exit_1(self, tmp_path, capsys, cycles_csv,
                                                    extra):
        out_csv = tmp_path / "x.csv"
        rc = main(["evaluate", "--input", str(cycles_csv), "--compare",
                   "asymmetric:1e308:1e308", *extra, "-o", str(out_csv)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: c1/(c1+c2) must be in (0, 1), got c1=1e+308, c2=1e+308\n"
        assert not out_csv.exists()


class TestEmit:
    def test_ndjson_file(self, tmp_path, cycles_csv):
        out = tmp_path / "spat.ndjson"
        rc = main(["emit", "--input", str(cycles_csv), "--cadence-ms", "1000",
                   "--alpha", "0.8", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        table = sc.read_cycle_csv(cycles_csv)
        assert len(lines) == 2 * sum(int(r.length_s) for r in table)
        first = json.loads(lines[0])
        assert first["phase"] == "p4"

    def test_cycle_length_off_the_stratum_grid(self, tmp_path):
        # L = 100.03 s has stratum key 100.0 s, so every cycle's tick at
        # t = 100.00 is past its stratum's L and holds on both rings.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schedule = 0-24@100.03\n")
        cycles, out = tmp_path / "c.csv", tmp_path / "spat.ndjson"
        assert main(["simulate", "--config", str(cfg), "--cycles", "3",
                     "-o", str(cycles)]) == 0
        assert main(["emit", "--input", str(cycles), "-o", str(out)]) == 0
        held = [json.loads(l) for l in out.read_text().splitlines()
                if json.loads(l)["degraded"]]
        assert [(m["cycle"], m["phase"], m["madeAt"], m["nextTime"]) for m in held] == [
            (i, phase, 100.0, 201.0) for i in range(3) for phase in ("p2", "p6")
        ]

    def test_table_that_cannot_stream_exits_1_before_writing(self, tmp_path, capsys,
                                                             cycles_csv):
        # d4 = 130 s in a 120 s cycle: p4's likely end would pass its next
        # green at L, so emit stops before its first line.
        lines = cycles_csv.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "130.00"
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        reason = ("error: cycle 1: d4 = 130 s is not below the cycle length 120 s; "
                  "cannot stream this table\n")
        out_file = tmp_path / "m.ndjson"
        for argv in (["emit", "--input", str(bad), "--cadence-ms", "1000",
                      "-o", str(out_file)],
                     ["emit", "--input", str(bad)],
                     ["message", "--input", str(bad), "--phase", "p4", "--t", "119"]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", reason)
        assert not out_file.exists()
        # fit, evaluate and a p2 prediction (which ends at L) still load the table.
        assert main(["fit", "--input", str(bad), "-o", str(tmp_path / "d.csv")]) == 0
        assert main(["evaluate", "--input", str(bad), "--compare", "expectation",
                     "-o", str(tmp_path / "e.csv")]) == 0
        assert main(["predict", "--input", str(bad), "--phase", "p2", "--t", "70"]) == 0
        assert json.loads(capsys.readouterr().out)["predictedDuration"] == 120.0

    def test_cadence_usage_error(self, tmp_path, cycles_csv):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--input", str(cycles_csv), "--cadence-ms", "5",
                  "-o", str(tmp_path / "x.ndjson")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, reason", [
        (["--speed", "1e-300"], "speed 1e-300 at cadence_ms 100 paces ticks 1e+299 s"),
        (["--cadence-ms", "100000000000000000000", "--speed", "realtime"],
         "speed 1 at cadence_ms 100000000000000000000 paces ticks 1e+17 s"),
    ])
    def test_pace_longer_than_a_sleep_exits_1_before_writing(self, tmp_path, capsys,
                                                             cycles_csv, flags, reason):
        out_file = tmp_path / "m.ndjson"
        assert main(["emit", "--input", str(cycles_csv), *flags, "-o", str(out_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {reason} apart, more than a sleep can wait (")
        assert "Traceback" not in err
        assert out_file.read_text() == ""

    @pytest.mark.parametrize("speed", ["0", "-1", "nan", "inf", "fast"])
    def test_bad_speed_is_usage_error(self, capsys, speed):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--input", "cycles.csv", "--speed", speed])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --speed" in err

    @pytest.mark.parametrize("speed, value", [
        ("max", None), ("realtime", 1.0), ("2.5", 2.5),
    ])
    def test_speed_values(self, speed, value):
        args = build_parser().parse_args(["emit", "--input", "c.csv", "--speed", speed])
        assert args.speed == value


class TestOutOfSampleByDay:
    """--train-input with --target-day D: the input's day D, fitted on the
    training table's days [D - delta, D - 1], as ``window`` composes them."""

    DAY, DELTA = 5, 3

    @pytest.fixture
    def month(self, tmp_path):
        month_csv, day_csv = tmp_path / "month.csv", tmp_path / "day.csv"
        assert main(["simulate", "--cycles", str(6 * 720), "--seed", "7",
                     "-o", str(month_csv)]) == 0
        table = sc.read_cycle_csv(month_csv)
        sc.write_cycle_csv(sc.window(table, self.DAY + 1, 1), day_csv)
        return table, month_csv, day_csv

    def _run_both_inputs(self, tmp_path, month, command, flags):
        """The bytes a command writes for the day's own file and for the
        whole table as --input, each trained on the whole table."""
        _, month_csv, day_csv = month
        outs = []
        for source in (day_csv, month_csv):
            out = tmp_path / f"{command}_{source.stem}.out"
            assert main([command, "--input", str(source), "--train-input", str(month_csv),
                         "--target-day", str(self.DAY), "--delta", str(self.DELTA),
                         *flags, "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        return outs

    def test_evaluate(self, tmp_path, month):
        table = month[0]
        specs, metrics = ["expectation", "confidence:0.8"], ["mae", "mse"]
        flags = ["--compare", ",".join(specs), "--metric", ",".join(metrics)]
        got = self._run_both_inputs(tmp_path, month, "evaluate", flags)
        want = tmp_path / "want.csv"
        sc.write_comparison_csv(sc.compare(
            [(spec, sc.parse_method(spec)) for spec in specs],
            sc.fit(sc.window(table, self.DAY, self.DELTA), "d4"),
            sc.window(table, self.DAY + 1, 1), metrics,
        ), want)
        assert got == [want.read_bytes()] * 2
        in_sample = tmp_path / "in_sample.csv"
        assert main(["evaluate", "--input", str(month[1]), "--target-day", str(self.DAY),
                     "--delta", str(self.DELTA), *flags, "-o", str(in_sample)]) == 0
        assert in_sample.read_bytes() != got[0]

    def test_emit(self, tmp_path, month):
        table = month[0]
        got = self._run_both_inputs(tmp_path, month, "emit", ["--cadence-ms", "10000"])
        want = io.StringIO()
        sc.stream(sc.window(table, self.DAY + 1, 1),
                  sc.fit_message_dists(sc.window(table, self.DAY, self.DELTA)), want,
                  cadence_ms=10000)
        assert got == [want.getvalue().encode()] * 2

    def test_input_without_the_target_day_exits_1(self, tmp_path, capsys, month):
        _, month_csv, _ = month
        rc = main(["evaluate", "--input", str(month_csv), "--train-input", str(month_csv),
                   "--target-day", "9", "--compare", "expectation",
                   "-o", str(tmp_path / "e.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: no cycles in days [9, 9]\n"


@pytest.mark.parametrize("argv", [
    ["ingest", "--events", "e.csv", "-o", "c.csv", "--tolerance", "inf"],
    ["ingest", "--events", "e.csv", "-o", "c.csv", "--tolerance", "nan"],
    ["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
     "--step", "inf"],
    ["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
     "--step", "nan"],
    ["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
     "--bin-width", "inf"],
    ["predict", "--input", "c.csv", "--t", "nan"],
    ["message", "--input", "c.csv", "--t", "10", "--phase-start", "inf"],
    ["fit", "--input", "c.csv", "-o", "d.csv", "--cycle-length", "nan"],
    # A grid finer than the 0.01 s log clock resolution (1e-9 once asked numpy for 343 GiB).
    ["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
     "--step", "1e-9"],
    ["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
     "--step", "0.009"],
    # Bins finer than that once asked np.arange for 1e8 edges (1e-7), or more
    # than it can hold (1e-300), after the comparison CSV was written.
    ["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
     "--bin-width", "1e-300"],
    ["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
     "--bin-width", "1e-7"],
    # numpy's default_rng once refused it with a message that named no flag.
    ["simulate", "--cycles", "6", "-o", "c.csv", "--seed", "-1"],
])
def test_non_finite_float_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: spatcast")
    wanted = {"--t": "a finite number >= 0", "--phase-start": "a finite number >= 0",
              "--step": "a finite number >= 0.01", "--bin-width": "a finite number >= 0.01",
              "--seed": "an integer >= 0"}.get(argv[-2], "a finite positive number")
    assert f"argument {argv[-2]}: expected {wanted}, got {argv[-1]}" in err


# A tolerance the flag accepts but that is infinite in ms once raised out of
# ingest_events as OverflowError, with a traceback.
def test_tolerance_infinite_in_ms_exits_1_before_writing(tmp_path, capsys, cycles_csv):
    events_csv = tmp_path / "events.csv"
    sc.write_event_csv(sc.emit_events(sc.read_cycle_csv(cycles_csv)), events_csv)
    out_file = tmp_path / "c.csv"
    rc = main(["ingest", "--events", str(events_csv), "--tolerance", "1e308",
               "-o", str(out_file)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tolerance must be a finite number >= 0 in ms, got 1e+308 s\n"
    assert not out_file.exists()


# Each argparse type helper, given text that int() or float() rejects: the
# error names the flag and what it expects, never the helper.
@pytest.mark.parametrize("argv, expected", [
    (["message", "--input", "c.csv", "--t", "1", "--alpha", "high"], "alpha must be in (0, 1)"),
    (["fit", "--input", "c.csv", "-o", "d.csv", "--cycle-length", "long"],
     "expected a finite positive number"),
    (["message", "--input", "c.csv", "--t", "ten"], "expected a finite number >= 0"),
    (["emit", "--input", "c.csv", "--speed", "fast"], "expected a finite positive number"),
    (["simulate", "-o", "c.csv", "--cycles", "6.0"], "expected a positive integer"),
    (["simulate", "--cycles", "6", "-o", "c.csv", "--seed", "1.5"], "expected an integer >= 0"),
    (["emit", "--input", "c.csv", "--cadence-ms", "0.5"], "expected an integer >= 10"),
    (["emit", "--input", "c.csv", "--cadence-ms", "5"], "expected an integer >= 10"),
    (["evaluate", "--input", "c.csv", "--compare", "expectation", "-o", "x.csv",
      "--step", "fine"], "expected a finite number >= 0.01"),
])
def test_unparsable_flag_value_names_the_flag(capsys, argv, expected):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid _" not in err
    assert err.endswith(f"error: argument {argv[-2]}: {expected}, got {argv[-1]}\n")


def _valid_event_lines():
    table = sc.simulate(sc.TimingPlan(), sc.peaked_demand(3), 3)
    buf = io.StringIO()
    sc.write_event_csv(sc.emit_events(table), buf)
    return buf.getvalue().splitlines()


_EVENT_LINES = _valid_event_lines()
_FIELD_TEXT = st.one_of(
    st.sampled_from(["", "1", "2", "01", " 2", "3", "-1", "p4", "p9", "start", "END",
                     "1e3", "1_000", str(2**63), "9" * 25]),
    st.text(alphabet="0123456789-_ .,\"pxe", max_size=8),
)


@st.composite
def _mutated_event_csv(draw):
    """A valid event CSV with one to three lines dropped, doubled, swapped,
    edited or blanked, or with a huge-timestamp line inserted."""
    lines = list(_EVENT_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "edit", "blank", "huge"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == "edit":
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELD_TEXT)
            lines[i] = ",".join(fields)
        elif op == "blank":
            lines[i] = ""
        elif op == "huge":
            ts = draw(st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**30]))
            lines.insert(i, f"{ts},{draw(st.sampled_from(['1', '2']))},p4,start")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_mutated_event_csv())
def test_ingest_survives_mutated_event_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        events, cycles = Path(tmp) / "events.csv", Path(tmp) / "cycles.csv"
        events.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["ingest", "--events", str(events), "-o", str(cycles)])
        assert rc in (0, 1)
        assert out.getvalue() == ""
        if rc == 1:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
            sc.read_cycle_csv(cycles)


_CYCLE_CSV = io.StringIO()
sc.write_cycle_csv(sc.simulate(sc.TimingPlan(), sc.peaked_demand(4), 40), _CYCLE_CSV)
_NUMBER_TEXT = st.sampled_from(
    ["1", "3", "0.8", "0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "1e400", ""]
)


def _spec_list(good, names):
    """Comma lists of specs: a good spec, a name and zero to two
    colon-separated numbers, or free text."""
    spec = st.one_of(
        st.sampled_from(good),
        st.tuples(st.sampled_from(names), st.lists(_NUMBER_TEXT, max_size=2)).map(
            lambda parts: ":".join([parts[0], *parts[1]])
        ),
        st.text(alphabet="aceilmnopstx:.,-+e019", max_size=12),
    )
    return st.lists(spec, min_size=1, max_size=3).map(",".join)


def _run(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, after checking what every
    run keeps to: exit 0, 1 or 2, no traceback, and one ``error:`` line on exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    return rc, out.getvalue(), err.getvalue()


_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(
    _spec_list(["mae", "mse", "loss:3:1", "loss:1:3"], ["mae", "mse", "loss", "MAE", ""]),
    _spec_list(["expectation", "confidence:0.8", "asymmetric:3:1"],
               ["expectation", "confidence", "asymmetric", ""]),
    st.booleans(),
)
def test_evaluate_survives_metric_and_compare_specs(metric, compare, leave_one_out):
    with tempfile.TemporaryDirectory() as tmp:
        cycles, result = Path(tmp) / "cycles.csv", Path(tmp) / "cmp.csv"
        cycles.write_text(_CYCLE_CSV.getvalue())
        argv = ["evaluate", "--input", str(cycles), "--metric", metric,
                "--compare", compare, "-o", str(result)]
        if leave_one_out:
            argv.append("--leave-one-out")
        rc, out, err = _run(argv)
        assert out == ""
        if rc == 0:
            assert err == ""
            with open(result, newline="") as f:
                values = [float(row["value"]) for row in csv.DictReader(f)]
            assert values and all(math.isfinite(v) for v in values)
        else:
            assert not result.exists()


@settings(max_examples=150, deadline=None)
@given(
    st.none() | _spec_list(["expectation", "confidence:0.8", "asymmetric:3:1"],
                           ["expectation", "confidence", "asymmetric", ""]),
    st.sampled_from(["p4", "p1", "p2", "p5"]),
    st.none() | st.sampled_from(["1", "2"]),
    st.sampled_from(["0", "10", "38.5", "200"]),
)
def test_predict_survives_method_specs(method, phase, approach, t):
    with tempfile.TemporaryDirectory() as tmp:
        cycles = Path(tmp) / "cycles.csv"
        cycles.write_text(_CYCLE_CSV.getvalue())
        argv = ["predict", "--input", str(cycles), "--phase", phase, "--t", t]
        if approach is not None:
            argv += ["--approach", approach]
        if method is not None:
            argv += ["--method", method]
        rc, out, err = _run(argv)
        # --approach applies to the sum phases only.
        if approach is not None and phase not in ("p1", "p5"):
            assert rc == 2
        if rc == 0:
            assert err == ""
            payload = json.loads(out, parse_constant=_reject_constant)
            assert list(payload) == ["quantity", "method", "madeAt",
                                     "predictedDuration", "residual", "n"]
            # n counts the training samples past t on the route taken: the
            # lead for joint pairs, the sum or duration otherwise, and every
            # cycle for a coordination phase, which ends at L.
            table = sc.read_cycle_csv(cycles)
            if phase == "p2":
                assert payload["n"] == len(table)
            else:
                quantity = {"p4": "d4", "p1": "d4+d1", "p5": "d8+d5"}[phase]
                key = quantity.split("+")[0] if approach == "2" else quantity
                assert payload["n"] == int((table.column(key) > float(t)).sum())
            assert payload["residual"] == pytest.approx(
                payload["predictedDuration"] - float(t), abs=1e-4)
        else:
            assert out == ""


_GOOD_ALPHAS = ["0.8", "0.3", "0.999"]
_GOOD_STARTS = ["0", "10", "38.5", "200"]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["p4", "p1", "p2", "p5", "p8", "p6"]),
    st.sampled_from(["0", "10", "38.5", "200"]),
    st.none() | st.sampled_from([*_GOOD_ALPHAS, "0", "1", "nan", "-0.1", "x"]),
    st.none() | st.sampled_from([*_GOOD_STARTS, "-1", "inf", "nan", "x"]),
)
def test_message_survives_flags(phase, t, alpha, phase_start):
    with tempfile.TemporaryDirectory() as tmp:
        cycles = Path(tmp) / "cycles.csv"
        cycles.write_text(_CYCLE_CSV.getvalue())
        argv = ["message", "--input", str(cycles), "--phase", phase, "--t", t]
        if alpha is not None:
            argv += ["--alpha", alpha]
        if phase_start is not None:
            argv += ["--phase-start", phase_start]
        rc, out, err = _run(argv)
        if alpha not in (None, *_GOOD_ALPHAS) or phase_start not in (None, *_GOOD_STARTS):
            assert rc == 2
        elif float(phase_start or 0) > float(t):
            assert rc == 1
        else:
            assert (rc, err) == (0, "")
            msg = json.loads(out, parse_constant=_reject_constant)
            assert (msg["phase"], msg["madeAt"], msg["startTime"]) == (
                phase, float(t), float(phase_start or 0))
            assert msg["confidenceAlpha"] == round(float(alpha or 0.8), 2)
        if rc != 0:
            assert out == ""


_SIX_CYCLES = io.StringIO()
sc.write_cycle_csv(sc.simulate(sc.TimingPlan(), sc.peaked_demand(6), 6), _SIX_CYCLES)
_CYCLE_FIELD_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e308", "-1", "-0.01", "0", "0.00",
                     "36.00", "120.00", "1e3", "", str(2**63), "9" * 25]),
    st.text(alphabet="0123456789-. e\"x", max_size=8),
)


@st.composite
def _mutated_cycle_csv(draw):
    """A valid 6-cycle CSV with one to three lines dropped, doubled, swapped,
    blanked, given a new field (the likeliest) or given one more byte."""
    lines = _SIX_CYCLES.getvalue().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "edit", "edit", "edit",
                                   "blank", "byte"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == "edit":
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_CYCLE_FIELD_TEXT)
            lines[i] = ",".join(fields)
        elif op == "blank":
            lines[i] = ""
        elif op == "byte":
            j = draw(st.integers(0, len(lines[i])))
            byte = draw(st.sampled_from(['"', "\x00", "\r", ",", "9", "-", ".", "e"]))
            lines[i] = lines[i][:j] + byte + lines[i][j:]
    return "\n".join(lines) + "\n"


_CSV_COMMANDS = [
    ["fit", "--quantity", "d4+d1", "-o", "{out}"],
    *(["evaluate", "--compare", "expectation,confidence:0.8,asymmetric:3:1",
       "--metric", "mae,loss:3:1", *extra, "-o", "{out}"]
      for extra in ([], ["--leave-one-out"], ["--target-day", "1", "--delta", "1"])),
    ["emit", "--cadence-ms", "5000", "-o", "{out}"],
    ["message", "--phase", "p4", "--t", "10"],
]


@settings(max_examples=150, deadline=None)
@given(_mutated_cycle_csv())
def test_commands_survive_mutated_cycle_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        cycles, written = Path(tmp) / "cycles.csv", Path(tmp) / "out"
        cycles.write_text(text)
        for command, *rest in _CSV_COMMANDS:
            written.unlink(missing_ok=True)
            argv = [command, "--input", str(cycles),
                    *(str(written) if a == "{out}" else a for a in rest)]
            rc, out, err = _run(argv)
            assert rc in (0, 1)
            produced = out + (written.read_text() if written.exists() else "")
            assert not _NON_FINITE.search(produced)
            if rc == 0:
                assert err == ""
            else:
                assert out == ""
            if out:
                json.loads(out, parse_constant=_reject_constant)


_CONFIG_VALUES = {
    "min_green_p4": ["20", "36", "50"],
    "extension": ["2", "5", "7.5"],
    "max_d4": ["45", "60", "90"],
    "max_d1": ["10", "25"],
    "schedule": ["0-24@120", "0-6@100, 6-24@120", "0-24@100.03", "0-24@150"],
    "side_street_rate": ["0-24@0", "0-24@2.5", "0-7@1, 7-24@30"],
    "left_turn_rate": ["0-24@0", "0-24@2.5", "0-7@1, 7-24@30"],
    "seed": ["0", "7", "123456789"],
    "start_ms": ["0", "86400000", "1700000000000"],
}
_CONFIG_JUNK = st.one_of(
    _NUMBER_TEXT,
    st.sampled_from([
        "1e9", str(2**63), "9" * 25, "-5", "x", "0-24@0", "0-24@nan", "0-12@120",
        "0-24@1e9", "0-24@1e308", "0-24@-1", "6-24@1", "0-24", "0-24@120,",
    ]),
    st.text(alphabet="0123456789-@,.e ", max_size=10),
)


@st.composite
def _config_text(draw):
    """Zero to five ``key = value`` lines; three values in four suit their key."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        key = draw(st.sampled_from([*_CONFIG_VALUES, "speed"]))
        if key in _CONFIG_VALUES and draw(st.integers(0, 3)):
            value = draw(st.sampled_from(_CONFIG_VALUES[key]))
        else:
            value = draw(_CONFIG_JUNK)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


@settings(max_examples=150, deadline=None)
@given(_config_text())
@example("schedule = 0-24@1e308\n")
def test_simulate_survives_random_config(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, cycles = Path(tmp) / "sim.cfg", Path(tmp) / "cycles.csv"
        cfg.write_text(text)
        rc, out, err = _run(["simulate", "--cycles", "6", "--config", str(cfg),
                             "-o", str(cycles)])
        assert rc in (0, 1)
        assert out == ""
        if rc == 0:
            assert err == ""
            assert not _NON_FINITE.search(cycles.read_text())
            sc.read_cycle_csv(cycles)


_WINDOW_SHIFT = Path(__file__).resolve().parent.parent / "scripts" / "window_shift_experiment.py"


@pytest.mark.parametrize("argv, message", [
    # Day 1 is the first day of data, and the first day evaluated is shift_day - 2.
    (["--shift-day", "3"], "--shift-day must be >= 4, got 3"),
    (["--shift-day", "10", "--last-day", "9"], "--last-day must be >= --shift-day (10), got 9"),
])
def test_window_shift_experiment_bounds_are_usage_errors(monkeypatch, capsys, argv, message):
    monkeypatch.setattr("sys.argv", [str(_WINDOW_SHIFT), *argv])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(_WINDOW_SHIFT), run_name="__main__")
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
