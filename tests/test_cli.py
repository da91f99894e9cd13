import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ddfwsc import analysis, simulator
from ddfwsc.cli import MAX_GRID_POINTS, main, parse_range
from ddfwsc.validation import run_checks


GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "ddfwsc.cli", *args],
                         capture_output=True, text=True, **kwargs)


class TestParseRange:
    def test_single_value(self):
        assert parse_range("10") == [10.0]

    def test_linear(self):
        assert parse_range("10:40:5") == [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

    def test_log(self):
        vals = parse_range("0.05:2:log20")
        assert len(vals) == 20
        assert vals[0] == pytest.approx(0.05)
        assert vals[-1] == pytest.approx(2.0)

    # Non-finite bounds or step, an empty or non-integer logN, and grids of
    # more than a million points (0:1e9:1e-9 would be 1e18) are refused.
    @pytest.mark.parametrize("bad", ["1:2", "1:2:3:4", "5:1:1", "1:2:log1", "0:2:log5", "a:b:c",
                                     "0:inf:1", "-inf:0:1", "nan:1:1", "0:10:log", "0:10:logx",
                                     "0:10:nan", "0:1e9:1e-9", "-1e308:1e308:1", "1:2:log1000001"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse_range(bad)

    def test_grid_size_limit(self):
        assert len(parse_range("0:999999:1")) == MAX_GRID_POINTS == 10 ** 6
        with pytest.raises(ValueError, match="more than 1000000 points"):
            parse_range("0:1000000:1")


class TestAnalyze:
    def test_zero_snr_anchor(self, capsys):
        rc = main(["analyze", "--scheme", "wsc1", "--beta", "1", "--snr-db", "0",
                   "--sigma0", "0", "--sigma1", "0", "--sigma2", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("snr_db,scheme,beta")
        assert ",0.5," in lines[1]

    def test_wsc2_sweep_monotone(self, capsys):
        rc = main(["analyze", "--scheme", "wsc2", "--snr-db", "10:40:5"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 7
        bers = [float(r.split(",")[6]) for r in rows]
        assert all(b < a for a, b in zip(bers, bers[1:]))

    def test_wsc1_without_beta_reports_optimum(self, capsys):
        rc = main(["analyze", "--scheme", "wsc1", "--snr-db", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        row = out.strip().splitlines()[1].split(",")
        beta_opt, pe_min = float(row[2]), float(row[6])
        ref_beta, ref_pe = analysis.optimize_beta(analysis.ClosedFormContext.from_db(20.0))
        assert beta_opt == pytest.approx(ref_beta, abs=1e-4)
        assert pe_min == pytest.approx(ref_pe, rel=1e-9)

    def test_degenerate_relay_snr_is_usage_error(self):
        proc = run_cli(["analyze", "--scheme", "wsc2", "--snr-db", "10", "--sigma1", "0"])
        assert proc.returncode == 2
        assert "gamma_bar_1 must be positive" in proc.stderr

    def test_non_finite_wsc2_is_usage_error(self):
        # gamma_bar_1 = 1e-307 puts phi = gamma_bar_2/gamma_bar_1 at 1e308, where the closed form is nan.
        proc = run_cli(["analyze", "--scheme", "wsc2", "--snr-db", "10", "--sigma1", "1e-308"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "aber_wsc2 at gamma_bar = (10, 1e-307, 10) is not finite" in proc.stderr

    def test_dead_link_wsc1_needs_fixed_beta(self):
        args = ["analyze", "--scheme", "wsc1", "--snr-db", "10", "--sigma2", "0"]
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "no finite optimal WSC1 weight" in proc.stderr
        assert run_cli(args + ["--beta", "0.5"]).returncode == 0

    def test_optimum_lost_to_rounding_needs_fixed_beta(self):
        # gamma_bar ~ (4.47e4, 3.74e-10, 3.23e-10): all links live, ABER flat to float precision.
        args = ["analyze", "--scheme", "wsc1", "--snr-db", "46.503", "--sigma1", "8.37e-15",
                "--sigma2", "7.23e-15"]
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "optimal WSC1 weight lost to rounding" in proc.stderr
        assert "no finite optimal" not in proc.stderr
        assert run_cli(args + ["--beta", "0.5"]).returncode == 0

    @pytest.mark.parametrize("scheme", ["sc", "wsc2"])
    def test_beta_without_wsc1_usage_error(self, scheme):
        proc = run_cli(["analyze", "--scheme", scheme, "--snr-db", "10", "--beta", "0.3"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--beta applies to --scheme wsc1 only" in proc.stderr

    def test_missing_flags_usage_error(self):
        proc = run_cli(["analyze", "--scheme", "wsc1"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", [["analyze", "--scheme", "wsc2"], ["simulate", "--blocks", "10"]])
    def test_bad_variance_names_the_variances(self, command):
        # Not the derived average SNR (-10.0): the same message as simulate's.
        proc = run_cli([*command, "--snr-db", "10", "--sigma2", "-1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: channel variances must be finite and >= 0, got (1.0, 1.0, -1.0)\n"

    def test_overflowing_power_is_usage_error(self):
        proc = run_cli(["analyze", "--scheme", "sc", "--snr-db", "4000"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: P0/N0 = 4000.0 dB gives a non-finite power P0\n"

    def test_wsc1_optimum_overflow_is_usage_error(self):
        proc = run_cli(["analyze", "--scheme", "wsc1", "--snr-db", "400"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: the WSC1 ABER polynomial overflows float64 at gamma_bar = "
                               "(1e+40, 1e+40, 1e+40); give a fixed beta\n")
        assert run_cli(["analyze", "--scheme", "wsc1", "--snr-db", "400", "--beta", "0.5"]).returncode == 0

    def test_wsc2_to_100db_warns_above_checked_range(self):
        proc = run_cli(["analyze", "--scheme", "wsc2", "--snr-db", "0:100:10"])
        assert proc.returncode == 0
        bers = [float(r.split(",")[6]) for r in proc.stdout.strip().splitlines()[1:]]
        assert len(bers) == 11
        assert all(0 < b < a for a, b in zip(bers, bers[1:]))
        # 90 and 100 dB are above 1e8; 80 dB is not.
        assert proc.stderr.count("RuntimeWarning: aber_wsc2 at gamma_bar") == 2
        assert "(1e+08, 1e+08, 1e+08)" not in proc.stderr

    def test_wsc2_above_limit_is_usage_error(self):
        proc = run_cli(["analyze", "--scheme", "wsc2", "--snr-db", "130"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: aber_wsc2 at gamma_bar = (1e+13, 1e+13, 1e+13) is out of range")


class TestSimulate:
    def test_wsc2_beats_sc(self, capsys):
        rc = main(["simulate", "--schemes", "sc,wsc2", "--snr-db", "10",
                   "--blocks", "3000", "--block-len", "64", "--min-errors", "200", "--seed", "11"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = {r.split(",")[1]: r.split(",") for r in out.strip().splitlines()[1:]}
        assert float(rows["wsc2"][3]) < float(rows["sc"][3])
        # analytic column present for both
        assert float(rows["sc"][6]) > 0 and float(rows["wsc2"][6]) > 0

    def test_zero_blocks_usage_error(self):
        proc = run_cli(["simulate", "--snr-db", "10", "--blocks", "0"])
        assert proc.returncode == 2

    def test_overflowing_power_is_usage_error(self):
        proc = run_cli(["simulate", "--snr-db", "4000", "--blocks", "10"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: P0/N0 = 4000.0 dB gives a non-finite power P0\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep-beta"])
    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_nonfinite_beta_usage_error(self, command, beta):
        proc = run_cli([command, "--schemes", "sc,wsc1", "--snr-db", "10", "--beta", beta,
                        "--blocks", "20", "--block-len", "8"])
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_negative_seed_usage_error(self, workers):
        proc = run_cli(["simulate", "--snr-db", "10", "--blocks", "20", "--block-len", "8",
                        "--seed", "-1", "--workers", workers])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: seed must be >= 0, got -1\n"

    def test_repeated_scheme_usage_error(self):
        proc = run_cli(["simulate", "--snr-db", "10", "--schemes", "sc,sc", "--blocks", "10", "--min-errors", "0"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: scheme 'sc' is given more than once\n"

    def test_seed_reproducibility_and_workers(self, capsys):
        args = ["simulate", "--schemes", "sc,wsc2", "--snr-db", "5", "--blocks", "200",
                "--block-len", "32", "--min-errors", "0", "--seed", "13"]
        rc = main(args)
        first = capsys.readouterr().out
        rc2 = main(args + ["--workers", "8"])
        second = capsys.readouterr().out
        assert rc == rc2 == 0
        assert first == second


    def test_matches_golden_output(self, capsys):
        # Acceptance criterion 9's command; the file pins its stdout byte for
        # byte, and CI diffs the installed command against it too.
        rc = main(["simulate", "--schemes", "sc,wsc1,wsc2,lar", "--snr-db", "10", "--blocks", "300",
                   "--block-len", "64", "--min-errors", "0", "--seed", "99"])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "simulate_c9.csv").read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_matches_short_block_golden_output(self, capsys, workers):
        # L = 4 with an early stop in the middle of a chunk (5846 blocks); the
        # file pins its stdout byte for byte, for any worker count.
        rc = main(["simulate", "--schemes", "sc,wsc1,wsc2,lar", "--snr-db", "10", "--blocks", "20000",
                   "--block-len", "4", "--min-errors", "300", "--seed", "5", "--workers", workers])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "simulate_l4.csv").read_text()


class TestSweepCommands:
    def test_sweep_beta_runs(self, capsys):
        rc = main(["sweep-beta", "--beta", "0.2:1.2:log4", "--snr-db", "10",
                   "--blocks", "1500", "--block-len", "32", "--min-errors", "100", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        betas = [float(r.split(",")[2]) for r in rows]
        assert betas == sorted(betas)

    def test_sweep_beta_column_only_on_wsc1(self, capsys):
        rc = main(["sweep-beta", "--beta", "0.5", "--schemes", "sc,wsc1,wsc2,lar", "--snr-db", "10",
                   "--blocks", "50", "--block-len", "16", "--min-errors", "0", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        betas = {r.split(",")[1]: r.split(",")[2] for r in out.strip().splitlines()[1:]}
        assert betas == {"sc": "1.0", "wsc1": "0.5", "wsc2": "", "lar": ""}

    def test_sweep_snr_schemes_and_asymptotic(self, capsys):
        rc = main(["sweep-snr", "--snr-db", "5:10:5", "--schemes", "sc,lar,wsc1,wsc2",
                   "--blocks", "2000", "--block-len", "32", "--min-errors", "100", "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert len(rows) == 8
        schemes = {r[1] for r in rows}
        assert schemes == {"sc", "lar", "wsc1", "wsc2"}
        for r in rows:
            if r[1] == "wsc2":
                assert float(r[7]) > 0  # asymptotic column (symmetric variances)
            if r[1] == "lar":
                assert r[6] == ""  # no closed form for the LAR baseline

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_matches_block_len_256_golden_output(self, capsys, workers):
        # The default block length through the chunk kernel and the pool:
        # early stops at 0-12 dB, the 512-block cap above.
        rc = main(["sweep-snr", "--snr-db", "0:30:6", "--schemes", "sc,lar,wsc1,wsc2", "--min-errors", "300",
                   "--blocks", "512", "--block-len", "256", "--workers", workers, "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "sweep_l256.csv").read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_matches_sweep_beta_golden_output(self, capsys, workers):
        # Four schemes over a log beta grid: the beta and analytic columns per point.
        rc = main(["sweep-beta", "--beta", "0.1:1:log4", "--snr-db", "20", "--blocks", "64", "--block-len", "16",
                   "--min-errors", "0", "--seed", "4", "--schemes", "sc,wsc1,wsc2,lar", "--workers", workers])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "sweep_beta.csv").read_text()

    def test_records_carry_wsc1_weight(self, capsys):
        # Each point's row carries the weight it was simulated with: fixed,
        # optimized per SNR point, or the point's own beta on a beta sweep.
        sim = ["--schemes", "wsc1", "--blocks", "20", "--block-len", "16", "--min-errors", "0",
               "--seed", "5", "--format", "json"]
        assert main(["sweep-snr", "--snr-db", "5:10:5", "--beta", "0.7", *sim]) == 0
        assert [r["beta"] for r in json.loads(capsys.readouterr().out)["records"]] == [0.7, 0.7]
        assert main(["sweep-snr", "--snr-db", "5:10:5", *sim]) == 0
        for rec in json.loads(capsys.readouterr().out)["records"]:
            ctx = analysis.ClosedFormContext.from_db(rec["snr_db"])
            assert rec["beta"] == analysis.optimize_beta(ctx)[0]
            assert rec["ber_analytic"] == analysis.aber_wsc1(rec["beta"], ctx)
        assert main(["sweep-beta", "--beta", "0.3:0.6:0.3", "--snr-db", "10", *sim]) == 0
        assert [r["beta"] for r in json.loads(capsys.readouterr().out)["records"]] == [0.3, 0.6]

    def test_beta_sweep_has_analytic_column(self, capsys):
        rc = main(["sweep-beta", "--beta", "0.3:0.9:0.3", "--snr-db", "15", "--schemes", "wsc1",
                   "--blocks", "100", "--block-len", "16", "--min-errors", "0", "--seed", "7", "--format", "json"])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [r["beta"] for r in records] == parse_range("0.3:0.9:0.3")
        ctx = analysis.ClosedFormContext.from_db(15.0)
        assert [r["ber_analytic"] for r in records] == [analysis.aber_wsc1(r["beta"], ctx) for r in records]
        assert all(r["ber_analytic"] > 0 for r in records)

    def test_asymptote_on_the_snr_axis_only(self, capsys):
        # Only sweep-snr rows of wsc2 at unit variances carry it.
        sim = ["--schemes", "sc,wsc2", "--blocks", "2", "--block-len", "4", "--min-errors", "0", "--format", "json"]

        def asymptotes(argv):
            assert main(argv + sim) == 0
            return [(r["scheme"], r["ber_asymptotic"] is not None)
                    for r in json.loads(capsys.readouterr().out)["records"]]

        none = [("sc", False), ("wsc2", False)]
        assert asymptotes(["sweep-snr", "--snr-db", "10:20:10"]) == [("sc", False), ("wsc2", True)] * 2
        assert asymptotes(["sweep-snr", "--snr-db", "10:20:10", "--sigma1", "4"]) == none * 2
        assert asymptotes(["sweep-beta", "--beta", "0.5:1:0.5", "--snr-db", "10"]) == none * 2
        assert asymptotes(["simulate", "--snr-db", "10"]) == none

    def test_invalid_point_rejected_before_any_simulation(self, monkeypatch, capsys):
        def fail(*args):
            raise AssertionError("simulated before validating every point")

        monkeypatch.setattr(simulator, "_chunk_errors", fail)
        cases = [
            (["sweep-beta", "--beta=-1:1:0.5"], "beta_wsc1 must be finite and > 0, got -1.0"),
            (["sweep-snr", "--snr-db", "0:4000:4000"], "P0/N0 = 4000.0 dB gives a non-finite power P0"),
            # The last point's average SNR 1e300 * 1e10 overflows.
            (["sweep-snr", "--snr-db", "0:3000:3000", "--sigma0", "1e10"], "average SNRs must be finite"),
            (["simulate", "--snr-db", "3000", "--sigma0", "1e10"], "average SNRs must be finite"),
            # A dead R-D link has no finite optimal WSC1 weight at any point.
            (["sweep-snr", "--snr-db", "0:10:10", "--sigma2", "0", "--schemes", "sc,wsc1"],
             "no finite optimal WSC1 weight"),
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--blocks", "10", "--block-len", "4"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {message}"), err

    def test_sweep_asymptote_empty_where_it_overflows(self):
        proc = run_cli(["sweep-snr", "--snr-db", "400", "--blocks", "2", "--block-len", "4",
                        "--min-errors", "0", "--schemes", "wsc2"])
        assert proc.returncode == 0
        rows = proc.stdout.strip().splitlines()
        assert len(rows) == 2
        row = rows[1].split(",")
        assert row[:2] == ["400.0", "wsc2"]
        assert row[6] == ""  # the closed form raises above gamma_bar 1e12
        assert row[7] == ""
        assert "Traceback" not in proc.stderr

    def test_malformed_range_usage_error(self):
        proc = run_cli(["sweep-snr", "--snr-db", "5:10", "--blocks", "10"])
        assert proc.returncode == 2
        proc = run_cli(["analyze", "--scheme", "sc", "--snr-db", "0:inf:1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: malformed range '0:inf:1'; bounds and step must be finite\n"


class TestJsonOutput:
    def test_metadata_present(self, capsys):
        rc = main(["simulate", "--schemes", "sc", "--snr-db", "0", "--blocks", "50",
                   "--block-len", "16", "--min-errors", "0", "--seed", "21", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        meta = payload["metadata"]
        assert meta["seed"] == 21
        assert meta["block_len"] == 16
        assert meta["snr_mode"] == "exact"
        assert "tool_version" in meta
        assert payload["records"][0]["scheme"] == "sc"


class TestValidate:
    def test_quick_passes(self):
        proc = run_cli(["validate", "--quick"])
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout

    def test_negative_seed_usage_error(self):
        proc = run_cli(["validate", "--quick", "--seed", "-1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: seed must be >= 0, got -1\n"

    def test_perturbed_constant_caught(self, monkeypatch):
        # A wrong sign-level constant in the printed closed form must trip
        # the formula-vs-integration oracle.
        orig = analysis._i1
        monkeypatch.setattr(analysis, "_i1", lambda beta, ctx: 1.02 * orig(beta, ctx))
        results = {c.name: c for c in run_checks(quick=True)}
        assert not results["formula vs integration"].passed

    def test_out_file(self, tmp_path):
        target = tmp_path / "out.csv"
        proc = run_cli(["analyze", "--scheme", "sc", "--snr-db", "10", "--out", str(target)])
        assert proc.returncode == 0
        assert target.read_text().startswith("snr_db,scheme")

    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def not_called(*args):
            pytest.fail("the simulation ran before --out was checked")

        monkeypatch.setattr(simulator, "_chunk_errors", not_called)
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--snr-db", "10", "--blocks", "10", "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write --out {str(target)!r}: No such file or directory\n"

    def test_failed_command_leaves_out_file_alone(self, tmp_path, capsys):
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_text("earlier results\n")
        for target in (kept, absent):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--snr-db", "10", "--blocks", "0", "--out", str(target)])
            assert exc.value.code == 2
        assert capsys.readouterr().err == "error: max_blocks must be >= 1\n" * 2
        assert kept.read_text() == "earlier results\n"
        assert not absent.exists()


class TestNumpyOnlyRuntime:
    def test_cli_import_leaves_scipy_out(self):
        script = ("import sys, ddfwsc.cli, ddfwsc.validation;"
                  " print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_without_scipy(self):
        script = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from ddfwsc.cli import main
sim = ["--blocks", "20", "--block-len", "8", "--min-errors", "0"]
for argv in (["analyze", "--scheme", "wsc1", "--snr-db", "10"],
             ["simulate", "--schemes", "sc,wsc1,wsc2,lar", "--snr-db", "10", *sim],
             ["sweep-beta", "--beta", "0.5:1:0.5", "--schemes", "sc,wsc1", *sim],
             ["sweep-snr", "--snr-db", "0:10:5", *sim]):
    assert main(argv) == 0, argv
sys.exit(main(["validate", "--quick"]))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("snr_db,scheme,beta") == 4
        assert proc.stdout.endswith("3/3 checks passed\n")
