import json
import math
import os
import subprocess
import sys

import numpy as np

from expsumlab import cli, prooftrace, subgroup_of_order
from expsumlab.cli import (
    CSV_HEADER,
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_OK,
    ScanConfig,
    fit_scan_rows,
    main,
    run_scan,
)
from oracles import indicator, subgroup_sum


def run_cli(*argv):
    return main(list(argv))


class TestSumCommand:
    def test_full_group_specific_a(self, capsys):
        assert run_cli("sum", "--prime", "13", "--order", "12", "--a", "5") == EXIT_OK
        out = capsys.readouterr().out
        assert "|S_5| = 0.9999999999999" in out or "|S_5| = 1.0" in out

    def test_max_matches_brute_force(self, capsys):
        assert run_cli("sum", "--prime", "13", "--order", "3") == EXIT_OK
        out = capsys.readouterr().out
        best = max(abs(subgroup_sum(a, [1, 3, 9], 13)) for a in range(1, 13))
        assert f"{best:.8f}"[:8] in out

    def test_nonprime_rejected(self, capsys):
        assert run_cli("sum", "--prime", "12", "--order", "3") == EXIT_BAD_INPUT
        assert "12 is not prime" in capsys.readouterr().err

    def test_bad_order_rejected(self, capsys):
        assert run_cli("sum", "--prime", "13", "--order", "5") == EXIT_BAD_INPUT

    def test_single_a_above_dense_limit(self, capsys):
        # one |S_a| is O(H): no dense table, so p above the dense limit answers
        p, a = 1000000007, 123456789
        assert run_cli("sum", "--prime", str(p), "--order", "2", "--a", str(a)) == EXIT_OK
        out = capsys.readouterr().out
        value = float(out.split(f"|S_{a}| = ")[1].split()[0])
        expected = abs(subgroup_sum(a, [1, p - 1], p))
        assert abs(value - expected) <= 1e-9 * 2
        assert abs(expected - 2 * abs(math.cos(2 * math.pi * a / p))) < 1e-9

    def test_tied_maxima_give_least_a(self, capsys):
        # H = 1: every |S_a| is 1, so a* is the least residue, not the one
        # whose float magnitude happens to round highest
        assert run_cli("sum", "--prime", "9999991", "--order", "1") == EXIT_OK
        assert "(a* = 1) = " in capsys.readouterr().out

    def test_order_above_element_limit_refused(self, capsys):
        # 5 * 10^8 subgroup elements: refused before any is listed
        argv = ["sum", "--prime", "1000000007", "--order", "500000003", "--a", "1"]
        assert run_cli(*argv) == EXIT_BUDGET
        assert "element limit" in capsys.readouterr().err


class TestEnergyCommand:
    def test_trivial_subgroup(self, capsys):
        assert run_cli("energy", "--prime", "13", "--order", "1", "--m", "2") == EXIT_OK
        assert "T_2 = 1" in capsys.readouterr().out

    def test_pair_subgroup(self, capsys):
        assert run_cli("energy", "--prime", "13", "--order", "2", "--m", "2") == EXIT_OK
        out = capsys.readouterr().out
        assert "T_2 = 6" in out
        assert "of T_2: True" in out

    def test_cross_check_larger_case(self, capsys):
        assert run_cli("energy", "--prime", "1009", "--order", "48", "--m", "3") == EXIT_OK
        assert "of T_3: True" in capsys.readouterr().out

    def test_cross_check_above_float_spacing(self, capsys):
        # p * T_2 > 2^53, so the moment cannot round to T_2; the derived bound covers it
        assert run_cli("energy", "--prime", "1000003", "--order", "500001", "--m", "2") == EXIT_OK
        out = capsys.readouterr().out
        assert "T_2 = 62500375001000001" in out
        assert "of T_2: True" in out

    def test_energy_off_by_one_rejected(self):
        sub = subgroup_of_order(1009, 48)
        table = cli.all_sums(sub)
        t_3 = cli.representation_counts(sub, 3).energy
        assert cli._moment_check(table, 3, t_3)[2]
        assert not cli._moment_check(table, 3, t_3 + 1)[2]
        assert not cli._moment_check(table, 3, t_3 - 1)[2]


class TestIdentitiesCommand:
    def test_all_pass(self, capsys):
        assert run_cli("identities") == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 4


class TestTraceCommand:
    def test_small_trace_passes(self, capsys):
        assert run_cli("trace", "--prime", "13", "--order", "3") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert not doc["degenerate"]
        assert doc["checks"] and all(c["pass"] for c in doc["checks"])

    def test_full_group_degenerate(self, capsys):
        assert run_cli("trace", "--prime", "13", "--order", "12") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["degenerate"]

    def test_output_file(self, tmp_path):
        out = tmp_path / "trace.json"
        assert run_cli("trace", "--prime", "13", "--order", "3", "--output", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["p"] == 13 and doc["sets"]["x_size"] == 3

    def test_interval_adds_moment_checks(self, capsys):
        assert (
            run_cli(
                "trace",
                "--prime",
                "101",
                "--order",
                "10",
                "--interval-start",
                "0",
                "--interval-length",
                "10",
            )
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in doc["moment_checks"]}
        assert names == {"moment_inequality_m2", "moment_inequality_m3"}
        assert all(c["pass"] for c in doc["moment_checks"])

    def test_interval_energies_computed_once(self, capsys, monkeypatch):
        calls = {"representation_counts": 0, "j_count": 0}
        for module in (cli, prooftrace):
            for name in calls:
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        argv = ["trace", "--prime", "101", "--order", "10", "--interval-start", "0",
                "--interval-length", "10"]
        assert run_cli(*argv) == EXIT_OK
        assert calls == {"representation_counts": 2, "j_count": 1}
        assert all(c["pass"] for c in json.loads(capsys.readouterr().out)["moment_checks"])

    def test_even_order_stage3_reuses_r2(self, capsys, monkeypatch):
        # for even H, -1 lies in H, so the stage-3 difference counts are r_2
        calls = []
        real = prooftrace.difference_counts

        def counted(sub):
            calls.append(sub.order)
            return real(sub)

        monkeypatch.setattr(prooftrace, "difference_counts", counted)
        for p, h, expected in ((1009, 14, []), (13, 3, [3])):
            calls.clear()
            assert run_cli("trace", "--prime", str(p), "--order", str(h)) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert not doc["degenerate"] and calls == expected, (p, h)
        assert run_cli("trace", "--prime", "1009", "--order", "14") == EXIT_OK
        reused = capsys.readouterr().out

        def with_difference_profile(sub, r2=None, r3=None, **kwargs):
            # the difference profile in the place of r_2: stage 3 reads it as before
            r3 = prooftrace.representation_counts(sub, 3)
            return prooftrace.build_trace(sub, r2=real(sub), r3=r3, **kwargs)

        monkeypatch.setattr(cli, "build_trace", with_difference_profile)
        assert run_cli("trace", "--prime", "1009", "--order", "14") == EXIT_OK
        assert capsys.readouterr().out == reused

    def test_huge_interval_start(self, capsys):
        huge = 99999999999999999999
        docs = []
        for start in (huge, huge % 13):
            argv = ["trace", "--prime", "13", "--order", "3", "--interval-start", str(start),
                    "--interval-length", "2"]
            assert run_cli(*argv) == EXIT_OK
            docs.append(capsys.readouterr().out)
        assert docs[0] == docs[1]


class TestScanCommand:
    def test_window_above_candidate_limit_refused(self, capsys):
        # 5 * 10^11 odd candidates: refused before the first primality test
        assert run_cli("scan", "--p-min", "3", "--p-max", "1000000000000") == EXIT_BUDGET
        assert "scan limit" in capsys.readouterr().err

    def test_window_includes_known_case(self):
        rows, _ = run_scan(ScanConfig(p_min=100, p_max=200))
        assert any(r["p"] == 101 and r["H"] == 10 for r in rows)

    def test_empty_window(self, capsys, tmp_path):
        out = tmp_path / "empty.csv"
        assert (
            run_cli(
                "scan",
                "--p-min",
                "14",
                "--p-max",
                "14",
                "--output",
                str(out),
            )
            == EXIT_OK
        )
        assert out.read_text() == CSV_HEADER + "\n"
        assert "no (p, H) case" in capsys.readouterr().err

    def test_csv_header_exact(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("scan", "--p-min", "100", "--p-max", "120", "--output", str(out))
        first = out.read_text().splitlines()[0]
        assert first == "p,H,N,L,a_star,max_abs_sum,thm1,thm2,thm3,ratio1,ratio2,ratio3,T2,T3,J,gamma"

    def test_moment_columns_cross_checked(self):
        rows, _ = run_scan(ScanConfig(p_min=100, p_max=140, moments=(2,)))
        assert rows
        for r in rows:
            assert r["error"] is None
            assert r["T2"] is not None and r["T2"] > 0

    def test_interval_columns(self):
        rows, _ = run_scan(
            ScanConfig(p_min=100, p_max=120, interval_length=10, interval_start=0)
        )
        for r in rows:
            assert r["N"] == 10 and r["L"] == 0
            assert r["gamma"] >= 1.0
            assert r["thm2"] > 0 and r["thm3"] > 0 and r["J"] >= 10 * r["H"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        run_cli(
            "scan",
            "--p-min",
            "100",
            "--p-max",
            "140",
            "--format",
            "json",
            "--output",
            str(out),
        )
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["rows"] and doc["fits"]

    def test_threads_do_not_change_output(self, tmp_path):
        config = dict(p_min=200, p_max=400)
        rows1, fits1 = run_scan(ScanConfig(threads=1, **config))
        rows2, fits2 = run_scan(ScanConfig(threads=3, **config))
        assert rows1 == rows2
        assert fits1 == fits2

    def test_fit_positive_saving(self):
        rows, fits = run_scan(ScanConfig(p_min=500, p_max=900))
        overall = [f for f in fits if f.band == "all"]
        assert overall and overall[0].delta_hat > 0
        assert overall[0].cases >= 2
        assert overall[0].residual_norm >= 0

    def test_fit_requires_two_cases(self):
        assert fit_scan_rows([]) == []
        assert fit_scan_rows([{"p": 101, "H": 10, "max_abs_sum": 5.0}]) == []

    def test_interval_power_resolution(self):
        rows, _ = run_scan(
            ScanConfig(p_min=100, p_max=120, interval_power=0.5)
        )
        for r in rows:
            assert r["N"] == round(r["p"] ** 0.5)

    def test_transform_strategy_rows_close_to_direct(self):
        # every row's maximum against the transform of the subgroup indicator
        rows, _ = run_scan(ScanConfig(p_min=100, p_max=140))
        assert rows
        for r in rows:
            p, h = r["p"], r["H"]
            ind = indicator(subgroup_of_order(p, h)).astype(np.float64)
            fft_mags = np.abs(np.fft.fft(ind))
            assert abs(r["max_abs_sum"] - fft_mags[1:].max()) <= 1e-6 * h
            assert abs(fft_mags[r["a_star"]] - r["max_abs_sum"]) <= 1e-6 * h


class TestSubprocessInterface:
    def test_env_threads_fallback(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        env = dict(os.environ, EXPSUM_THREADS="2")
        r = subprocess.run(
            [sys.executable, "-m", "expsumlab", "scan", "--p-min", "100", "--p-max", "160", "--output", str(out1)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
        r = subprocess.run(
            [sys.executable, "-m", "expsumlab", "scan", "--p-min", "100", "--p-max", "160", "--threads", "1", "--output", str(out2)],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exit_code_bad_input(self):
        r = subprocess.run(
            [sys.executable, "-m", "expsumlab", "sum", "--prime", "12", "--order", "3"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 2
        assert "12 is not prime" in r.stderr

    def test_exit_code_budget(self):
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "expsumlab",
                "sum",
                "--prime",
                "1009",
                "--order",
                "48",
                "--dense-limit",
                "100",
            ],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 3
