import argparse
import concurrent.futures
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from expsumlab import InputError, Interval, SumTable, cli, prooftrace, subgroup_of_order
from expsumlab.cli import (
    CSV_HEADER,
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    ScanConfig,
    fit_scan_rows,
    main,
    run_scan,
)
from expsumlab.energy import representation_counts
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

    def test_single_a_above_coset_limit(self, capsys):
        # one |S_a| is O(H) and builds no coset index, so it answers although
        # M = 5 * 10^8 is above the length limit
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

    def test_residue_products_above_int64_refused(self, capsys):
        # (p - 1)^2 >= 2^63: refused before the coset index is built, as its
        # int64 products would wrap and give wrong periods
        start = time.monotonic()
        argv = ("sum", "--prime", "4000000007", "--order", "835771")
        assert run_cli(*argv) == EXIT_BUDGET
        assert time.monotonic() - start < 1.0
        assert "int64" in capsys.readouterr().err

    def test_cosets_above_coset_limit_refused(self, capsys):
        # M = 10000001: refused before any coset index is built
        start = time.monotonic()
        assert run_cli("sum", "--prime", "20000003", "--order", "2") == EXIT_BUDGET
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert "coset count M = (p-1)/H = 10000001 exceeds the length limit 10000000" in err

    def test_order_above_element_limit_refused(self, capsys):
        # 5 * 10^8 subgroup elements: refused before any is listed
        argv = ["sum", "--prime", "1000000007", "--order", "500000003", "--a", "1"]
        assert run_cli(*argv) == EXIT_BUDGET
        assert "subgroup order H = 500000003 exceeds the length limit 10000000" in capsys.readouterr().err


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
        t_3 = cli.representation_counts(table, 3).energy
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

    def test_removed_trilinear_option_is_a_usage_error(self, capsys):
        # the literal check is limited by a constant on its work, not by an option
        with pytest.raises(SystemExit) as exc:
            run_cli("trace", "--prime", "101", "--order", "10", "--trilinear-budget", "5")
        assert exc.value.code == EXIT_BAD_INPUT
        assert "unrecognized arguments: --trilinear-budget 5" in capsys.readouterr().err

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
        calls = {"representation_counts": 0, "difference_counts": 0, "j_count": 0, "residues": 0}
        for module in (cli, prooftrace, Interval):
            # patched only where the name is bound: prooftrace has no j_count
            for name in (n for n in calls if hasattr(module, n)):
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        argv = ["trace", "--prime", "101", "--order", "10", "--interval-start", "0",
                "--interval-length", "10"]
        assert run_cli(*argv) == EXIT_OK
        assert calls == {"representation_counts": 1, "difference_counts": 1, "j_count": 1, "residues": 1}
        assert all(c["pass"] for c in json.loads(capsys.readouterr().out)["moment_checks"])
        # a scan lists each row's interval once, for J and the double sum alike
        calls.update(j_count=0, residues=0)
        assert run_cli("scan", "--p-min", "131", "--p-max", "131", "--interval-power", "0.5") == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2 and all(row.split(",")[10] for row in rows)
        assert calls["j_count"] == calls["residues"] == 2

    def test_stage3_reads_the_difference_counts(self, capsys, monkeypatch):
        # at every H stage 3 reads the difference counts, and r_m only at m = 3
        calls = []
        for name in ("difference_counts", "representation_counts"):
            def counted(table, *m, _fn=getattr(prooftrace, name), _name=name):
                calls.append((_name, *m))
                return _fn(table, *m)

            monkeypatch.setattr(prooftrace, name, counted)
        for p, h in ((1009, 14), (13, 3), (1429, 17)):
            calls.clear()
            assert run_cli("trace", "--prime", str(p), "--order", str(h)) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert not doc["degenerate"], (p, h)
            assert sorted(calls) == [("difference_counts",), ("representation_counts", 3)], (p, h)
        assert run_cli("trace", "--prime", "1009", "--order", "14") == EXIT_OK
        counted_once = capsys.readouterr().out

        def with_r2(table, diffs=None, r3=None, **kwargs):
            # for even H, -1 lies in H, so r_2 is the difference profile
            r2, r3 = (representation_counts(table, m) for m in (2, 3))
            return prooftrace.build_trace(table, diffs=r2, r3=r3, **kwargs)

        monkeypatch.setattr(cli, "build_trace", with_r2)
        assert run_cli("trace", "--prime", "1009", "--order", "14") == EXIT_OK
        assert capsys.readouterr().out == counted_once

    def test_empty_stage3_document(self, capsys):
        # stage 3 of (36697, 22) ends empty: a is reduced mod p however it is given
        docs = []
        for extra in ((), ("--a", "37449"), ("--a", "-35945")):
            assert run_cli("trace", "--prime", "36697", "--order", "22", *extra) == EXIT_OK
            docs.append(capsys.readouterr().out)
        assert docs[1] == docs[0] and docs[2] == docs[0]
        doc = json.loads(docs[0])
        assert doc["a"] == 752 and doc["degenerate"]
        assert doc["reason"] == "stage-3 bucket holds only the zero residue"
        assert "cascade" not in doc and doc["checks"] == []
        assert doc["reported"]["delta"] > 0

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

    def test_interval_start_without_length_refused_for_library_callers(self):
        # the CLI form is in REFUSED_BEFORE_THE_TABLE
        with pytest.raises(InputError, match="--interval-start needs --interval-length or --interval-power"):
            ScanConfig(p_min=101, p_max=101, interval_start=5)
        rows, _ = run_scan(ScanConfig(p_min=101, p_max=101, interval_start=5, interval_length=10))
        assert rows and all(r["N"] == 10 and r["L"] == 5 for r in rows)

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

    def test_workers_capped_at_cases(self, monkeypatch):
        # a process pool starts all of max_workers at its first submit, so a
        # 2-case window asks for 2 workers however many threads are given;
        # the fake maps serially and starts no process
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # run_scan imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = dict(p_min=131, p_max=131)
        rows, fits = run_scan(ScanConfig(threads=500, **config))
        assert asked == [2] and [(r["p"], r["H"]) for r in rows] == [(131, 5), (131, 10)]
        assert (rows, fits) == run_scan(ScanConfig(threads=1, **config))

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

    def test_bad_moment_list_refused(self, capsys):
        assert run_cli("scan", "--p-min", "100", "--p-max", "110", "--m", "2,x") == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "--m" in err and "Traceback" not in err

    def test_non_finite_interval_power_refused(self, capsys):
        for power in ("nan", "inf", "1e400"):
            argv = ["scan", "--p-min", "100", "--p-max", "110", "--interval-power", power]
            assert run_cli(*argv) == EXIT_BAD_INPUT, power
            err = capsys.readouterr().err
            assert "interval power" in err and "Traceback" not in err
        with pytest.raises(InputError):
            ScanConfig(p_min=100, p_max=120, interval_power=float("nan"))

    def test_interval_power_above_one_is_the_whole_field(self):
        rows, _ = run_scan(ScanConfig(p_min=100, p_max=120, interval_power=1e300))
        assert rows and all(r["N"] == r["p"] for r in rows)

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


def test_commands_answer_below_the_label_bytes(capsys):
    """scan, trace and energy answer every case by the certified correlation
    (a refused case warns or exits 3), and energy at H ~ 10^6 peaks below
    2p bytes under tracemalloc, half the size of an int32 coset label for
    every residue: the coset index shares the subgroup's elements (measured:
    16.5 MiB at p = 9999991, against 19.1 MiB)."""
    runs = [
        ["scan", "--p-min", "200000", "--p-max", "200100", "--alpha-lo", "0.4",
         "--m", "2,3", "--interval-power", "0.5"],
        ["trace", "--prime", "16111", "--order", "18", "--interval-length", "127"],
        ["trace", "--prime", "1009", "--order", "21", "--interval-start", "3",
         "--interval-length", "40"],
        ["energy", "--prime", "1000003", "--order", "166667", "--m", "3"],
    ]
    for argv in runs:
        assert run_cli(*argv) == EXIT_OK, argv
        assert "warning" not in capsys.readouterr().err, argv
    p = 9999991
    tracemalloc.start()
    try:
        code = run_cli("energy", "--prime", str(p), "--order", "1111110", "--m", "3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and "T_3 = " in capsys.readouterr().out
    assert peak < 2 * p


# forward and inverse transforms a command makes.  SumTable.direct_is_cheaper
# sends a count or a stage to the transform only where three transforms of the
# padded length n cost less than its lookups or shifted adds; each table then
# transforms its periods once, and each correlation its input forward and the
# product back
FFT_CALLS = [
    (["trace", "--prime", "16111", "--order", "18"], 0, 0),  # every route direct
    (["trace", "--prime", "36697", "--order", "22"], 0, 0),  # degenerate at stage 3, alike
    (["trace", "--prime", "1429", "--order", "17"], 2, 1),  # r_3: 289 lookups, at n = 256
    (["trace", "--prime", "9999991", "--order", "90"], 4, 2),  # stages 2 and 3 by transform
    (["scan", "--p-min", "201908", "--p-max", "201911", "--alpha-lo", "0.4",
      "--m", "2,3", "--interval-power", "0.5"], 4, 2),  # two cases: r_3 each, r_2 by lookups
    (["sum", "--prime", "16111", "--order", "18"], 0, 0),
]


@pytest.mark.parametrize(
    "argv,forward,inverse", FFT_CALLS, ids=[" ".join(argv) for argv, _, _ in FFT_CALLS]
)
def test_periods_transformed_once_per_table(argv, forward, inverse, monkeypatch, capsys):
    calls = dict.fromkeys(("fft", "ifft"), 0)
    for name in calls:

        def counted(*args, _name=name, _real=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    assert run_cli(*argv) == EXIT_OK
    assert "warning" not in capsys.readouterr().err
    assert (calls["fft"], calls["ifft"]) == (forward, inverse)


# argv whose usage, help or error the lazy parser must print as the full one does
PARSER_MESSAGES = [
    [],
    ["--help"],
    ["-h"],
    ["bogus"],
    ["-h", "trace"],
    *([name, "--help"] for name in cli.COMMANDS),
    ["trace"],
    ["scan", "--p-min", "x"],
    ["sum", "--prime", "13", "--order", "3", "--bogus"],
    ["energy", "--prime", "13", "--m"],
]
# argv that parse, one at least for every command
PARSER_ANSWERS = [
    ["sum", "--prime", "13", "--order", "3", "--a", "2"],
    ["energy", "--prime", "13", "--order", "3", "--m", "3"],
    ["scan", "--p-min", "3", "--p-max", "9", "--m", "2,3", "--format", "json"],
    ["trace", "--prime", "13", "--order", "3", "--interval-length", "4"],
    ["identities"],
]


# bad arguments of cases whose table takes a second or more, and their messages
REFUSED_BEFORE_THE_TABLE = [
    (["energy", "--prime", "9999991", "--order", "9999990", "--m", "4"], "m must be 1, 2 or 3, got 4"),
    (["trace", "--prime", "9999991", "--order", "2", "--a", "9999991"], "a must be nonzero mod p"),
    (["trace", "--prime", "9999991", "--order", "2", "--a", "-19999982"], "a must be nonzero mod p"),
    (
        ["trace", "--prime", "9999991", "--order", "2", "--interval-length", "0"],
        "interval length must be in [1, p], got 0",
    ),
    (
        ["trace", "--prime", "9999991", "--order", "2", "--interval-length", "9999992"],
        "interval length must be in [1, p], got 9999992",
    ),
    (
        ["scan", "--p-min", "200000", "--p-max", "200100", "--interval-length", "0"],
        "interval length must be in [1, p], got 0",
    ),
    # interval options that would otherwise be dropped without a word
    (
        ["trace", "--prime", "9999991", "--order", "2", "--interval-start", "5"],
        "--interval-start needs --interval-length",
    ),
    (
        ["scan", "--p-min", "200000", "--p-max", "200100", "--interval-start", "5"],
        "--interval-start needs --interval-length or --interval-power",
    ),
    (
        ["scan", "--p-min", "200000", "--p-max", "200100", "--interval-length", "10",
         "--interval-power", "0.5"],
        "give --interval-length or --interval-power, not both",
    ),
]


@pytest.mark.parametrize(
    "argv,message", REFUSED_BEFORE_THE_TABLE, ids=[" ".join(argv) for argv, _ in REFUSED_BEFORE_THE_TABLE]
)
def test_bad_arguments_refused_before_the_subgroup(argv, message, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built before the arguments were checked")

    monkeypatch.setattr(cli, "all_sums", never)
    monkeypatch.setattr(cli, "subgroup_of_order", never)
    assert run_cli(*argv) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def _never(*args, **kwargs):
    raise AssertionError("built before the interval length was checked")


def test_scan_interval_above_p_fails_each_row_before_its_table(capsys, monkeypatch):
    monkeypatch.setattr(cli, "all_sums", _never)
    monkeypatch.setattr(cli, "subgroup_of_order", _never)
    argv = ["scan", "--p-min", "101", "--p-max", "103", "--interval-length", "500"]
    assert run_cli(*argv) == EXIT_CHECK_FAILED
    warnings = capsys.readouterr().err.splitlines()
    assert warnings == [
        f"warning: case p={p} H={h}: interval length must be in [1, p], got 500"
        for p, h in ((101, 4), (101, 5), (101, 10), (103, 6))
    ]


def test_interval_above_length_limit_refused_before_the_table(capsys, monkeypatch):
    # p > 10^7 admits N > 10^7, too long to list: refused before any subgroup
    monkeypatch.setattr(cli, "all_sums", _never)
    monkeypatch.setattr(cli, "subgroup_of_order", _never)
    argv = ["trace", "--prime", "20000003", "--order", "11", "--interval-length", "10000001"]
    assert run_cli(*argv) == EXIT_BUDGET
    assert capsys.readouterr().err == "error: interval length N = 10000001 exceeds the length limit 10000000\n"
    config = ScanConfig(p_min=20000003, p_max=20000003, interval_power=1.0)
    row = cli._scan_case((20000003, 11, config))
    assert row["error"] == "interval length N = 20000003 exceeds the length limit 10000000"
    assert row["max_abs_sum"] is None


class TestLazyParser:
    @pytest.mark.parametrize("argv", PARSER_MESSAGES, ids=lambda argv: " ".join(argv) or "nothing")
    def test_messages_match_the_full_parser(self, argv, capsys):
        def run(parser):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            printed = capsys.readouterr()
            return exc.value.code, printed.out, printed.err

        lazy = run(cli.build_parser(argv))
        assert lazy == run(cli.build_parser())
        assert lazy[1] or lazy[2]

    @pytest.mark.parametrize("argv", PARSER_ANSWERS, ids=" ".join)
    def test_namespaces_match_the_full_parser(self, argv):
        assert vars(cli.build_parser(argv).parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_only_the_named_command_gets_arguments(self):
        def options(parser):
            (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return {name: len(sp._actions) for name, sp in commands.choices.items()}

        full, lazy = options(cli.build_parser()), options(cli.build_parser(["trace", "--prime", "13"]))
        assert lazy == {name: full[name] if name == "trace" else 1 for name in full}
        assert min(full[name] for name in full if name != "identities") > 1


class TestSubprocessInterface:
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
                "20000003",
                "--order",
                "2",
            ],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 3
        assert "M = (p-1)/H = 10000001 exceeds the length limit" in r.stderr


WORKFLOW = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows", "tier1.yml")


def console_script_lines() -> list[list[str]]:
    """The arguments of every expsumlab line of the workflow's "Console script" step."""
    with open(WORKFLOW, encoding="utf-8") as fh:
        step = fh.read().split("- name: Console script", 1)[1].split("- name:", 1)[0]
    lines = (line.strip() for line in step.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("expsumlab ")]


def test_console_script_step_in_process(monkeypatch, capsys):
    # every command CI runs answers here too, and the cost rule picks each route
    picks = []
    real = SumTable.direct_is_cheaper

    def recorded(self, *args, **kwargs):
        picks.append(real(self, *args, **kwargs))
        return picks[-1]

    monkeypatch.setattr(SumTable, "direct_is_cheaper", recorded)
    lines = console_script_lines()
    assert len(lines) >= 16
    for argv in lines:
        assert run_cli(*argv) == EXIT_OK, argv
        assert "warning" not in capsys.readouterr().err, argv
    assert set(picks) == {True, False}


def run_python(code, **env):
    """Run code in a fresh interpreter, with OPENBLAS_NUM_THREADS unset unless
    given, and return its stdout split into words."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | env
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


# prints the thread count of the process, the variable and whether numpy is loaded
REPORT = """
import os, sys
threads = [line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")]
print(*threads, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
class TestProcessEnvironment:
    def test_cli_process_runs_one_thread(self):
        assert run_python("import expsumlab.cli" + REPORT) == ["1", "1", "True"]

    def test_user_setting_wins(self):
        words = run_python("import expsumlab.cli" + REPORT, OPENBLAS_NUM_THREADS="2")
        assert words[1:] == ["2", "True"]

    def test_cli_import_leaves_the_process_pool_out(self):
        # only a scan with more than one worker imports it
        code = "import sys, expsumlab.cli\nprint('concurrent.futures.process' in sys.modules)"
        assert run_python(code) == ["False"]

    def test_package_import_leaves_environment_alone(self):
        assert run_python("import expsumlab" + REPORT)[1:] == ["None", "False"]

    def test_every_exported_name_resolves(self):
        # a star import resolves every name of __all__, or raises
        code = (
            "from expsumlab import *\n"
            "import expsumlab\n"
            "print([n for n in expsumlab.__all__ if n not in globals()])"
        )
        assert run_python(code) == ["[]"]


def test_desk_scale_trace_loads_no_transform():
    # a complete and a degenerate case of the trace benchmark's pools answer by
    # lookups and shifted sums alone, so the process never imports numpy.fft
    code = (
        "import contextlib, io, sys\n"
        "from expsumlab import cli\n"
        "for p, h in ((16111, 18), (36697, 22)):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['trace', '--prime', str(p), '--order', str(h)]) == 0\n"
        "print('numpy.fft' in sys.modules)"
    )
    assert run_python(code) == ["False"]
