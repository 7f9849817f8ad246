"""End-to-end tests of the command-line interface."""

import ast
import contextlib
import csv
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import composite_coder
from composite_coder import bss_system, channels, cli, specfn
from test_specfn import inverse_binary_entropy


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    lines = text.splitlines()
    data_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            data_start = i
            break
    reader = csv.reader(io.StringIO("\n".join(lines[data_start:])))
    rows = list(reader)
    return meta, rows[0], rows[1:]


class TestOutputFormats:
    def test_csv_structure_and_digits(self, capsys):
        code, out, _ = run_cli(["gaussian-compare", "--p-grid", "0.5:2:4"], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["P", "De_uncoded", "De_outage_sep", "De_broadcast"]
        assert len(rows) == 4
        assert meta["version"]
        assert "config_sha256" in meta
        # 12 significant digits on data cells
        assert rows[1][1] == f"{0.5963473623231946:.12g}"

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            ["gaussian-compare", "--p-grid", "0.5:2:3", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"columns", "rows", "metadata"}
        assert len(doc["rows"]) == 3
        assert all(len(r) == len(doc["columns"]) for r in doc["rows"])

    def test_byte_identical_reruns(self, capsys):
        args = ["bss-frontier", "--grid", "17", "--p-grid", "0:1:5"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, stdout, _ = run_cli(
            ["gaussian-compare", "--p-grid", "0.5:1:2", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert stdout == ""
        assert out_path.read_text().startswith("# command=gaussian-compare")

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_output_file_is_a_config_error(self, where, tmp_path, capsys):
        out_path = tmp_path if where == "directory" else tmp_path / "nonexistent" / "x.csv"
        code, stdout, err = run_cli(["bss-region", "--grid", "3", "--out", str(out_path)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"config error: cannot write {out_path}")
        assert len(err.splitlines()) == 1


# a normal sigma2 whose squared errors leave the float range (P = 4 keeps
# P/sigma2 a normal float at these sigma2, which the config check requires)
_MC_OVERFLOW_INPUTS = [
    ["mc", "uncoded-gaussian", "--sigma2", "1e308", "--power", "4", "--trials", "3",
     "--blocklength", "4"],
    ["mc", "uncoded-gaussian", "--sigma2", "1.7e308", "--power", "4", "--trials", "3",
     "--blocklength", "4"],
]
# squared errors within the float range whose squared deviations from their
# mean are not: the half-width is finite all the same
_MC_HUGE_INPUTS = [
    ["mc", "uncoded-gaussian", "--sigma2", "1e300", "--trials", "3", "--blocklength", "4"],
    ["mc", "uncoded-gaussian", "--trials", "7", "--blocklength", "5", "--sigma2", "1e160",
     "--power", "1e-95", "--gamma-bar", "1e-13"],
]


class TestConfigHandling:
    def test_empty_sweep_rejected(self, capsys):
        code, _, err = run_cli(["gaussian-compare", "--p-grid", ""], capsys)
        assert code == 2
        assert "config error" in err

    def test_single_point_sweep_rejected(self, capsys):
        code, _, _ = run_cli(["gaussian-compare", "--p-grid", "1.0"], capsys)
        assert code == 2

    def test_mixed_family_rejected(self, capsys):
        code, _, _ = run_cli(["bss-region", "--sigma2", "2.0"], capsys)
        assert code == 2

    def test_unknown_experiment_rejected(self, capsys):
        code, _, _ = run_cli(["mc", "nonesuch"], capsys)
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("p-grid = 0.5:2:4\nformat = json\n# comment\n")
        code, out, _ = run_cli(
            ["gaussian-compare", "--config", str(config), "--format", "csv"], capsys
        )
        assert code == 0
        # file set the sweep, flag overrode the format back to csv
        meta, _, rows = parse_csv(out)
        assert len(rows) == 4

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate = 1\n")
        code, _, _ = run_cli(["gaussian-compare", "--config", str(config)], capsys)
        assert code == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"grid=\xff\xfe\n")
        code, out, err = run_cli(["bss-region", "--config", str(config)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot read config file {config}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1"],
            ["--seed", str(2**64)],
            ["--trials", "0"],
            ["--blocklength", "0"],
            ["--blocklength", "-5"],
        ],
    )
    def test_mc_inputs_out_of_range_rejected(self, flags, capsys):
        code, out, err = run_cli(["mc", "uncoded-bsc", "--trials", "10", *flags], capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1"])
    def test_uncoded_bsc_crossover_out_of_range_rejected(self, alpha, capsys):
        argv = ["mc", "uncoded-bsc", f"--alpha1={alpha}", "--trials", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: crossover must lie in [0, 1], got {float(alpha)}\n"

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["mc", "msvq", "--sigma2", "-1"], "--sigma2"),
            (["mc", "quantizer", "--b", "0.5"], "--b"),
            (["mc", "superposition", "--p-grid", "5,6"], "--p-grid"),
            (["mc", "uncoded-gaussian", "--alpha1", "0.1", "--grid", "9"], "--alpha1, --grid"),
            (["mc", "uncoded-bsc", "--alpha2", "0.3", "--p", "0.5"], "--alpha2, --p"),
        ],
    )
    def test_mc_unread_flags_rejected(self, argv, flags, capsys):
        code, out, err = run_cli(argv + ["--trials", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: mc {argv[1]} does not accept {flags}\n"

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["bss-region", "--seed", "5"], "--seed"),
            (["bss-region", "--p-grid", "5,6"], "--p-grid"),
            (["bss-interface", "--p-grid=-1,0.5", "--grid", "5"], "--p-grid"),
            (["gaussian-compare", "--p", "0.3", "--grid", "7", "--trials", "9"],
             "--grid, --p, --trials"),
            (["bss-interface", "--blocklength", "7"], "--blocklength"),
            (["selfcheck", "--alpha1", "9"], "--alpha1"),
            (["selfcheck", "--format", "json"], "--format"),
        ],
    )
    def test_unread_flags_rejected(self, argv, flags, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: {argv[0]} does not accept {flags}\n"

    def test_mc_unread_config_file_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("p-grid = 0.5,1\n")
        code, _, err = run_cli(["mc", "quantizer", "--config", str(config)], capsys)
        assert code == 2
        assert err == "config error: mc quantizer does not accept --p-grid\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "uncoded-bsc", "--alpha1", "0.7"],
            ["mc", "uncoded-gaussian", "--sigma2", "2", "--power", "3", "--gamma-bar", "0.5"],
            ["mc", "superposition", "--alpha1", "0.2", "--alpha2", "0.4", "--p", "0.3", "--b", "3"],
        ],
    )
    def test_mc_read_flags_accepted(self, argv, capsys):
        code, _, _ = run_cli(argv + ["--trials", "2", "--blocklength", "16"], capsys)
        assert code == 0

    def test_mc_seed_range_edges_accepted(self, capsys):
        for seed in ("0", str(2**64 - 1)):
            code, _, _ = run_cli(
                ["mc", "uncoded-bsc", "--trials", "2", "--blocklength", "8", "--seed", seed],
                capsys,
            )
            assert code == 0

    def test_budget_error_exit_code(self, capsys):
        code, _, err = run_cli(["mc", "quantizer", "--blocklength", "500"], capsys)
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize("experiment", ["uncoded-bsc", "uncoded-gaussian"])
    def test_uncoded_blocklength_budget(self, experiment, capsys):
        # one symbol over the cap; rejected before any draw is made
        code, out, err = run_cli(
            ["mc", experiment, "--blocklength", "16777217", "--trials", "1"], capsys
        )
        assert code == 4
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaussian-compare", "--gamma-bar", "nan", "--p-grid", "1,2"],
            ["mc", "uncoded-gaussian", "--power", "inf", "--trials", "2"],
            ["gaussian-compare", "--sigma2=-inf"],
            ["gaussian-compare", "--p-grid", "1,nan"],
            ["gaussian-compare", "--p-grid", "1:inf:3"],
            ["bss-frontier", "--p-grid", "0,inf", "--grid", "5"],
            ["bss-region", "--alpha1", "nan", "--grid", "5"],
            ["mc", "uncoded-bsc", "--alpha1", "nan", "--trials", "2"],
        ],
    )
    def test_non_finite_values_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    def test_non_finite_config_file_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("gamma_bar = nan\n")
        code, _, err = run_cli(["gaussian-compare", "--config", str(config)], capsys)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bss-region", "--alpha1", "0.45", "--alpha2", "0.25", "--grid", "5"],
            ["bss-region", "--alpha1", "0.0", "--grid", "5"],
            ["bss-frontier", "--alpha2", "0.5", "--grid", "5"],
            ["bss-interface", "--alpha1", "0.3", "--alpha2", "0.3", "--grid", "5"],
            ["bss-region", "--b", "0.5", "--grid", "5"],
            ["mc", "superposition", "--alpha1", "0.45", "--alpha2", "0.25", "--trials", "2"],
        ],
    )
    def test_bsc_model_out_of_range_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bss-region", "--p", "1.5", "--grid", "5"],
            ["bss-frontier", "--p-grid", "0,2", "--grid", "5"],
            ["bss-frontier", "--p", "-0.5", "--grid", "5"],
            ["bss-interface", "--p", "1.5", "--grid", "5"],
            ["mc", "superposition", "--p", "1.5", "--trials", "1"],
            ["mc", "superposition", "--p", "-0.1", "--trials", "1"],
        ],
    )
    def test_bss_probability_out_of_range_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "config error: bad-state probability" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaussian-compare", "--gamma-bar", "1e-200", "--p-grid", "1e-200,1"],
            ["gaussian-compare", "--gamma-bar", "1e200", "--p-grid", "1e200,1"],
            ["gaussian-compare", "--p-grid", "1,1e-320"],
        ],
    )
    def test_snr_product_outside_normal_range_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "P*gamma_bar" in err and "not a positive normal float" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gamma-bar", "1e308"], "P*gamma = 1.0*inf = inf"),
            (["--sigma2", "1e-320"], "sigma2 = 1e-320"),
            (["--power", "1e308"], "P*gamma = 1e+308*2.0 = inf"),
        ],
    )
    def test_uncoded_gaussian_outside_normal_range_rejected(self, flags, message, capsys):
        argv = ["mc", "uncoded-gaussian", *flags, "--trials", "3", "--blocklength", "4"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: {message} is not a positive normal float\n"

    @pytest.mark.parametrize("argv", _MC_OVERFLOW_INPUTS, ids=" ".join)
    def test_uncoded_gaussian_overflow_is_a_numeric_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: trial statistics leave the float range")
        assert err.count("\n") == 1  # no numpy floating-point warning lines

    @pytest.mark.parametrize("argv", _MC_HUGE_INPUTS, ids=" ".join)
    def test_uncoded_gaussian_huge_errors_have_a_finite_half_width(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            mean, half = float(row[header.index("mean")]), float(row[header.index("half_width")])
            assert math.isfinite(mean) and 0.0 < half < math.inf

    @pytest.mark.parametrize("experiment", ["uncoded-bsc", "uncoded-gaussian", "quantizer",
                                            "msvq", "superposition"])
    def test_trial_work_budget(self, experiment, capsys):
        # refused from the trial count, before the trials' arrays exist
        tracemalloc.start()
        try:
            code, out, err = run_cli(["mc", experiment, "--trials", "1000000000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert err.startswith("budget error: 1000000000000 trials")
        assert err.count("\n") == 1
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["bss-region", "bss-frontier", "bss-interface"])
    def test_analytic_sweep_budget(self, command, capsys):
        # refused before any mesh array exists: the whole call stays under 1 MiB
        tracemalloc.start()
        try:
            code, out, err = run_cli([command, "--grid", "100000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert "budget error" in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ["bss-frontier", "--grid", "3", "--p-grid", f"0:1:{cli.SWEEP_CAP + 1}"],
            ["bss-frontier", "--grid", "3", "--p-grid", "0:1:100000000"],
            ["gaussian-compare", "--p-grid", f"1:2:{cli.SWEEP_CAP + 1}"],
            ["gaussian-compare", "--p-grid", "1," * cli.SWEEP_CAP + "2"],
        ],
    )
    def test_sweep_length_budget(self, argv, capsys):
        # refused from the point count, before any sweep list is built
        tracemalloc.start()
        try:
            code, out, err = run_cli(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert err.startswith("budget error: sweep of ")
        assert peak < 2**20

    def test_lossless_warning_is_one_stderr_line(self, capsys):
        code, out, err = run_cli(["bss-region", "--b", "8", "--grid", "3"], capsys)
        assert code == 0
        assert err == (
            "warning: good state supports lossless transmission; the lossy-regime "
            "analysis assumes b*(1 - h(alpha1)) < 1\n"
        )
        assert out.startswith("# command=bss-region")

    def test_numeric_error_exit_code(self, capsys):
        # a sweep that includes power 0 fails model validation at run time
        code, _, err = run_cli(["gaussian-compare", "--p-grid", "0:1:3"], capsys)
        assert code == 3
        assert "numeric error" in err


_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
          float("nan"), float("inf"), float("-inf")]


def _value(lo, hi):
    """Edge values, values in the valid range [lo, hi], and any float at all."""
    return st.one_of(st.sampled_from(_EDGES), st.floats(lo, hi), st.floats())


_KEY_VALUES = {
    "alpha1": _value(0.0, 0.5),
    "alpha2": _value(0.0, 0.5),
    "b": _value(1.0, 12.0),
    "p": _value(0.0, 1.0),
    "sigma2": _value(0.0, 10.0),
    "power": _value(0.0, 1e6),
    "gamma_bar": _value(0.0, 1e6),
}
_COMMAND_KEYS = {
    "bss-region": ("alpha1", "alpha2", "b", "p"),
    "bss-frontier": ("alpha1", "alpha2", "b", "p"),
    "bss-interface": ("alpha1", "alpha2", "b", "p"),
    "gaussian-compare": ("sigma2", "gamma_bar"),
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_KEYS)))
    argv = [command]
    if command != "gaussian-compare":  # --grid only where a mesh is swept
        argv.append(f"--grid={draw(st.integers(2, 6))}")
    # mostly the command's own keys; a key it does not read now and then
    keys = draw(st.sets(st.sampled_from(_COMMAND_KEYS[command])))
    if draw(st.integers(0, 7)) == 0:
        keys.add(draw(st.sampled_from(sorted(_KEY_VALUES))))
    for key in sorted(keys):
        argv.append(f"--{key.replace('_', '-')}={draw(_KEY_VALUES[key])!r}")
    if command in ("gaussian-compare", "bss-frontier"):  # the commands with an x axis
        sweep = _KEY_VALUES["power" if command == "gaussian-compare" else "p"]
        grid = (draw(sweep), draw(sweep)) if draw(st.booleans()) else (0.5, 1.0)
        argv.append(f"--p-grid={grid[0]!r},{grid[1]!r}")
    return argv


_MENDED_INPUTS = [
    ["bss-region", "--grid=3", "--b=1.7976931348623157e+308"],
    ["bss-region", "--grid=3", "--alpha1=1e-10", "--alpha2=1e-09"],
    ["gaussian-compare", "--sigma2=1.7976931348623157e+308", "--p-grid=0.5,1.0"],
    ["gaussian-compare", "--p-grid=1e-17,1.0"],
    ["gaussian-compare", "--p-grid=3e-19,1.0"],
    ["gaussian-compare", "--p-grid=1e-16,2e-16,3e-16,1.0"],
    ["gaussian-compare", "--p-grid=1e-300,1.0"],
    ["gaussian-compare", "--p-grid=1,1.7e308"],
    ["gaussian-compare", "--p-grid=1,1.7976931348623157e308"],
    ["gaussian-compare", "--sigma2=1e-300", "--gamma-bar=1e-5", "--p-grid=1e300,1e301"],
]
# valid configurations that still exit 3, as strict xfails until they give
# tables: a Wyner-Ziv root near 1/2 that cancellation leaves unresolved, and
# a crossover below the 1e-12 floor of the Wyner-Ziv turning point
_EXIT_3_INPUTS = [
    pytest.param(argv, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))
    for argv, reason in [
        (["bss-region", "--alpha1", "0.25", "--alpha2", "0.4999999999999", "--b", "1.001",
          "--grid", "3"], "Wyner-Ziv root near 1/2 not resolved"),
        (["bss-region", "--alpha1", "1.4714826897313077e-14", "--alpha2", "5e-13", "--b", "1",
          "--grid", "3"], "crossover below 1e-12"),
        (["bss-region", "--alpha1", "1.4714826897313077e-14", "--alpha2", "0.3",
          "--b", "1.0000000000002", "--grid", "3"], "crossover below 1e-12"),
    ]
]


class TestConfigSpace:
    @given(_cli_argv())
    @settings(max_examples=300, deadline=None)
    # inputs that once failed, run every time: a huge b gave a NaN rate, tiny
    # alphas a turning-point bracket without the root, a huge sigma2 an inf
    # cell, P*gamma_bar below about 4e-16 a broadcast distortion rejected at
    # sigma2, P*gamma_bar = 1e-300 an exp*E1 at 1e300 that a forward
    # continued fraction never settled, and a huge sigma2 in mc
    # uncoded-gaussian inf/nan statistics, P*gamma_bar above 1.2e308 a
    # refused power threshold, and a broadcast distortion that underflows to
    # 0 a refused table
    @example(_MENDED_INPUTS[0])
    @example(_MENDED_INPUTS[1])
    @example(_MENDED_INPUTS[2])
    @example(_MENDED_INPUTS[3])
    @example(_MENDED_INPUTS[4])
    @example(_MENDED_INPUTS[5])
    @example(_MENDED_INPUTS[6])
    @example(_MENDED_INPUTS[7])
    @example(_MENDED_INPUTS[8])
    @example(_MENDED_INPUTS[9])
    @example(_MC_OVERFLOW_INPUTS[0])
    @example(_MC_OVERFLOW_INPUTS[1])
    def test_every_config_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), argv
        flags = {a.split("=")[0][2:].replace("-", "_") for a in argv if a.startswith("--")}
        if argv[0] in _COMMAND_KEYS and flags - {"grid", "p_grid", *_COMMAND_KEYS[argv[0]]}:
            assert code == 2 and "does not accept" in err.getvalue(), argv
        if code == 0:
            _, _, rows = parse_csv(out.getvalue())
            for cell in (c for row in rows for c in row if c):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a scheme name
                assert math.isfinite(value), (argv, cell)

    @pytest.mark.parametrize("argv", _MENDED_INPUTS + _EXIT_3_INPUTS)
    def test_mended_inputs_give_finite_tables(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert "encountered" not in err  # no numpy floating-point warning
        _, header, rows = parse_csv(out)
        numeric = [c for row in rows for c, name in zip(row, header) if c and name != "scheme"]
        assert numeric and all(math.isfinite(float(c)) for c in numeric)


# the keys each command reads, written out here and not taken from cli
_READS = {
    "gaussian-compare": "sigma2 gamma_bar p_grid out format",
    "bss-region": "alpha1 alpha2 p b grid out format",
    "bss-frontier": "alpha1 alpha2 p b grid p_grid out format",
    "bss-interface": "alpha1 alpha2 p b grid out format",
    "selfcheck": "",
    "mc uncoded-bsc": "alpha1 seed trials blocklength out format",
    "mc uncoded-gaussian": "sigma2 power gamma_bar seed trials blocklength out format",
    "mc quantizer": "seed trials blocklength out format",
    "mc msvq": "seed trials blocklength out format",
    "mc superposition": "alpha1 alpha2 p b seed trials blocklength out format",
}
# every configuration key: a text that each command reading it accepts, and its value
_VALID = {
    "alpha1": ("0.2", 0.2), "alpha2": ("0.4", 0.4), "p": ("0.3", 0.3), "b": ("3", 3.0),
    "sigma2": ("2", 2.0), "power": ("3", 3.0), "gamma_bar": ("0.5", 0.5),
    "grid": ("9", 9), "seed": ("7", 7), "trials": ("3", 3), "blocklength": ("16", 16),
    "p_grid": ("0.5,1", [0.5, 1.0]), "out": ("table.csv", "table.csv"),
    "format": ("json", "json"),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _resolve(argv):
    return cli._resolve_config(cli._build_parser().parse_args(argv))


class TestKeyTable:
    """Each command accepts a key, by flag or by --config, exactly when it reads it."""

    @pytest.mark.parametrize("name, key", [(n, k) for n in _READS for k in _VALID])
    def test_flag_accepted_iff_read(self, name, key, capsys):
        argv = [*name.split(), _flag(key), _VALID[key][0]]
        if key in _READS[name].split():
            assert getattr(_resolve(argv), key) == _VALID[key][1]
        else:
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err == f"config error: {name} does not accept {_flag(key)}\n"

    @pytest.mark.parametrize("name", _READS)
    def test_config_file_accepted_iff_read(self, name, tmp_path, capsys):
        reads = _READS[name].split()
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {_VALID[key][0]}\n" for key in reads))
        cfg = _resolve([*name.split(), "--config", str(config)])
        assert {key: getattr(cfg, key) for key in reads} == {key: _VALID[key][1] for key in reads}
        # every key at once: the error names each unread one
        config.write_text("".join(f"{key} = {text}\n" for key, (text, _) in _VALID.items()))
        code, out, err = run_cli([*name.split(), "--config", str(config)], capsys)
        unread = ", ".join(_flag(key) for key in sorted(set(_VALID) - set(reads)))
        assert (code, out) == (2, "")
        assert err == f"config error: {name} does not accept {unread}\n"


class TestBadValues:
    """A malformed or out-of-range value fails alike by flag and by --config."""

    @pytest.mark.parametrize("name, key, text", [
        ("bss-region", "grid", "x"),
        ("bss-frontier", "grid", "1"),
        ("gaussian-compare", "format", "xml"),
        ("bss-interface", "alpha1", "nan"),
        ("mc uncoded-bsc", "seed", "-1"),
    ])
    def test_one_config_error_line_either_way(self, name, key, text, tmp_path, capsys):
        by_flag = run_cli([*name.split(), _flag(key), text], capsys)
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {text}\n")
        assert run_cli([*name.split(), "--config", str(config)], capsys) == by_flag
        code, out, err = by_flag
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1 and "usage:" not in err


_RECORDED = [name for name in _READS if name != "selfcheck"]


class TestParameters:
    """A table's parameter string records exactly the keys its command reads, but --out."""

    @pytest.mark.parametrize("name", _RECORDED)
    def test_keys_are_the_read_keys_in_key_order(self, name):
        command, *experiment = name.split()
        keys = [part.partition("=")[0] for part in cli._metadata(_resolve(name.split()))[
            "parameters"].split(";")]
        reads = set(_READS[name].split()) - {"out"}
        expected = ["command", *(["experiment"] if experiment else [])]
        assert keys == expected + [key for key in cli._KEYS if key in reads]

    @pytest.mark.parametrize("name, key", [(n, k) for n in _RECORDED for k in _VALID])
    def test_metadata_moves_iff_a_recorded_key_moves(self, name, key):
        cfg = _resolve(name.split())
        before = cli._metadata(cfg)
        text, value = _VALID[key]
        setattr(cfg, key, cli._parse_grid_spec(text) if key == "p_grid" else value)
        assert getattr(cfg, key) != getattr(_resolve(name.split()), key)
        recorded = key in _READS[name].split() and key != "out"
        assert (cli._metadata(cfg) != before) == recorded

    @pytest.mark.parametrize("argv, spelling", [
        (["gaussian-compare"], "0.25:8.0:20"),
        (["bss-frontier"], "0.0:1.0:41"),
        (["bss-frontier", "--p-grid", " 1e-3:.5:5 "], "0.001:0.5:5"),
        (["gaussian-compare", "--p-grid", "0.1,1e5,0.30000000000000004,2,"],
         "0.1,100000,0.3,2"),
    ])
    def test_sweep_spelling(self, argv, spelling):
        parameters = cli._metadata(_resolve(argv))["parameters"]
        assert parameters.endswith(f";p_grid={spelling};format=csv")


_BENCH =Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    """A bench script as the module ``name``, which the bench scripts import each other by."""
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_bench("workloads")
probe = _load_bench("probe")


class TestBenchArgv:
    """The benchmark's invocations pass only read keys, and its probe exits as documented."""

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_workload_argvs_resolve(self, name):
        passes = next(workloads.WORKLOADS[name].rounds(random.Random(0), True))
        argvs = [op.argv for ops in passes for op in ops]
        assert argvs
        for argv in argvs:
            _resolve(list(argv))

    def test_probe_inputs_exit_as_documented(self, capsys):
        for _, argv, want in probe.INPUTS:
            code, _, _ = run_cli(list(argv), capsys)
            assert code == want, argv

    @pytest.mark.parametrize("argv, columns, rows", [
        (["gaussian-compare", "--p-grid", "0.5:2:4"],
         ["P", "De_uncoded", "De_outage_sep", "De_broadcast"], 4),
        (["bss-region", "--grid", "5", "--format", "json"],
         ["scheme", "param1", "param2", "D1", "D2", "on_hull"], 5 * 5 + 5 + 4),
        (["bss-frontier", "--grid", "5", "--p-grid", "0:1:11"],
         ["p", "De_broadcast", "De_residue", "De_sys_good", "De_sys_bad", "best_scheme"], 11),
        (["bss-interface", "--grid", "5"], ["scheme", "param1", "param2", "Kt", "Kr", "De"], None),
        (["mc", "quantizer", "--trials", "3"], workloads.MC_COLUMNS, 3),
    ])
    def test_tables_pass_the_bench_table_check(self, argv, columns, rows, capsys):
        # the check the benchmark applies to every table, config_sha256 included
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        parse = workloads.parse_json if "json" in argv else workloads.parse_csv
        workloads.check_table(*parse(out), argv[0], columns, rows)


spans =_load_bench("spans")


class TestBenchTracer:
    def test_traced_names_resolve(self):
        # a renamed evaluator would leave the tracer's per-layer counts silently at 0.
        # The tracer still names the Shannon and outage wrappers, which are
        # deleted: nothing called them, so their counts read 0 before and after
        retired = {"bss_system.shannon_scheme", "bss_system.outage_scheme"}
        for name in (*spans.SCHEME_EVALUATORS, "bss_system.bsc_bc_rate_region"):
            module, attr = name.split(".")
            found = getattr(importlib.import_module(f"composite_coder.{module}"), attr, None)
            assert found is None if name in retired else callable(found), name


class TestBrokenPipe:
    def test_reader_closing_early_exits_without_traceback(self):
        src = str(Path(composite_coder.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "composite_coder.cli", "bss-region", "--grid", "129"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # the table is about 1 MB, far over a pipe buffer: the writer meets the closed end
        assert proc.stdout.readline().startswith(b"#")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == cli.EXIT_PIPE
        assert "Traceback" not in err.decode() and "Exception ignored" not in err.decode(), err


class TestImports:
    @pytest.mark.parametrize(
        "module", ["", ".bss_system", ".channels", ".gaussian_system", ".montecarlo", ".specfn"]
    )
    def test_every_public_name_resolves(self, module):
        mod = importlib.import_module(f"composite_coder{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

    def test_every_public_name_has_a_caller(self):
        # an export that only tests reach is a library-only path; the paper's
        # definitions below are kept on purpose (wyner_ziv_rate is the
        # Wyner-Ziv curve whose inverse, wyner_ziv_distortion, the tables use)
        paper_definitions = {
            "capacity_vs_outage_bsc",
            "requirement_check",
            "bsc_expected_capacity",
            "wyner_ziv_rate",
        }
        root = Path(composite_coder.__file__).resolve().parents[2]
        src = sorted((root / "src" / "composite_coder").glob("*.py"))

        def loads(node, owners=()):
            # (name, names of the enclosing definitions) of each load
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners += (node.name,)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owners
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, owners
            for child in ast.iter_child_nodes(node):
                yield from loads(child, owners)

        used = {
            name
            for path in src
            for name, owners in loads(ast.parse(path.read_text()))
            if name not in owners
        }
        # bench code counts; a name in a bench string (the tracer's metric
        # names) does not, since a counter of a function nothing calls reads 0
        for path in sorted((root / "bench").glob("*.py")):
            used |= {name for name, _ in loads(ast.parse(path.read_text()))}
        unused = set()
        for path in src:
            prefix = "" if path.stem == "__init__" else f".{path.stem}"
            mod = importlib.import_module(f"composite_coder{prefix}")
            unused.update(name for name in getattr(mod, "__all__", ()) if name not in used)
        assert unused == paper_definitions

    def test_cli_import_and_gaussian_commands_leave_numpy_out(self):
        src = str(Path(composite_coder.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        script = (
            "import contextlib, io, sys\n"
            "from composite_coder import cli, specfn\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "assert specfn._de_nodes.cache_info().currsize == 0, 'node table at import'\n"
            "assert cli._build_parser.cache_info().currsize == 0, 'parser at import'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['gaussian-compare']) == 0\n"
            "assert 'numpy' not in sys.modules, 'run'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestGaussianCompare:
    def test_row_ordering_property(self, capsys):
        _, out, _ = run_cli(["gaussian-compare", "--p-grid", "0.25:8:6"], capsys)
        _, _, rows = parse_csv(out)
        for row in rows:
            _, uncoded, outage, broadcast = map(float, row)
            assert uncoded < broadcast < outage

    def test_cells_near_the_float_maximum(self, capsys):
        # 50-digit values: the outage cells once printed 1 above a = 4.49e307,
        # where 1 + 4a overflowed; the broadcast cell is the 45-digit
        # oracle's, rounded to 12 digits
        _, out, _ = run_cli(["gaussian-compare", "--p-grid", "1,4.6e307,1.7e308"], capsys)
        _, _, rows = parse_csv(out)
        assert [row[2] for row in rows[1:]] == ["2.9488391231e-154", "1.53392997769e-154"]
        assert rows[2][3] == "2.90987813958e-303"


class TestBssRegion:
    def test_flags_and_rows(self, capsys):
        _, out, _ = run_cli(["bss-region", "--grid", "17"], capsys)
        _, header, rows = parse_csv(out)
        assert header == ["scheme", "param1", "param2", "D1", "D2", "on_hull"]
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row[0], []).append(row)
        assert set(by_scheme) == {
            "shannon", "outage", "broadcast", "residue_splitting",
            "systematic_good", "systematic_bad",
        }
        # hull endpoints flagged on-hull, systematic points flagged off-hull
        assert by_scheme["shannon"][0][5] == "1"
        assert by_scheme["outage"][0][5] == "1"
        assert by_scheme["systematic_good"][0][5] == "0"
        assert by_scheme["systematic_bad"][0][5] == "0"

    @pytest.mark.parametrize("alpha1, alpha2, b", [("1e-9", "1e-8", "1"), ("1e-11", "1e-10", "1"),
                                                   ("1e-11", "1e-10", "2")])
    def test_no_flagged_row_is_dominated_at_tiny_alpha(self, alpha1, alpha2, b, capsys):
        # a flagged row is wrong when a residue-splitting row beats it by 1e-6
        # relative in D1 and by 1e-3 in D2; an absolute 1e-9 slack flagged 26,
        # 32 and 236 such rows here.  Every hull vertex stays flagged.
        argv = ["bss-region", "--grid", "17", "--alpha1", alpha1, "--alpha2", alpha2, "--b", b]
        _, out, _ = run_cli(argv, capsys)
        _, _, rows = parse_csv(out)
        residue = np.array([[float(r[3]), float(r[4])] for r in rows if r[0] == "residue_splitting"])
        flagged = np.array([[float(r[3]), float(r[4])] for r in rows if r[5] == "1"])
        beaten = ((residue[None, :, 0] < flagged[:, None, 0] * (1.0 - 1e-6))
                  & (residue[None, :, 1] < flagged[:, None, 1] * (1.0 - 1e-3)))
        assert not beaten.any()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # b = 2 is lossless in the good state
            ch = channels.CompositeBsc(alpha1=float(alpha1), alpha2=float(alpha2), p=0.5, b=float(b))
            hull = bss_system.sweep_layered(ch, bss_system.Scheme.RESIDUE_SPLITTING, 17).hull()
        assert {(f"{x:.12g}", f"{y:.12g}") for x, y in hull} <= {
            (r[3], r[4]) for r in rows if r[5] == "1"
        }

    def test_rho_zero_rows_match_broadcast(self, capsys):
        _, out, _ = run_cli(["bss-region", "--grid", "9"], capsys)
        _, _, rows = parse_csv(out)
        broadcast = {row[1]: (row[3], row[4]) for row in rows if row[0] == "broadcast"}
        rho_zero = {
            row[1]: (row[3], row[4])
            for row in rows
            if row[0] == "residue_splitting" and row[2] == "0"
        }
        assert broadcast == rho_zero


class TestBssFrontier:
    def test_crossovers_and_columns(self, capsys):
        _, out, _ = run_cli(["bss-frontier", "--grid", "33", "--p-grid", "0:1:21"], capsys)
        meta, header, rows = parse_csv(out)
        assert header[:5] == ["p", "De_broadcast", "De_residue", "De_sys_good", "De_sys_bad"]
        crossings = [v for k, v in meta.items() if k.startswith("crossover.")]
        assert len(crossings) == 3
        for row in rows:
            de_bc, de_rs = float(row[1]), float(row[2])
            assert de_rs <= de_bc + 1e-12

    def test_descending_sweep_finds_the_same_crossover(self, capsys):
        crossovers = {}
        for sweep in ("0.1,0.9", "0.9,0.1"):
            code, out, _ = run_cli(["bss-frontier", "--grid", "5", "--p-grid", sweep], capsys)
            assert code == 0
            meta, _, _ = parse_csv(out)
            crossovers[sweep] = [v for k, v in meta.items() if k.startswith("crossover.")]
        (up,), (down,) = crossovers.values()
        low, high = up.split("@")[0].split("->")
        assert down == f"{high}->{low}@{up.split('@')[1]}"

    def test_sys_good_linear(self, capsys):
        _, out, _ = run_cli(["bss-frontier", "--grid", "17", "--p-grid", "0:1:3"], capsys)
        _, _, rows = parse_csv(out)
        values = [float(r[3]) for r in rows]
        assert values[1] == pytest.approx(0.5 * (values[0] + values[2]), abs=1e-9)

    def test_sweep_cap_in_a_fresh_process(self, tmp_path):
        # the child reports its own peak resident size and CPU time, which no
        # earlier child of this test process can have raised
        src = str(Path(composite_coder.__file__).resolve().parents[1])
        script = (
            "import resource, sys\n"
            "from composite_coder import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
            "print(usage.ru_maxrss, usage.ru_utime + usage.ru_stime)\n"
            "sys.exit(code)\n"
        )
        out = tmp_path / "frontier.csv"
        argv = ["bss-frontier", "--p-grid", f"0:1:{cli.SWEEP_CAP}", "--grid", "129", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        maxrss_kib, cpu_s = proc.stdout.split()
        assert int(maxrss_kib) <= 450 * 1024
        assert float(cpu_s) <= 15.0
        with out.open() as fh:
            rows = sum(1 for line in fh if not line.startswith("#"))
        assert rows == cli.SWEEP_CAP + 1  # the header and one row per p


class TestBssInterface:
    def test_rows_and_staircases(self, capsys):
        _, out, _ = run_cli(["bss-interface", "--grid", "17"], capsys)
        _, header, rows = parse_csv(out)
        assert header == ["scheme", "param1", "param2", "Kt", "Kr", "De"]
        broadcast_rows = [r for r in rows if r[0] == "broadcast"]
        assert all(float(r[4]) <= float(r[3]) + 1e-12 for r in broadcast_rows)
        des = [float(r[5]) for r in broadcast_rows]
        assert any(a > b for a, b in zip(des, des[1:]))
        assert any(a < b for a, b in zip(des, des[1:]))
        stair = [r for r in rows if r[0] == "broadcast:stair-kt"]
        stair_de = [float(r[5]) for r in stair]
        assert all(a >= b - 1e-15 for a, b in zip(stair_de, stair_de[1:]))

    def test_systematic_good_extremes_at_default_p(self, capsys):
        _, out, _ = run_cli(["bss-interface", "--grid", "17"], capsys)
        _, _, rows = parse_csv(out)
        raw = [r for r in rows if ":" not in r[0]]
        sg = [r for r in raw if r[0] == "systematic_good"][0]
        others = [r for r in raw if r[0] != "systematic_good"]
        assert all(float(sg[5]) < float(r[5]) for r in others)
        assert all(float(sg[3]) > float(r[3]) for r in others)


class TestMcCommand:
    def test_uncoded_bsc_passes(self, capsys):
        code, out, _ = run_cli(
            ["mc", "uncoded-bsc", "--trials", "100", "--blocklength", "500"], capsys
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[-1] == "pass_3sigma"
        assert rows[0][-1] == "1"

    def test_quantizer_rows_respect_bound(self, capsys):
        code, out, _ = run_cli(["mc", "quantizer", "--trials", "60"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        bound = specfn.bss_distortion_rate(0.5)
        assert len(rows) == 3
        for row in rows:
            assert float(row[4]) > bound
            assert row[-1] == "1"

    def test_deterministic_output(self, capsys):
        args = ["mc", "msvq", "--trials", "40", "--seed", "31"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestSelfcheck:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if "  PASS  " in l or "  FAIL  " in l]
        assert len(lines) >= 10
        assert all("  PASS  " in l for l in lines)

    def test_mutated_constant_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(specfn, "EULER_GAMMA", specfn.EULER_GAMMA + 1e-3)
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_bad_turning_point_prints_fail(self, capsys, monkeypatch):
        # the Wyner-Ziv identity check reports a wrong dc as a FAIL line and
        # exit 1, not as a numeric error
        exact = bss_system.wyner_ziv_turning_point

        def off(alpha):
            return exact(alpha) * (1.0 + 1e-4)

        monkeypatch.setattr(bss_system, "wyner_ziv_turning_point", off)
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == cli.EXIT_SELFCHECK
        [line] = [l for l in out.splitlines() if l.startswith("wyner-ziv-turning-identity")]
        assert "  FAIL  " in line
        assert out.splitlines()[-1] == "12 checks, 1 failures"


# sha256 of stdout of every bss-* table, re-recorded when the distortion-rate
# inverse became Newton's method, after its 50-digit mpmath tests passed; the
# frontier pins again when the crossovers became exact, after the Fraction
# oracle (TestFrontierOracle) passed, with no data row changed.  Every pin
# below but selfcheck's moved once more when the parameter string was cut down
# to the keys the command reads: _PINNED_DATA_SHA256, recorded before that,
# shows that only the parameters and config_sha256 lines changed
_POINTS = {
    "reference": ["--alpha1", "0.25", "--alpha2", "0.45", "--b", "2", "--p", "0.5"],
    "near": ["--alpha1", "0.2", "--alpha2", "0.35", "--b", "1.8", "--p", "0.3"],
    "lossless": ["--alpha1", "0.05", "--alpha2", "0.3", "--b", "2.2", "--p", "0.8"],
}
_TABLES = {
    "region-csv": ["bss-region", "--grid", "9"],
    "region-json": ["bss-region", "--grid", "17", "--format", "json"],
    "frontier": ["bss-frontier", "--grid", "9", "--p-grid", "0:1:21"],
    "interface": ["bss-interface", "--grid", "9"],
}
_PINNED_SHA256 = {
    ("reference", "region-csv"): "414ab8e00a8dcb3f4dc33fbc866a7ba1eb7614496fe5a849ba58acfb68759e0b",
    ("reference", "region-json"): "911babfaed301d552c15dded82a882c3732328dfd4d5232e2d2096e93341ef5a",
    ("reference", "frontier"): "03b5a0eb7588c9a638017706975bc932e7c7a0698cd089171bb46c6ce8ce3b03",
    ("reference", "interface"): "e3ad39c766b69d2f9f9f574d3fed8c2577fc53f31801472dce52822dabf3d13b",
    ("near", "region-csv"): "07e92229b00d677f1f44effe83b1ceeef0527b0aaeca9784bf38035201eb1054",
    ("near", "region-json"): "166984ae16c5ee50e8b6dd3e531b9d4766b9bebc9dd344bd211aa812a86a4d14",
    ("near", "frontier"): "49aa74ce9607f113f13dc2d94fb7689cbcb29a011a414004da183b4ca2672609",
    ("near", "interface"): "bd91fbf8474098795716292aaf4aed10a5e78c4e71e31037f3fd084e02c7b305",
    ("lossless", "region-csv"): "b082fb26920f43392380ef95081bb727dfc1edf34448b1b61d1a6cf314b6044a",
    ("lossless", "region-json"): "260da53dac9202aab1e5040982eaded55908bda2dc9792535e70c2c0f919291c",
    ("lossless", "frontier"): "ac82640185630032b6e3c0692e3ba3cb80071a15c8b4aefe9c85466604d45cbe",
    ("lossless", "interface"): "0ac1330d2df151460ac87080fb04afe31e281d361b434ba92b93fc96fd72280a",
}
# sha256 of stdout of the benchmark-size tables at the reference point, which
# render in several chunks, re-recorded with the table pins above; the flags
# after the point override its --p
_PINNED_BENCH_SIZE_SHA256 = {
    "bss-region --grid 129 --format json":
        "36589072a41df652d8a29aa75e9d96ffa0f55839bd03ce9eda6afbbf668a8f39",
    "bss-interface --grid 65 --p 0.3":
        "853614a58cc9a60413703200c53e2e6e2f7db954aa285b96e20e4dddc029080e",
    "bss-frontier --p-grid 0:1:101 --grid 129":
        "d3a3985358a9759cdb2b73f88c8113791b166bad00fe59b3c045ffbf1a2db422",
}


# sha256 of stdout of the Gaussian tables and the self-check report; the
# self-check's was re-recorded when its quadrature became double-exponential
# and its outage checks golden section, which moved four detail lines; the
# tables' moved with the parameter string (see above)
_PINNED_GAUSSIAN_SHA256 = {
    "gaussian-compare": "5fed6844a12d1a36e63e9669a6d339d8cc0c87ff57033f51085e790920184491",
    "gaussian-compare --p-grid 0.01,0.1,1,10,100,1000,1e4,1e5":
        "344bc33527a13e20ae6e60b27d37c700f5162bc5a94381b1fe0e3341b52048ec",
    "selfcheck": "d69d63945b42c69643f49dc97aa92c061d2bfac63a04670fb7ef1ae0438c9d09",
}


# sha256 of stdout of gaussian-compare on a 0.1-decade grid of P*gamma_bar
# from 1e-15 to 1e7, recorded before the warm-started power threshold and
# the leaner E1 series and re-recorded with the parameter string; keyed by
# (gamma_bar, sigma2)
_PINNED_LOG_GRID_SHA256 = {
    (0.25, "1"): "cfb16df2e660f599c2504d8fa64d40cc29616a8a6377cc4c0812ea80d984be55",
    (1.0, "0.3"): "ace5c023320e448e49a89869d7a1c9555dd1c9cd7ba2f7998f00b35a31f00270",
    (3.0, "1"): "6d42ff0b0878271d3ca8ad88f8206e71687d962ef6b77dac49bc59c8fc4f4f5d",
}


def _log_p_grid(gamma_bar):
    return ",".join(repr(10.0 ** (k / 10) / gamma_bar) for k in range(-150, 71))


# sha256 of stdout of every mc experiment, recorded before the chunked kernels
# (quantizer and msvq, which print D targets, re-recorded with the table pins)
# and re-recorded with the parameter string; trial counts straddle the trial
# chunks and uncoded-bsc covers n mod 4 = 0..3
_PINNED_MC_SHA256 = {
    "mc uncoded-bsc --trials 77 --seed 3":
        "2313e725f8c427cdf14a5e77a5e79671b670916069efcdb0bdef7a27f17c9a7f",
    "mc uncoded-bsc --trials 1 --seed 4":
        "3c98853e8ff071a5c870cf5d83b7b286bb14940f97114bc779605db9f7674c57",
    "mc uncoded-bsc --trials 77 --blocklength 1001 --alpha1 0.1":
        "3803f67eafc568fee838c8e15871b464f73f0db3c460d9854fa71d7089393e86",
    "mc uncoded-bsc --trials 33 --blocklength 1002 --alpha1 0.37":
        "0e20cd967f87a84ee0a8f306c3d43228c9acc3cbb956c3758c175f1cd9ead7c4",
    "mc uncoded-bsc --trials 33 --blocklength 1003 --alpha1 0.5 --seed 18446744073709551615":
        "db42f3f13ac2271351edb1e893c3ae0ec596643d0eb141bd65fd791dd3941245",
    "mc uncoded-bsc --trials 5 --blocklength 1 --alpha1 0.9":
        "f0d7806c04f450aed0d19df3a30148433228fe33611823e0e767e454778ded90",
    "mc uncoded-gaussian --trials 77":
        "6788ccb6d725a0c69cbaa53d67606d973b222db9517b91fdb9a63da36d0013f2",
    "mc uncoded-gaussian --trials 1":
        "d8fe5bc225e1cf81690f4d3c6e48d2e071fd5d1c20aee30c6d783ddd49617000",
    "mc uncoded-gaussian --trials 40 --blocklength 33 --sigma2 0.5 --power 2 --gamma-bar 3":
        "791b8e03c8a5fa82a0b7d91ed0ad65f8a4252daa7ae0f982cfa66c3ee98ef122",
    "mc quantizer --trials 77":
        "7540366d28fbeabcdc57dc3de1297cbce8ff45c2d2e973cc2e7184fa08a299f8",
    "mc quantizer --trials 1":
        "eaa9d82e603d8f6c1f1c7e66c10f4583905d42c90cbd374da7158f2851e34fb4",
    "mc quantizer --trials 300 --blocklength 20 --seed 9":
        "376a88344ed65ae82af3fc18ed89a7f9bb9409d50dc55b14a64fcd909de034e3",
    "mc msvq --trials 77":
        "6f4447ab2afd3a49392a2d6356a0c7773f48ccf7da4a4e9ce28075776eb42673",
    "mc msvq --trials 1":
        "e0f7035198720912498a886fe5d05fe39486a2312788d24990227f525fd1732e",
    "mc msvq --trials 300 --blocklength 24 --seed 9":
        "ee935a9e953256660e61e85479b771a2919bc05d991ab8a38ad6f5aca4b14af5",
    "mc superposition --trials 77":
        "c467a7947f5c2e349426a21ecd6d0815ecb7a25e639584d09a41384293a2612e",
    "mc superposition --trials 1":
        "18d557a9e0e158e0036769f72d195fccb86742ab570b37bbf4f776ba5ab7bc0c",
    "mc superposition --trials 33 --blocklength 100 --alpha1 0.26 --alpha2 0.4 --format json":
        "868cf430b7f716845d60fcdc46c97f6983e3f4d31c3ec689cbd13f8b0b727d12",
}


# every pinned argv but selfcheck's, by a label: its key in the pin tables
# above, or test_montecarlo's superposition pin
_PINNED_ARGVS = {
    **{f"{table}@{point}": _TABLES[table] + _POINTS[point] for point, table in _PINNED_SHA256},
    **{argv: [argv.split()[0], *_POINTS["reference"], *argv.split()[1:]]
       for argv in _PINNED_BENCH_SIZE_SHA256},
    **{argv: argv.split() for argv in _PINNED_GAUSSIAN_SHA256 if argv != "selfcheck"},
    **{f"log-grid gamma_bar={gamma_bar!r} sigma2={sigma2}":
       ["gaussian-compare", "--gamma-bar", repr(gamma_bar), "--sigma2", sigma2,
        "--p-grid", _log_p_grid(gamma_bar)]
       for gamma_bar, sigma2 in _PINNED_LOG_GRID_SHA256},
    **{argv: argv.split() for argv in _PINNED_MC_SHA256},
    "mc superposition --trials 20": ["mc", "superposition", "--trials", "20"],
}
_CONFIG_LINES = ('# parameters=', '# config_sha256=', '  "parameters": ', '  "config_sha256": ')


def _data_only(out):
    """A table's text without its two lines of the configuration: parameters and its hash."""
    lines = out.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(_CONFIG_LINES)]
    assert len(lines) - len(kept) == 2
    return "".join(kept)


# sha256 of _data_only of every pinned output, recorded when the parameter
# string was cut down to the keys a command reads: that moved only the two
# configuration lines of each table, so these hold across it
_PINNED_DATA_SHA256 = {
    "region-csv@reference":
        "530c375184fcffc3b9b1e2ed22d9909c573713daa08a175f4a78e62b744a71b8",
    "region-json@reference":
        "3d818a2a24c4c2354d13ef1c0cbbcfaeee2fa809c870ee87b82ee23bf27c7562",
    "frontier@reference":
        "fa298f584a35e970f25c77c4405d1ce4cfd8149904493f0d382e824fe570369b",
    "interface@reference":
        "f68d4bb9e2a311db4a0cd11708afd60b20586f891d888437a925df1f4ec7f6b3",
    "region-csv@near":
        "fa76b61d1b2a2516cc698fb52344523341b6cafffb25c278c302931dcb7605f4",
    "region-json@near":
        "afd04100aece609d8282288a0666caf49554ac740b1eceac8c821526826d143a",
    "frontier@near":
        "0f97b6777568df8eae5d5baf91322a0ec1d80f035d815b0c6e703228526daf16",
    "interface@near":
        "07e11789136db7dbe52ae3da47646873df9bfb5066408a80fa550a30a5267d26",
    "region-csv@lossless":
        "662214109f08e2bc2710d3c5e7982acd1c53c4f958613baea1b9d3fd7e71fdcd",
    "region-json@lossless":
        "66490e60399c9861ff3e24afbebcea455d03c852dc35b75d3b91e5bbe5184f81",
    "frontier@lossless":
        "0a9ce0f2544dbaa7468c49bc036e89295b68b37692634b7046e81f2571e60ebc",
    "interface@lossless":
        "ef99fb41076c8c0d18df54b92d8b230e2d9f34a8de04abf1a28d22f4325a1d19",
    "bss-region --grid 129 --format json":
        "4337dd5ae4a7576dabe066cfb56998da59feb64de8840c9d3b22e2501c2f6b19",
    "bss-interface --grid 65 --p 0.3":
        "cb114d86af8491cd6431baf57bd40403f0bc9a5960d7cc3be09a2ca8431426d3",
    "bss-frontier --p-grid 0:1:101 --grid 129":
        "4fd2b17f560fe1e969087a34e772efbf4228b3a7f558e51806b5ad5992dab138",
    "gaussian-compare":
        "26b5735dcbb45718940288ee673ba023de7d02d0a9b52403dd2442537881b3bf",
    "gaussian-compare --p-grid 0.01,0.1,1,10,100,1000,1e4,1e5":
        "94820991e6be2485b4ff8041b0a9fbc58a64af0b3a4ddc08e4fea713573739a3",
    "log-grid gamma_bar=0.25 sigma2=1":
        "c847c9db25b4a17298f163ddeacc7f6517ad10876aabc66ba5b60733b0092b80",
    "log-grid gamma_bar=1.0 sigma2=0.3":
        "a8837fa928fb156bbf930f4cda5470c68c41976156478279e34ee3fd077de5c4",
    "log-grid gamma_bar=3.0 sigma2=1":
        "7775761950fedc407ebc8c0f7f6e820a9871472b0187a418e96506cd0e1afbcc",
    "mc uncoded-bsc --trials 77 --seed 3":
        "2dff3eacfcbebb0ac6a5d3872372b35b3f2fcb186c76f33170b30a0befa12849",
    "mc uncoded-bsc --trials 1 --seed 4":
        "ddf0d06f2c50cc11133293a7c13f3622b89114f48934e2cf5ab41af7274712a8",
    "mc uncoded-bsc --trials 77 --blocklength 1001 --alpha1 0.1":
        "10d7b52a7ac411c9d81bb6750975669dd503ae46191c5e7750109074c0d06283",
    "mc uncoded-bsc --trials 33 --blocklength 1002 --alpha1 0.37":
        "30df1c266587985a8040cfd4f4487f2715999673f361beb64e707aee4d732516",
    "mc uncoded-bsc --trials 33 --blocklength 1003 --alpha1 0.5 --seed 18446744073709551615":
        "791e0ca83d4139e1c958517e052e5b2cc476442b7b2c4bfbab4baef819e2202a",
    "mc uncoded-bsc --trials 5 --blocklength 1 --alpha1 0.9":
        "b82bb6f640b0b06708a9ba0327f35df583a5399fbe3a1554988ebe8aa59874ff",
    "mc uncoded-gaussian --trials 77":
        "de2f38d9ef3a15e345fd3d2d37c358043342a278519c6f4d66be63cef3615678",
    "mc uncoded-gaussian --trials 1":
        "30de5c0f0e7061a664d8cea2716dee87dfda89fe5d5189ae341f66b2c8a388b1",
    "mc uncoded-gaussian --trials 40 --blocklength 33 --sigma2 0.5 --power 2 --gamma-bar 3":
        "018e98bbf01e25280d200095ba6ea9b896ceecdeb268887b299b9a1bc54ee46e",
    "mc quantizer --trials 77":
        "980bb347c1cfbe6919e1ddc43c7bcd1b3aacfd0d84e88e4cec41f9a93be9c326",
    "mc quantizer --trials 1":
        "92bbde1c71a6341af8a58cca4fb876b28c55051e47e5b986d267aeb3d881209b",
    "mc quantizer --trials 300 --blocklength 20 --seed 9":
        "612e4b54133df392a02e942ace98ec44a52600daf17fe5f2824f2d8cdca0b7c5",
    "mc msvq --trials 77":
        "bc315f0b83811a47d7352e7da95bd99e63c274701cdc07f456522d0ae1a7bbe7",
    "mc msvq --trials 1":
        "89f9620180ad083c3ada472dccc62a78c50ade194e94298e77bc4aef78edf4db",
    "mc msvq --trials 300 --blocklength 24 --seed 9":
        "99bb8b5329add260138504bd80dbfe36fcca37afd7cf9cf28a4625ddda27f341",
    "mc superposition --trials 77":
        "523927bbdd45d0dabf2e375323e7e92d998fa5a4f2a7fe22b17946a54f3989c3",
    "mc superposition --trials 1":
        "02f3a99fef1294dd4c0b30bc054b0ce0ea9d586b056ff937d3ce0896243d0a47",
    "mc superposition --trials 33 --blocklength 100 --alpha1 0.26 --alpha2 0.4 --format json":
        "42ceda687f087507366e0bddc80f41e664e6260d3f8cc1ba034e9534366b962c",
    "mc superposition --trials 20":
        "7a0ef428fcd39ae8d9ede28561bb5e1888d6cf35fe3cfd9d85c4117f188ceede",
}


def _exact_crossover(hull_a, hull_b, p_a, p_b):
    """Where the best family changes from A at p_a to B at p_b, in exact arithmetic.

    The envelopes are those of the float hull vertices taken as rationals.
    The crossover is the point of the bracket furthest along the sweep where
    E_A <= E_B: the last knot (a bracket end or a breakpoint of either hull)
    where that holds, if it is a tie or the far end, and otherwise the root
    on the piece after it, bracketed by 80 bisections.  Returns the bracket.
    """
    hulls = [[(Fraction(x), Fraction(y)) for x, y in hull] for hull in (hull_a, hull_b)]

    def gap(p):
        e_a, e_b = (min((1 - p) * x + p * y for x, y in hull) for hull in hulls)
        return e_a - e_b

    lo, hi = sorted((Fraction(p_a), Fraction(p_b)))
    breaks = {
        (x1 - x0) / ((x1 - x0) - (y1 - y0))
        for hull in hulls
        for (x0, y0), (x1, y1) in zip(hull, hull[1:])
    }
    knots = sorted({lo, hi} | {b for b in breaks if lo < b < hi}, reverse=p_a > p_b)
    last = max(i for i, k in enumerate(knots) if gap(k) <= 0)
    if gap(knots[last]) == 0 or last == len(knots) - 1:
        return knots[last], knots[last]
    inside, beyond = knots[last], knots[last + 1]
    for _ in range(80):
        mid = (inside + beyond) / 2
        if gap(mid) <= 0:
            inside = mid
        else:
            beyond = mid
    return inside, beyond


_TIE = Fraction(1, 10**12)


class TestFrontierOracle:
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("grid", [9, 33])
    @pytest.mark.parametrize("point", sorted(_POINTS))
    def test_printed_crossovers_are_exact(self, point, grid, descending, capsys):
        p_grid = cli._parse_grid_spec("0:1:21")
        if descending:
            p_grid.reverse()
        argv = ["bss-frontier", *_POINTS[point], "--grid", str(grid),
                "--p-grid", ",".join(map(repr, p_grid))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the lossless point leaves the lossy regime
            code, out, _ = run_cli(argv, capsys)
            cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
            hulls = {
                family.value: bss_system.sweep_family(cli._bsc(cfg), family, grid).hull()
                for family in bss_system.COMPARED_FAMILIES
            }
        assert code == 0
        meta, _, rows = parse_csv(out)
        count = sum(key.startswith("crossover.") for key in meta)
        printed = [meta[f"crossover.{i + 1}"] for i in range(count)]
        expected = []
        for i in range(len(rows) - 1):
            a, b = rows[i][5], rows[i + 1][5]
            if a == b:
                continue
            inside, beyond = _exact_crossover(hulls[a], hulls[b], p_grid[i], p_grid[i + 1])
            # the tie rule: a crossover within 1e-12 relative of a rounding
            # midpoint of .6g may print either way
            lo, hi = sorted((inside, beyond))
            spellings = {f"{float(lo * (1 - _TIE)):.6g}", f"{float(hi * (1 + _TIE)):.6g}"}
            expected.append((f"{a}->{b}", spellings))
        assert len(printed) == len(expected)
        for line, (pair, spellings) in zip(printed, expected):
            scheme_pair, _, value = line.partition("@")
            assert scheme_pair == pair
            assert value in spellings, (line, spellings)


class TestParserReuse:
    def test_early_exits_leave_no_state_for_later_calls(self, capsys):
        # the parser is built once per process; calls that fail or exit inside
        # argparse, or just after it, must not change what later calls print
        early = [
            (["gaussian-compare", "--gamma-bar", "2", "--grid", "x"], cli.EXIT_CONFIG),
            (["gaussian-compare", "--format", "xml"], cli.EXIT_CONFIG),
            (["no-such-command"], cli.EXIT_CONFIG),
            (["--help"], cli.EXIT_OK),
            (["mc", "--help"], cli.EXIT_OK),
            (["mc"], cli.EXIT_CONFIG),
            (["mc", "--trials", "3"], cli.EXIT_CONFIG),
        ]
        for argv, expected in early:
            code, out, err = run_cli(argv, capsys)
            assert code == expected, (argv, err)
            assert ("usage: composite-coder" in out) == (expected == cli.EXIT_OK)
        parser = cli._build_parser()
        for argv in ("selfcheck", "gaussian-compare"):
            code, out, _ = run_cli([argv], capsys)
            assert code == cli.EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_GAUSSIAN_SHA256[argv]
        assert cli._build_parser() is parser
        assert cli._build_parser.cache_info().currsize == 1


class TestSelfcheckRoundtrip:
    def test_one_array_inversion_equals_the_scalar_inverse(self, monkeypatch):
        rates = [0.05 * i for i in range(1, 20)]
        expected = [inverse_binary_entropy(r) for r in rates]
        calls = []
        inverse = specfn._inverse_entropy

        def recorded(t, rate):
            p = inverse(t, rate)
            calls.append((t.tolist(), rate.tolist(), p.tolist()))
            return p

        monkeypatch.setattr(specfn, "_inverse_entropy", recorded)
        results = cli._selfcheck_results()
        assert ("entropy-roundtrip", True) in [(name, ok) for name, ok, _ in results]
        # later checks invert through bss_distortion_rate; the roundtrip is one call
        roundtrip = [call for call in calls if call[0] == rates]
        assert len(roundtrip) == 1
        _, rate, p = roundtrip[0]
        assert rate == [1.0 - r for r in rates]
        assert p == expected


class TestPinnedBytes:
    @pytest.mark.parametrize("argv", sorted(_PINNED_GAUSSIAN_SHA256))
    def test_gaussian_and_selfcheck_bytes(self, argv, capsys):
        code, out, _ = run_cli(argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_GAUSSIAN_SHA256[argv]

    @pytest.mark.parametrize("gamma_bar, sigma2", sorted(_PINNED_LOG_GRID_SHA256))
    def test_gaussian_log_grid_bytes(self, gamma_bar, sigma2, capsys):
        argv = ["gaussian-compare", "--gamma-bar", repr(gamma_bar), "--sigma2", sigma2,
                "--p-grid", _log_p_grid(gamma_bar)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == _PINNED_LOG_GRID_SHA256[(gamma_bar, sigma2)]

    @pytest.mark.parametrize("point, table", sorted(_PINNED_SHA256))
    def test_bss_table_bytes(self, point, table, capsys):
        with warnings.catch_warnings():
            # the lossless point warns that it leaves the lossy regime
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(_TABLES[table] + _POINTS[point], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_SHA256[(point, table)]

    @pytest.mark.parametrize("argv", sorted(_PINNED_BENCH_SIZE_SHA256))
    def test_bench_size_bss_table_bytes(self, argv, capsys):
        command, *flags = argv.split()
        code, out, _ = run_cli([command, *_POINTS["reference"], *flags], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_BENCH_SIZE_SHA256[argv]

    @pytest.mark.parametrize("argv", sorted(_PINNED_MC_SHA256))
    def test_mc_bytes(self, argv, capsys):
        code, out, _ = run_cli(argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_MC_SHA256[argv]

    @pytest.mark.parametrize("label", sorted(_PINNED_ARGVS))
    def test_data_bytes(self, label, capsys):
        assert _PINNED_DATA_SHA256.keys() == _PINNED_ARGVS.keys()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the lossless point leaves the lossy regime
            code, out, _ = run_cli(_PINNED_ARGVS[label], capsys)
        assert code == 0
        assert hashlib.sha256(_data_only(out).encode()).hexdigest() == _PINNED_DATA_SHA256[label]


# The renderers as they were before the column-wise rewrite: one call per cell
# and json.dumps(indent=1).  They are the oracle for the output bytes.


def _reference_fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _rows(table: cli.FigureTable) -> list[list[object]]:
    """The table's rows, one list per row, expanded from its blocks."""
    rows = []
    for block in table.blocks:
        columns = [
            e if isinstance(e, list) else e.tolist() if hasattr(e, "tolist") else [e] * block.rows
            for e in block.entries
        ]
        rows.extend(map(list, zip(*columns)))
    return rows


def _reference_csv(table: cli.FigureTable) -> str:
    import csv
    import io

    buf = io.StringIO()
    for key in sorted(table.metadata):
        buf.write(f"# {key}={table.metadata[key]}\r\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.columns)
    for row in _rows(table):
        writer.writerow([_reference_fmt(v) for v in row])
    return buf.getvalue()


def _reference_json(table: cli.FigureTable) -> str:
    def clean(v: object) -> object:
        if isinstance(v, float):
            if math.isnan(v):
                return None
            return float(f"{v:.12g}")
        return v

    doc = {
        "columns": table.columns,
        "rows": [[clean(v) for v in row] for row in _rows(table)],
        "metadata": dict(sorted(table.metadata.items())),
    }
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"


@contextlib.contextmanager
def _chunk_rows(n):
    saved = cli._CHUNK_ROWS
    cli._CHUNK_ROWS = n
    try:
        yield
    finally:
        cli._CHUNK_ROWS = saved


def _copy(value):
    """An equal cell that is a distinct object (floats keep every bit)."""
    if isinstance(value, float):
        return struct.unpack("<d", struct.pack("<d", value))[0]
    return value


_TRAP_CELLS = [
    0.0, -0.0, 1, 1.0, True, False, 0, None, float("nan"), -float("nan"),
    float("inf"), float("-inf"), 5e-324, 2.2250738585072014e-308, 1.5e-310, -7e-320,
    1e12, 999999999999.5, 123456789012345.0, -1e15, 9.999999999999e15, 1e16, 1e-5, 1e-4,
    0.1, 1.7976931348623157e308, "", "a,b", 'say "hi"', "line\r\nbreak", "cr\r", "lf\n",
    "caf\u00e9", "\u2028", "\x00", " lead", "-", "1e5",
]
_cells = st.one_of(
    st.sampled_from(_TRAP_CELLS),
    st.floats(),
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-(2**70), 2**70),
    st.text(max_size=6),
)


_TRAP_FLOATS = [c for c in _TRAP_CELLS if isinstance(c, float)]
_floats = st.one_of(st.sampled_from(_TRAP_FLOATS), st.floats())


@st.composite
def _blocks(draw, n_cols, pool, previous):
    """A block of 0-6 rows; per column one of four kinds of entry."""
    rows = draw(st.integers(0, 6))
    entries = []
    for i in range(n_cols):
        kind = draw(st.sampled_from(["repeat", "array", "list", "previous"]))
        reused = previous.entries[i] if previous else None
        fits = previous is not None and not (cli._is_sequence(reused) and len(reused) != rows)
        if kind == "previous" and fits:
            entries.append(reused)  # the same object as the block before: reused tokens
        elif kind == "array":
            values = draw(st.lists(_floats, min_size=rows, max_size=rows))
            entries.append(np.array(values, dtype=np.float64))
        elif kind == "list":
            # cells either share one pool object or are an equal but distinct copy
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
            entries.append([pool[j] if draw(st.booleans()) else _copy(pool[j]) for j in picks])
        else:  # one cell repeated down the block
            entries.append(pool[draw(st.integers(0, len(pool) - 1))])
    return cli.Block(rows, tuple(entries))


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(2, 5))
    pool = draw(st.lists(_cells, min_size=1, max_size=12))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        blocks.append(draw(_blocks(n_cols, pool, blocks[-1] if blocks else None)))
    columns = draw(st.lists(st.text(max_size=5), min_size=n_cols, max_size=n_cols))
    metadata = draw(st.dictionaries(st.text(max_size=5), st.text(max_size=8), max_size=3))
    return cli.FigureTable(columns=columns, blocks=blocks, metadata=metadata)


_REAL_TABLES = [
    ["bss-region", "--grid", "129"],
    ["bss-region", "--grid", "9", "--alpha1", "0.05", "--alpha2", "0.3", "--b", "2.2"],
    ["bss-frontier", "--grid", "33", "--p-grid", "0:1:101"],
    ["bss-frontier", "--grid", "9", "--p-grid", "0.9,0.6,0.2"],
    ["bss-interface", "--grid", "65"],
    ["gaussian-compare"],
    ["gaussian-compare", "--p-grid", "0.01,1e3,1e5", "--gamma-bar", "4"],
    ["mc", "uncoded-bsc", "--trials", "20", "--blocklength", "64"],
    ["mc", "uncoded-gaussian", "--trials", "20", "--blocklength", "64"],
    ["mc", "quantizer", "--trials", "5"],
    ["mc", "msvq", "--trials", "5"],
    ["mc", "superposition", "--trials", "3", "--blocklength", "64"],
]


def _table(argv):
    cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli._COMMANDS[cfg.command](cfg)


class TestRenderOracle:
    @given(_tables(), st.integers(1, 5))
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_as_reference(self, table, chunk):
        with _chunk_rows(chunk):
            assert cli.render_csv(table) == _reference_csv(table)
            assert cli.render_json(table) == _reference_json(table)

    @pytest.mark.parametrize("argv", _REAL_TABLES, ids=" ".join)
    def test_real_tables(self, argv):
        table = _table(argv)
        assert cli.render_csv(table) == _reference_csv(table)
        assert cli.render_json(table) == _reference_json(table)

    @pytest.mark.parametrize(
        "blocks", [[], [cli.Block(0, ([], np.empty(0)))]], ids=["none", "empty"]
    )
    def test_empty_rows(self, blocks):
        table = cli.FigureTable(columns=["a", "b"], blocks=blocks, metadata={})
        assert cli.render_csv(table) == _reference_csv(table)
        assert cli.render_json(table) == _reference_json(table)

    @pytest.mark.parametrize(
        "block", [cli.Block(2, (1,)), cli.Block(2, (1, [1, 2, 3])), cli.Block(2, (np.zeros(1), 1))],
        ids=["arity", "list-length", "array-length"],
    )
    def test_row_arity_checked(self, block):
        with pytest.raises(AssertionError):
            cli.FigureTable(columns=["a", "b"], blocks=[block], metadata={})

    def test_mesh_parameters_are_formatted_once(self, monkeypatch):
        table = _table(["bss-region", "--grid", "33"])
        formatted = []
        real = cli._float_tokens

        def counted(values, as_json):
            formatted.append(len(values))
            return real(values, as_json)

        monkeypatch.setattr(cli, "_float_tokens", counted)
        cli.render_csv(table)
        # D1 and D2 of the 1 + 1 + 33 + 33 * 33 + 1 + 1 rows, then beta of the
        # Shannon, outage and broadcast rows and the 33 betas and 33 rhos of the mesh
        assert sum(formatted) == 2 * 1126 + 1 + 1 + 33 + 33 + 33


class TestRenderMemory:
    @pytest.fixture(scope="class")
    def region_257(self):
        return _table(["bss-region", "--grid", "257"])

    @pytest.mark.parametrize("render", [cli.render_csv, cli.render_json])
    def test_peak_within_three_times_output(self, render, region_257):
        table = region_257
        tracemalloc.start()
        try:
            text = render(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), (peak, len(text))
