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


class TestConfigSpace:
    @given(_cli_argv())
    @settings(max_examples=300, deadline=None)
    # inputs that once failed, run every time: a huge b gave a NaN rate, tiny
    # alphas a turning-point bracket without the root, a huge sigma2 an inf
    # cell, P*gamma_bar below about 4e-16 a broadcast distortion rejected at
    # sigma2, P*gamma_bar = 1e-300 an E1 continued fraction that stalls, and
    # a huge sigma2 in mc uncoded-gaussian inf/nan statistics, P*gamma_bar
    # above 1.2e308 a refused power threshold, and a broadcast distortion
    # that underflows to 0 a refused table
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

    @pytest.mark.parametrize("argv", _MENDED_INPUTS)
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


_BENCH = Path(__file__).resolve().parents[1] / "bench"


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


spans = _load_bench("spans")


class TestBenchTracer:
    def test_traced_names_resolve(self):
        # a renamed evaluator would leave the tracer's per-layer counts silently at 0
        for name in (*spans.SCHEME_EVALUATORS, "bss_system.bsc_bc_rate_region"):
            module, attr = name.split(".")
            assert callable(getattr(importlib.import_module(f"composite_coder.{module}"), attr)), name


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
        for path in sorted((root / "bench").glob("*.py")):
            tree = ast.parse(path.read_text())
            used |= {name for name, _ in loads(tree)}
            # the tracer names what it wraps and counts as "module.name[.metric]"
            used |= {
                f"{parts[0]}.{parts[1]}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                for parts in [node.value.split(".")]
                if len(parts) > 1
            }
        unused = set()
        for path in src:
            prefix = "" if path.stem == "__init__" else f".{path.stem}"
            mod = importlib.import_module(f"composite_coder{prefix}")
            for name in getattr(mod, "__all__", ()):
                if name not in used and f"{path.stem}.{name}" not in used:
                    unused.add(name)
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
# oracle (TestFrontierOracle) passed, with no data row changed
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
    ("reference", "region-csv"): "ff0b846f9a1311e8d57aa7030850c95ac4bed7475ddc8c7bd2c93e2b2b7aa3f7",
    ("reference", "region-json"): "4e0cb04779c09f5806bc0affe4c3e549877fe35244556c8d033362fd7fad8fe6",
    ("reference", "frontier"): "231fa7daf7ef6ce7eb7e8408885e87cc3f358efbca9fee1f2385aa4892b68d4d",
    ("reference", "interface"): "2659f44a76197bc72de9a80cadaf3028b81a7d6a234d3ea5e5a4f36dcbc29c06",
    ("near", "region-csv"): "0f4dae951c723c185680fc591f4dcc9bdd161a14ee48a39775f3fb451f1403ab",
    ("near", "region-json"): "4f379c1847fc825b9b991539c0f9e4a5cea322c1dcabda626e7d9741a36f2107",
    ("near", "frontier"): "6b8fdc00c3e0e73d7b6c1eee548fdc47b036d348d1c832a942044c69a0403003",
    ("near", "interface"): "c90fe5e722d8ecbb2437b025f60a7e324f5fa42abf0bf5f5570bbffb4f4ccb6f",
    ("lossless", "region-csv"): "9a7be9d29ee7f56ce81e878dcbaab8ad5713a0d43f177925f1e923b7dd4a72c3",
    ("lossless", "region-json"): "3e412c970931f10be36a0c1f23414f8bf0e8ebbc1c6bc8f510c17d8da493b9fc",
    ("lossless", "frontier"): "912ddeb8d5daa8828d0d08658b534efe8efb89f6eed1104f8d4380102caea74d",
    ("lossless", "interface"): "3d65cb17ba033e07880b7bb4f7ec6a204088eeafe34bc450a56c0ed9cc0c0a5d",
}
# sha256 of stdout of the benchmark-size tables at the reference point, which
# render in several chunks, re-recorded with the table pins above; the flags
# after the point override its --p
_PINNED_BENCH_SIZE_SHA256 = {
    "bss-region --grid 129 --format json":
        "52641c55b40805a65c156d1c83cfe044d7e96345d6b5aef4f9e4035d156af1b3",
    "bss-interface --grid 65 --p 0.3":
        "744fab8e6b74177c922db1b8371f240436e7c599cf1c02fa4e7234e3c6b228b8",
    "bss-frontier --p-grid 0:1:101 --grid 129":
        "0a2f23733900717c4807d4712f8527f69bea7367defb330de3548f4fcb3f2f3a",
}


# sha256 of stdout of the Gaussian tables and the self-check report; the
# self-check's was re-recorded when its quadrature became double-exponential
# and its outage checks golden section, which moved four detail lines
_PINNED_GAUSSIAN_SHA256 = {
    "gaussian-compare": "55047f461ab08d29f4890f9a2010147ff477955c4b019158e215a425ae06c4bb",
    "gaussian-compare --p-grid 0.01,0.1,1,10,100,1000,1e4,1e5":
        "98d53b648e84f3b4f2f10225f4cd1584ebf7a7093d5be9559b9be4c46c7dbd38",
    "selfcheck": "7b0ff1c0c20f8002a7d8218057af10ce5c3e595d148b0b830bc186c2257aeb98",
}


# sha256 of stdout of gaussian-compare on a 0.1-decade grid of P*gamma_bar
# from 1e-15 to 1e7, recorded before the warm-started power threshold and
# the leaner E1 series; keyed by (gamma_bar, sigma2)
_PINNED_LOG_GRID_SHA256 = {
    (0.25, "1"): "1e618f26ad892bae9d1ab5e4922f6bb61011e83d86ff5f7a297aa12648fb68b9",
    (1.0, "0.3"): "10abd4c0d08e01cd9dfddc8761e69faf38d78d70bb345570871f54c884e0c369",
    (3.0, "1"): "7b1f0523ef50dfb5ff552592f1b98d49f2357d34cd4e7e5b3506431bc659dd41",
}


def _log_p_grid(gamma_bar):
    return ",".join(repr(10.0 ** (k / 10) / gamma_bar) for k in range(-150, 71))


# sha256 of stdout of every mc experiment, recorded before the chunked kernels
# (quantizer and msvq, which print D targets, re-recorded with the table pins);
# trial counts straddle the trial chunks and uncoded-bsc covers n mod 4 = 0..3
_PINNED_MC_SHA256 = {
    "mc uncoded-bsc --trials 77 --seed 3":
        "17cc5c6ee59807e43f6ed158222c3c13e605f0844be388750cb6b541a3c9e14a",
    "mc uncoded-bsc --trials 1 --seed 4":
        "7baa070e72238069a04806a4275807194c12c1cdbfc81be82372299a6b28bcac",
    "mc uncoded-bsc --trials 77 --blocklength 1001 --alpha1 0.1":
        "ac8385029ad94e90c135e6d61d567a5bc8cd62137887010d93e7dd2ba3efddb6",
    "mc uncoded-bsc --trials 33 --blocklength 1002 --alpha1 0.37":
        "6534d717dc4c1a0f2a4059f08fa93886e146d58e7e516e861650545a8fd3b2e0",
    "mc uncoded-bsc --trials 33 --blocklength 1003 --alpha1 0.5 --seed 18446744073709551615":
        "4d99226c8deabb5b37a02bc9f973773db1bd1ea59e5b1fd06bb3ef3583711c25",
    "mc uncoded-bsc --trials 5 --blocklength 1 --alpha1 0.9":
        "beffa5991865e35eff788b58b6365437517ee9e3fc6d56c5d1f8bc0b33234cdb",
    "mc uncoded-gaussian --trials 77":
        "fbfccc11a43debd5a23b6ebd27478906031de5dc9ed4ca07f8d7c250f80cbe68",
    "mc uncoded-gaussian --trials 1":
        "2ed6cfdd9eea2df802c50552231072478ab2e38d2e65f3c899a45b0bf1e3e231",
    "mc uncoded-gaussian --trials 40 --blocklength 33 --sigma2 0.5 --power 2 --gamma-bar 3":
        "60fcfb4dbfee53e101734806ed2944cf85e224d177d37022187e793fc4b59679",
    "mc quantizer --trials 77":
        "5298a8df077d8732c90aff279d51741b549dd6c68457b9a201c77256eb2f127e",
    "mc quantizer --trials 1":
        "48d297b84fa5d76b3d0f7dbf3917322e5410338a8949d9526bd049acb45f2699",
    "mc quantizer --trials 300 --blocklength 20 --seed 9":
        "f9e6b06235877030e8087d20978a0fba67d453fc1c4034674dbdf49472f2191c",
    "mc msvq --trials 77":
        "b1b6b5d6367fd251d418970d3215ae155973afa03aa8a38f58db05d10fc6d875",
    "mc msvq --trials 1":
        "6110aad8ab1d83d9e422bd6707e2921181eefd9159690aef392392ccc912618e",
    "mc msvq --trials 300 --blocklength 24 --seed 9":
        "f0772b676df9c7dbdb9ed1eda3dca26807e35c140a4a81d5dc14ee44cd1310aa",
    "mc superposition --trials 77":
        "71447e2bcb869bacafa8c8a326f2bbc35eeb754daed708056ea804bf2529e0b6",
    "mc superposition --trials 1":
        "72fd5602ed48720790268b929e98add02c09f55a4b3170259c82b933c52d8753",
    "mc superposition --trials 33 --blocklength 100 --alpha1 0.26 --alpha2 0.4 --format json":
        "6029decc19d4a2e2d2af6c76e53d8e45bb6db24bc3a8e7ce8191cdd059818a7c",
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
        expected = [specfn.inverse_binary_entropy(r) for r in rates]
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
