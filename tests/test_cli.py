"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math

import pytest

from composite_coder import cli, specfn


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
            ["gaussian-compare", "--power", "inf"],
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

    def test_numeric_error_exit_code(self, capsys):
        # a sweep that includes power 0 fails model validation at run time
        code, _, err = run_cli(["gaussian-compare", "--p-grid", "0:1:3"], capsys)
        assert code == 3
        assert "numeric error" in err


class TestGaussianCompare:
    def test_row_ordering_property(self, capsys):
        _, out, _ = run_cli(["gaussian-compare", "--p-grid", "0.25:8:6"], capsys)
        _, _, rows = parse_csv(out)
        for row in rows:
            _, uncoded, outage, broadcast = map(float, row)
            assert uncoded < broadcast < outage


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

    def test_sys_good_linear(self, capsys):
        _, out, _ = run_cli(["bss-frontier", "--grid", "17", "--p-grid", "0:1:3"], capsys)
        _, _, rows = parse_csv(out)
        values = [float(r[3]) for r in rows]
        assert values[1] == pytest.approx(0.5 * (values[0] + values[2]), abs=1e-9)


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
