"""Configuration parsing and the command-line front end.

CLI tests call main(argv) in-process and assert on exit codes and emitted
files. Determinism is byte-level: two runs with the same config and seed
must produce identical reports once runtime_ms is stripped.
"""

import argparse
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracgrid import cli
from fracgrid.cli import main
from fracgrid.config import (CHECK_IDS, ConfigError, RunConfig,
                             default_run_config, load_run_config,
                             run_config_from_dict)
from fracgrid.core import Field, make_grid, read_field, write_field


def _grid_dict(dim=1, points=128, extent=16.0):
    return {"dim": dim, "points_per_axis": points, "extent": extent}


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = default_run_config()
        assert cfg.grid.points_per_axis == 256
        assert "blowup_family" not in cfg.checks  # needs headroom, opt-in only
        assert set(cfg.checks) < set(CHECK_IDS)

    def test_from_dict_full(self):
        cfg = run_config_from_dict({
            "grid": _grid_dict(), "seed": 3,
            "params": {"s": [0.5], "p": [2.0], "q": [3.0], "mu": [0.2],
                       "h_sweep": [0.5]},
            "checks": ["ftc_roundtrip"], "output_dir": "x", "formats": ["json"]})
        assert cfg.seed == 3 and cfg.s_list == (0.5,)
        assert cfg.checks == ("ftc_roundtrip",)

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            run_config_from_dict({"grid": _grid_dict(), "bogus": 1})

    def test_error_paths_name_fields(self):
        with pytest.raises(ConfigError, match=re.escape("params.s[0]")):
            run_config_from_dict({"grid": _grid_dict(), "params": {"s": [1.5]}})
        with pytest.raises(ConfigError, match=re.escape("params.mu[0]")):
            run_config_from_dict({"grid": _grid_dict(), "params": {"mu": [2.0]}})
        with pytest.raises(ConfigError, match=re.escape("checks[0]")):
            run_config_from_dict({"grid": _grid_dict(), "checks": ["nope"]})
        with pytest.raises(ConfigError, match=re.escape("checks[0]")):
            replace(default_run_config(), checks=("nosuch",))
        with pytest.raises(ConfigError, match="formats"):
            run_config_from_dict({"grid": _grid_dict(), "formats": ["yaml"]})
        for key in ("p", "q"):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ConfigError, match=re.escape(f"params.{key}[1]")):
                    run_config_from_dict({"grid": _grid_dict(), "params": {key: [2.0, bad]}})
        with pytest.raises(ConfigError, match="seed"):
            run_config_from_dict({"grid": _grid_dict(), "seed": True})
        for key in ("s", "p", "q", "mu", "h_sweep"):
            with pytest.raises(ConfigError, match=re.escape(f"params.{key}: must not be empty")):
                run_config_from_dict({"grid": _grid_dict(), "params": {key: []}})
        with pytest.raises(ConfigError, match=re.escape("checks: must not be empty")):
            run_config_from_dict({"grid": _grid_dict(), "checks": []})

    @pytest.mark.parametrize("data, path", [
        ({"grid": _grid_dict(points=64.9)}, "grid.points_per_axis"),
        ({"grid": _grid_dict(dim=True)}, "grid.dim"),
        ({"grid": _grid_dict(extent="16")}, "grid.extent"),
        ({"grid": _grid_dict(), "params": {"s": ["0.5"]}}, "params.s[0]"),
        ({"grid": _grid_dict(), "output_dir": None}, "output_dir"),
        ({"grid": _grid_dict(), "seed": -1}, "seed"),
    ], ids=["points-float", "dim-bool", "extent-string", "s-string", "output-dir-null",
            "seed-negative"])
    def test_wrong_types_name_their_field(self, data, path):
        # no silent coercion: 64.9 is not 64, true is not 1, "16" is not 16.0
        with pytest.raises(ConfigError, match="^" + re.escape(path + ":")):
            run_config_from_dict(data)

    def test_direct_construction_validated(self):
        with pytest.raises(ConfigError):
            RunConfig(grid=make_grid(1, 128, 16.0), s_list=(0.0,))
        with pytest.raises(ConfigError):
            RunConfig(grid=make_grid(1, 128, 16.0), p_list=(0.5,))
        with pytest.raises(ConfigError):
            RunConfig(grid=make_grid(1, 128, 16.0), h_sweep=(8.0,))
        with pytest.raises(ConfigError, match=re.escape("params.p[0]")):
            RunConfig(grid=make_grid(1, 128, 16.0), p_list=(math.inf,))
        with pytest.raises(ConfigError, match=re.escape("params.q[0]")):
            RunConfig(grid=make_grid(1, 128, 16.0), q_list=(math.inf,))
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(grid=make_grid(1, 128, 16.0), seed=False)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": _grid_dict(), "seed": 11}))
        assert load_run_config(path).seed == 11

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestCliGradient:
    def test_both_methods_write_files_and_discrepancy(self, tmp_path):
        code = main(["gradient", "gaussian", "--s", "0.5", "--method", "both",
                     "--out", str(tmp_path), "--grid", "256x16"])
        assert code == 0
        assert (tmp_path / "gaussian_gradient_s0.5_spectral.bin").exists()
        assert (tmp_path / "gaussian_gradient_s0.5_quadrature.bin").exists()
        text = (tmp_path / "gaussian_gradient_norms.csv").read_text()
        assert text.startswith("# columns:")
        assert "l2_discrepancy" in text

    def test_field_round_trip_bit_identical(self, tmp_path):
        main(["gradient", "gaussian", "--s", "0.5", "--out", str(tmp_path),
              "--grid", "256x16"])
        base = tmp_path / "gaussian_gradient_s0.5_spectral"
        u = read_field(base)
        from fracgrid.core import write_field
        b2, j2 = write_field(u, tmp_path / "copy")
        assert (tmp_path / "copy.bin").read_bytes() == (base.parent / (base.name + ".bin")).read_bytes()
        assert (tmp_path / "copy.json").read_bytes() == (base.parent / (base.name + ".json")).read_bytes()

    def test_invalid_s_names_precondition(self, tmp_path, capsys):
        code = main(["gradient", "gaussian", "--s", "1.5", "--out", str(tmp_path)])
        assert code == 2
        assert "s must lie in (0,1)" in capsys.readouterr().err

    def test_precision_losing_bessel_order_is_config_error(self, tmp_path, capsys):
        code = main(["bessel", "bandlimited_low", "--s", "-6", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bessel of order -6.0 loses precision" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("s", ["inf", "nan"])
    def test_non_finite_bessel_order_is_config_error(self, tmp_path, capsys, s):
        code = main(["bessel", "gaussian", "--s", s, "--out", str(tmp_path),
                     "--grid", "128x16"])
        assert code == 2
        assert "bessel order s must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_label_is_config_error(self, tmp_path, capsys):
        code = main(["gradient", "nosuch", "--out", str(tmp_path)])
        assert code == 2
        assert "gaussian" in capsys.readouterr().err  # lists known labels

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["gradient", str(tmp_path / "nope" / "f.json"),
                     "--out", str(tmp_path)])
        assert code == 3

    def test_reads_field_file_input(self, tmp_path):
        main(["bessel", "bump", "--s", "0.5", "--out", str(tmp_path),
              "--grid", "128x16"])
        base = str(tmp_path / "bump_bessel_s0.5")
        code = main(["gradient", base, "--s", "0.25", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("suffix", [".json", ".bin"])
    def test_field_file_suffix_reads_same_field(self, tmp_path, suffix):
        main(["bessel", "bump", "--s", "0.5", "--out", str(tmp_path),
              "--grid", "128x16"])
        base = str(tmp_path / "bump_bessel_s0.5")
        outputs = []
        for out, path in ((tmp_path / "base", base), (tmp_path / "suffix", base + suffix)):
            assert main(["gradient", path, "--s", "0.25", "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in (
                "bump_bessel_s0.5_gradient_norms.csv",
                "bump_bessel_s0.5_gradient_s0.25_spectral.bin")])
        assert outputs[0] == outputs[1]


class TestCliDispatch:
    def test_every_subcommand_has_its_handler(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert len(sub.choices) == 9
        for name, parser in sub.choices.items():
            assert parser.get_default("run") is getattr(cli, "cmd_" + name.replace("-", "_"))

    @pytest.mark.parametrize("argv", [["norm", "gaussian", "--s", "5"],
                                      ["kfunctional", "--me", "exact_hilbert_p2"]],
                             ids=["norm-s-is-not-seed", "kfunctional-me-is-not-method"])
    def test_abbreviated_flag_is_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestCliCorruptFieldFile:
    @settings(max_examples=30, deadline=None)
    @given(dropped=st.sets(st.sampled_from(["dim", "points_per_axis", "extent", "rank"])),
           cut=st.integers(0, 8 * 64))
    def test_exit_three_without_traceback(self, dropped, cut):
        if not dropped and not cut:
            cut = 1
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "f"
            write_field(Field.scalar(make_grid(1, 64, 8.0), np.ones(64)), base)
            header_path = Path(tmp) / "f.json"
            header = json.loads(header_path.read_text())
            header_path.write_text(json.dumps({k: v for k, v in header.items()
                                               if k not in dropped}))
            bin_path = Path(tmp) / "f.bin"
            raw = bin_path.read_bytes()
            bin_path.write_bytes(raw[:len(raw) - cut])
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(["bessel", str(base), "--out", tmp])
        assert code == 3
        assert err.getvalue().startswith("corrupt field file:")
        assert "Traceback" not in err.getvalue()


class TestCliVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path), "--grid", "128x16"])
        assert code == 0
        reports = json.loads((tmp_path / "report.json").read_text())
        assert all(r["passed"] for r in reports)
        assert (tmp_path / "report.csv").exists()

    def test_failing_check_gives_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": _grid_dict(),
            "params": {"s": [0.25], "q": [10.0]},  # q > p_star = 4
            "checks": ["embedding"],
            "output_dir": str(tmp_path / "out")}))
        code = main(["verify", "--config", str(cfg)])
        assert code == 1
        reports = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(reports) == 1 and reports[0]["passed"] is False
        assert "error" in reports[0]["notes"]

    def test_config_schema_error_gives_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": _grid_dict(),
                                   "params": {"s": [2.0]}}))
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        assert "params.s[0]" in capsys.readouterr().err

    def test_json_only_format_omits_csv(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path), "--grid", "128x16",
                     "--format", "json"])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    def test_byte_identical_modulo_runtime(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["verify", "--out", str(a), "--grid", "128x16", "--seed", "5"])
        main(["verify", "--out", str(b), "--grid", "128x16", "--seed", "5"])

        def canon(path):
            reports = json.loads((path / "report.json").read_text())
            for r in reports:
                r.pop("runtime_ms")
            return json.dumps(reports, sort_keys=True)

        assert canon(a) == canon(b)

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed: must be a nonnegative integer, got -1"),
        ("--out", "", "output_dir: must be a nonempty string, got ''"),
    ], ids=["seed-negative", "out-empty"])
    def test_bad_flag_value_names_its_field(self, tmp_path, monkeypatch, capsys,
                                            flag, value, message):
        monkeypatch.chdir(tmp_path)  # an empty --out must not write here
        code = main(["kernel-l1", "--out", str(tmp_path / "out"), flag, value])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_grid_flag(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path), "--grid", "banana"])
        assert code == 2


class TestCliSweeps:
    def test_kernel_l1_nine_rows(self, tmp_path, capsys):
        code = main(["kernel-l1", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "kernel_l1.csv").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2 + 9  # comment + header + 9 rows
        # s = 0.5 row carries the closed-form value 8 = 4/s
        row = dict(zip(("s", "T"), lines[2 + 4].split(",")))
        assert float(row["s"]) == 0.5
        assert float(row["T"]) == pytest.approx(8.0, rel=1e-2)

    def test_kfunctional_two_hundred_rows(self, tmp_path, capsys):
        code = main(["kfunctional", "gaussian", "--out", str(tmp_path),
                     "--grid", "256x16"])
        assert code == 0
        lines = (tmp_path / "gaussian_kfunctional.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 200
        ks = np.array([float(l.split(",")[1]) for l in lines[2:]])
        assert np.all(np.diff(ks) >= -1e-12)  # K is nondecreasing in t

    def test_kfunctional_at_an_unrepresentable_p_writes_a_curve(self, tmp_path, capsys):
        # |u|^p at p = 1e4 underflows on the gaussian: the norms are computed
        # scaled by the max, not read as 0
        code = main(["kfunctional", "gaussian", "--p", "1e4", "--out", str(tmp_path),
                     "--grid", "256x16"])
        assert code == 0
        lines = (tmp_path / "gaussian_kfunctional.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 200
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, rel=1e-3)

    def test_translation_sweep_rows(self, tmp_path, capsys):
        code = main(["translation-sweep", "--out", str(tmp_path),
                     "--grid", "128x16"])
        assert code == 0
        lines = (tmp_path / "translation_sweep.csv").read_text().strip().splitlines()
        # 6 smooth entries x 3 s x 1 p x 4 shifts
        assert len(lines) == 2 + 6 * 3 * 4

    def test_empty_parameter_grid_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": _grid_dict(),
                                   "params": {"s": []},
                                   "output_dir": str(tmp_path)}))
        code = main(["translation-sweep", "--config", str(cfg)])
        assert code == 2
        assert "params.s: must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "translation_sweep.csv").exists()

    def test_embedding_sweep_covers_regimes(self, tmp_path, capsys):
        code = main(["embedding-sweep", "--out", str(tmp_path),
                     "--grid", "128x16"])
        assert code == 0
        text = (tmp_path / "embedding_sweep.csv").read_text()
        for regime in ("subcritical", "critical", "supercritical"):
            assert regime in text


class TestCliFtcCheck:
    def test_both_paths_pass(self, tmp_path, capsys):
        code = main(["ftc-check", "gaussian", "--out", str(tmp_path),
                     "--grid", "256x16"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 6  # 3 s values x 2 paths
        assert (tmp_path / "gaussian_ftc_report.json").exists()

    def test_norm_table(self, tmp_path, capsys):
        code = main(["norm", "--out", str(tmp_path), "--grid", "128x16"])
        assert code == 0
        lines = (tmp_path / "norms.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 8 * 3  # 8 corpus entries x 3 s x 1 p
