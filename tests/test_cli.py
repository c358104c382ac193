"""Configuration parsing and the command-line front end.

CLI tests call main(argv) in-process and assert on exit codes and emitted
files. Determinism is byte-level: two runs with the same config and seed
must produce identical reports once runtime_ms is stripped.
"""

import argparse
import csv
import importlib
import importlib.util
import io
import json
import math
import pkgutil
import re
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracgrid
import fracgrid.config
from fracgrid import cli
from fracgrid.cli import main
from fracgrid.config import (CHECK_IDS, ConfigError, RunConfig,
                             default_run_config, load_run_config,
                             run_config_from_dict)
from fracgrid.core import (Field, GridSpec, make_grid, read_field, sample_corpus,
                           write_field)
from fracgrid.verify import check_embedding, embedding_cases


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

    @pytest.mark.parametrize("raw", [b"{not json", b"[" * 100_000, b'{"seed": "\xff"}'],
                             ids=["syntax", "deep-nesting", "invalid-utf8"])
    def test_load_bad_json(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_extent_whose_square_overflows_is_config_error(self):
        with pytest.raises(ConfigError, match=re.escape("grid: extent")):
            run_config_from_dict({"grid": _grid_dict(extent=1e200)})

    @pytest.mark.parametrize("section", [{}, {"dim": 2}, {"points_per_axis": 64},
                                         {"extent": 8.0, "dim": 2}])
    def test_partial_grid_takes_the_default_members(self, section, monkeypatch):
        # the defaults are read from default_run_config(), not restated
        assert run_config_from_dict({"grid": section}) == replace(
            default_run_config(), grid=make_grid(**{**_grid_dict(1, 256, 16.0), **section}))
        base = RunConfig(grid=make_grid(2, 32, 4.0), seed=5, p_list=(3.0,))
        monkeypatch.setattr(fracgrid.config, "default_run_config", lambda: base)
        cfg = run_config_from_dict({"grid": section})
        assert cfg == replace(base, grid=make_grid(**{**_grid_dict(2, 32, 4.0), **section}))

    def test_extent_too_small_for_the_grid_is_config_error(self):
        with pytest.raises(ConfigError, match=re.escape("grid: extent 1e-160 is too small")):
            run_config_from_dict({"grid": _grid_dict(dim=2, points=64, extent=1e-160)})


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
                                      ["verify", "--form", "json"]],
                             ids=["norm-s-is-not-seed", "verify-form-is-not-format"])
    def test_abbreviated_flag_is_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestCliBadConfig:
    @pytest.mark.parametrize("raw", [b"[" * 100_000,
                                     json.dumps({"grid": _grid_dict(extent=1e200)}).encode()],
                             ids=["deep-nesting", "extent-1e200"])
    def test_exit_two_without_traceback(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        code = main(["norm", "gaussian", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


    def test_verify_with_an_extent_too_small_exits_two(self, tmp_path, capsys):
        # it ended in a ZeroDivisionError once h^2 underflowed
        extent = 1e-160
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": _grid_dict(dim=2, points=64, extent=extent),
                                   "params": {"h_sweep": [extent / 32, extent / 64]}}))
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: grid: extent 1e-160") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extent", [1e-150, 1e-123])
    def test_quadrature_gradient_at_a_tiny_extent_exits_two(self, tmp_path, capsys, extent):
        # make_grid admits these extents, but the kernel table times
        # extent^-2.5 overflows: at 1e-150 the scale itself (an OverflowError
        # once), at 1e-123 only its product with the nearest-neighbour entries
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": _grid_dict(dim=2, points=64, extent=extent),
                                   "params": {"h_sweep": [extent / 100]}}))
        code = main(["gradient", "gaussian", "--method", "quadrature", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"invalid parameter: extent {extent} is too small for a kernel table of power 3.5: "
            "the table times extent^-2.5 overflows\n")
        assert not (tmp_path / "out").exists()


class TestCliEdgeInputs:
    @pytest.mark.parametrize("argv", [
        ["kfunctional", "gaussian", "--p", "inf"],
        ["kfunctional", "gaussian", "--p", "nan"],
        ["gradient", "gaussian", "--s", "inf"],
        ["bessel", "gaussian", "--s", "nan"],
        ["bessel", "gaussian", "--s", "inf"],
        ["norm", "gaussian", "--grid", "16x1e-5"],
        ["norm", "gaussian", "--grid", "16x0.00001"],
        ["gradient", "gaussian", "--s", "0.9999999999", "--method", "quadrature",
         "--grid", "16x16"],
        ["norm", "--format", "json"],
        ["ftc-check", "gaussian", "--path", "spectral"],
    ], ids=lambda argv: " ".join(argv))
    def test_exit_two_with_one_line(self, tmp_path, capsys, argv):
        # --format belongs to verify and ftc-check only, and ftc-check has no --path
        try:
            code = main(argv + ["--out", str(tmp_path)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert "Traceback" not in err


class TestCliOutOfMemory:
    def test_grid_too_large_to_allocate_exits_two(self, tmp_path, capsys, monkeypatch):
        # the first array of a 2^32 x 2^32 grid is its axis; failing that
        # allocation stands in for the real one, which no test may attempt
        def refuse(grid):
            raise MemoryError(f"Unable to allocate an axis of {grid.points_per_axis} nodes")
        monkeypatch.setattr(GridSpec, "axis", refuse)
        code = main(["norm", "gaussian", "--dim", "2", "--grid", "4294967296x16",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "out of memory" in err and "2-d grid 4294967296x16" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("section, key", [
        ("grid", "point_per_axis"), ("params", "S"),
    ], ids=["grid", "params"])
    def test_unknown_nested_key_gives_exit_two(self, tmp_path, capsys, section, key):
        # a misspelt key must not run the default in its place
        data = {"grid": _grid_dict(), "output_dir": str(tmp_path / "out")}
        data.setdefault(section, {})[key] = [0.9] if section == "params" else 64
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        assert f"{section}.{key}: unknown config field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_only_format_omits_csv(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path), "--grid", "128x16",
                     "--format", "json"])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

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

    @pytest.mark.parametrize("grid", ["256x.", "256x1.2.3", "256x"])
    def test_grid_extent_must_be_a_decimal_number(self, tmp_path, capsys, grid):
        code = main(["verify", "--out", str(tmp_path), "--grid", grid])
        assert code == 2
        assert f"--grid must look like NxL, got {grid!r}" in capsys.readouterr().err


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

    def test_kfunctional_takes_no_method(self, tmp_path, capsys):
        # the route follows from --p alone; the CSV comment names it
        with pytest.raises(SystemExit) as exc:
            main(["kfunctional", "gaussian", "--method", "exact_hilbert_p2",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        for p, route in (("2", "exact_hilbert_p2"), ("3", "mollifier_family")):
            assert main(["kfunctional", "gaussian", "--p", p, "--grid", "64x16",
                         "--out", str(tmp_path)]) == 0
            comment = (tmp_path / "gaussian_kfunctional.csv").read_text().splitlines()[0]
            assert f"via {route}, p={p}," in comment

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

    @pytest.mark.parametrize("dim, points", [(1, 128), (2, 32)])
    def test_embedding_sweep_ratio_is_the_checks_measure(self, tmp_path, dim, points):
        code = main(["embedding-sweep", "--out", str(tmp_path), "--dim", str(dim),
                     "--grid", f"{points}x16"])
        assert code == 0
        lines = (tmp_path / "embedding_sweep.csv").read_text().splitlines()
        rows = list(csv.reader(lines[2:]))
        cfg = replace(default_run_config(), grid=make_grid(dim, points, 16.0))
        smooth = [e.field for e in sample_corpus(cfg.grid, cfg.seed) if e.smooth]
        admitted = [(e, v) for e, v in embedding_cases(cfg) if not e.mismatch(v)]
        assert len(rows) == len(admitted) == (3 if dim == 1 else 2)
        for row, (e, v) in zip(rows, admitted):
            assert row[:5] == [repr(e.s), repr(e.p), e.regime, e.parameter, repr(v)]
            assert float(row[5]) == check_embedding(smooth, dim, e.s, e.p, v).measured


class TestPackageExports:
    MODULES = [name for _, name, _ in pkgutil.iter_modules(fracgrid.__path__) if name != "cli"]

    def test_every_public_name_is_the_modules_object(self):
        for name in self.MODULES:
            module = importlib.import_module(f"fracgrid.{name}")
            for attr in module.__all__:
                assert getattr(fracgrid, attr) is getattr(module, attr), f"{name}.{attr}"

    def test_package_all_is_the_union_of_the_modules(self):
        union = ["__version__"] + [attr for name in self.MODULES
                                   for attr in importlib.import_module(f"fracgrid.{name}").__all__]
        assert len(set(union)) == len(union) == len(fracgrid.__all__)
        assert set(fracgrid.__all__) == set(union)
        assert {"FieldFileError", "lacunary_field", "default_t_grid", "embedding_cases",
                "bandlimited_family", "scaled_bump_family"} <= set(fracgrid.__all__)


class TestCliFtcCheck:
    def test_both_paths_pass(self, tmp_path, capsys):
        code = main(["ftc-check", "gaussian", "--out", str(tmp_path),
                     "--grid", "256x16"])
        assert code == 0
        assert capsys.readouterr().out == "6/6 checks passed\n"  # 3 s values x 2 paths
        reports = json.loads((tmp_path / "gaussian_ftc_report.json").read_text())
        assert [(r["params"]["s"], r["params"]["path"]) for r in reports] == [
            (s, path) for s in (0.25, 0.5, 0.75) for path in ("spectral", "quadrature")]
        assert (tmp_path / "gaussian_ftc_report.csv").exists()

    def test_shares_verifys_verdict(self, tmp_path, capsys):
        # one tail for both commands: the summary, a FAIL line per failed
        # report, exit code 1, and --format picks the files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": _grid_dict(dim=2, points=16), "params": {"s": [0.5]}}))
        code = main(["ftc-check", "powertail_steep", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--format", "json"])
        out = capsys.readouterr().out.splitlines()
        reports = json.loads((tmp_path / "out" / "powertail_steep_ftc_report.json").read_text())
        failed = [r for r in reports if not r["passed"]]
        assert failed and code == 1
        assert out[0] == f"{len(reports) - len(failed)}/{len(reports)} checks passed"
        assert [line.split(" params=")[0] for line in out[1:]] == ["FAIL ftc_roundtrip"] * len(failed)
        assert not (tmp_path / "out" / "powertail_steep_ftc_report.csv").exists()

    def test_a_raising_check_exits_two_with_its_message(self, tmp_path, capsys):
        # the bare checks reach ftc-check: a raise is not an errored report
        extent = 1e-123
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": _grid_dict(dim=2, points=64, extent=extent),
                                   "params": {"h_sweep": [extent / 100]}}))
        code = main(["ftc-check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"invalid parameter: extent {extent} is too small for a kernel table of power 3.5: "
            "the table times extent^-2.5 overflows\n")
        assert not (tmp_path / "out").exists()

    def test_norm_table(self, tmp_path, capsys):
        code = main(["norm", "--out", str(tmp_path), "--grid", "128x16"])
        assert code == 0
        lines = (tmp_path / "norms.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 8 * 3  # 8 corpus entries x 3 s x 1 p


class TestReportDiff:
    """tools/report_diff.py names the largest relative move of any number
    that both runs wrote in one place, for a round-off change to state."""

    @staticmethod
    def _tool():
        path = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
        spec = importlib.util.spec_from_file_location("report_diff", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    def test_largest_move_is_located(self, tmp_path):
        tool = self._tool()
        runs = []
        for side, (ratio, measured, runtime) in enumerate([(2.0, 0.5, 3), (2.0 + 4e-15, 0.5, 9)]):
            reports = [{"check_id": "a", "measured": 1.0, "passed": True, "runtime_ms": 1},
                       {"check_id": "b", "measured": measured, "passed": True,
                        "params": {"ratios": [1.0, ratio], "label": "x"}, "runtime_ms": runtime}]
            (tmp_path / f"{side}.json").write_text(json.dumps(reports, indent=2))
            with open(tmp_path / f"{side}.csv", "w", newline="") as fh:
                fh.write("# columns\n")
                rows = csv.writer(fh)
                rows.writerow(["check_id", "measured", "runtime_ms", "params"])
                for r in reports:
                    rows.writerow([r["check_id"], r["measured"], r["runtime_ms"],
                                   json.dumps(r.get("params", {}))])
            runs.append(tmp_path / str(side))
        for suffix, where in ((".json", "report.json report 1 (b) params.ratios[1]"),
                              (".csv", "report.csv row 1 params.ratios[1]")):
            old, new = (run.with_suffix(suffix) for run in runs)
            moves = list(tool._file_moves("report" + suffix, old, new))
            # runtime_ms is not a number that moved, and every other one stayed
            assert sorted(m for m, _ in moves)[:-1] == [0.0] * (len(moves) - 1)
            move, place = max(moves)
            assert place == where and move == pytest.approx(2e-15, rel=1e-2)
