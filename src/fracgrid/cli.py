"""Command-line front end.

Subcommands wrap the library operators and emit CSV/JSON artifacts with CI
exit-code semantics: 0 all pass, 1 check failure, 2 configuration error,
3 I/O error. Reports are byte-identical for identical config and seed, apart
from the runtime_ms field.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import (ConfigError, RunConfig, default_run_config,
                     load_run_config)
from .core import (FieldFileError, lp_norm, make_grid, read_field,
                   sample_corpus, write_field)
from .direct import kernel_translation_l1, riesz_gradient_quadrature
from .interp import k_curve
from .norms import dsp_norm
from .spectral import bessel_norm, bessel_potential, riesz_gradient_spectral
from .verify import check_ftc_roundtrip, embedding_cases, run_suite
from .verify import _run_cases, _shift_ratios, _worst_ratio

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3

_GRID_RE = re.compile(r"^(\d+)x(\d+(?:\.\d*)?|\.\d+)$")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--grid", help="grid as NxL, e.g. 512x16")
    common.add_argument("--dim", type=int, choices=(1, 2), default=None,
                        help="grid dimension for --grid (default 1)")

    ap = argparse.ArgumentParser(
        prog="fracgrid", allow_abbrev=False,
        description="fractional gradient operators, norms, and checks on the torus")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradient", parents=[common],
                       help="apply the fractional gradient to a field")
    g.add_argument("input", help="corpus label or field file base path")
    g.add_argument("--s", type=float, default=0.5)
    g.add_argument("--method", choices=("spectral", "quadrature", "both"),
                   default="spectral")

    b = sub.add_parser("bessel", parents=[common],
                       help="apply the Bessel potential to a field")
    b.add_argument("input", help="corpus label or field file base path")
    b.add_argument("--s", type=float, default=0.5)

    n = sub.add_parser("norm", parents=[common],
                       help="tabulate norms over the corpus or one field")
    n.add_argument("input", nargs="?", default=None,
                   help="corpus label or field file base path (default: whole corpus)")

    f = sub.add_parser("ftc-check", parents=[common],
                       help="gradient-then-kernel reconstruction check")
    f.add_argument("input", nargs="?", default="gaussian")

    sub.add_parser("translation-sweep", parents=[common],
                   help="tabulate translation moduli over the smooth corpus")
    sub.add_parser("embedding-sweep", parents=[common],
                   help="tabulate restriction-to-fractional norm ratios")
    sub.add_parser("kernel-l1", parents=[common],
                   help="tabulate the kernel translation L1 integral over s")

    k = sub.add_parser("kfunctional", parents=[common],
                       help="tabulate a K-functional curve for one field")
    k.add_argument("input", nargs="?", default="gaussian")
    k.add_argument("--p", type=float, default=2.0)

    v = sub.add_parser("verify", parents=[common],
                       help="run the configured check suite and write reports")
    for parser in (f, v):  # the two commands that write check reports
        parser.add_argument("--format", help="comma-separated subset of csv,json")
    # command "a-b" runs cmd_a_b(cfg, args), looked up by name when the parser
    # is built, so a wrapper installed on this module later still applies;
    # no subcommand expands an abbreviated flag (norm --s is not --seed), and
    # a usage error is one line, as every other error is
    for name, parser in sub.choices.items():
        parser.allow_abbrev = False
        parser.usage = argparse.SUPPRESS
        parser.set_defaults(run=globals()["cmd_" + name.replace("-", "_")])
    ap.usage = argparse.SUPPRESS  # after the subparsers took their prog from it
    return ap


def _load_config(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else default_run_config()
    if args.grid is not None:
        m = _GRID_RE.match(args.grid)
        if m is None:
            raise ConfigError(f"--grid must look like NxL, got {args.grid!r}")
        dim = args.dim if args.dim is not None else cfg.grid.dim
        cfg = replace(cfg, grid=make_grid(dim, int(m.group(1)), float(m.group(2))))
    elif args.dim is not None and args.dim != cfg.grid.dim:
        cfg = replace(cfg, grid=make_grid(args.dim, cfg.grid.points_per_axis,
                                          cfg.grid.extent))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if getattr(args, "format", None) is not None:
        formats = tuple(part.strip() for part in args.format.split(",") if part.strip())
        cfg = replace(cfg, formats=formats)
    return cfg


def _resolve_field(cfg: RunConfig, name: str):
    """Corpus label, else field file base path. Unknown labels are config
    errors; named files that cannot be read are I/O errors."""
    corpus = sample_corpus(cfg.grid, cfg.seed)
    for entry in corpus:
        if entry.label == name:
            return entry.label, entry.field
    suffix = next((x for x in (".json", ".bin") if name.endswith(x)), "")
    base = name[:len(name) - len(suffix)]
    if Path(base + ".json").exists():
        return Path(base).name, read_field(base)
    if "/" in name or suffix:
        raise OSError(f"cannot read field file {name!r}")
    labels = ", ".join(e.label for e in corpus)
    raise ConfigError(f"unknown corpus label {name!r}; known labels: {labels}")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, comment: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands

def cmd_gradient(cfg: RunConfig, args) -> int:
    name, u = _resolve_field(cfg, args.input)
    grads = {}
    if args.method in ("spectral", "both"):
        grads["spectral"] = riesz_gradient_spectral(u, args.s)
    if args.method in ("quadrature", "both"):
        grads["quadrature"] = riesz_gradient_quadrature(u, args.s)
    out = _out_dir(cfg)
    rows = []
    for method, g in grads.items():
        write_field(g, out / f"{name}_gradient_s{args.s:g}_{method}")
        rows.append([name, _fmt(args.s), method, _fmt(lp_norm(g, 2.0))])
    if args.method == "both":
        diff = lp_norm(grads["spectral"] - grads["quadrature"], 2.0)
        rel = diff / max(lp_norm(grads["spectral"], 2.0), 1e-300)
        rows.append([name, _fmt(args.s), "l2_discrepancy", _fmt(rel)])
    _write_csv(out / f"{name}_gradient_norms.csv",
               "columns: input, s, method, l2_norm "
               "(method=l2_discrepancy rows hold the relative spectral-vs-"
               "quadrature distance)",
               ("input", "s", "method", "l2_norm"), rows)
    return EXIT_OK


def cmd_bessel(cfg: RunConfig, args) -> int:
    name, u = _resolve_field(cfg, args.input)
    out = _out_dir(cfg)
    v = bessel_potential(u, args.s)
    write_field(v, out / f"{name}_bessel_s{args.s:g}")
    _write_csv(out / f"{name}_bessel_norms.csv",
               "columns: input, s, l2_in, l2_out",
               ("input", "s", "l2_in", "l2_out"),
               [[name, _fmt(args.s), _fmt(lp_norm(u, 2.0)), _fmt(lp_norm(v, 2.0))]])
    return EXIT_OK


def cmd_norm(cfg: RunConfig, args) -> int:
    if args.input is None:
        fields = [(e.label, e.field) for e in sample_corpus(cfg.grid, cfg.seed)]
    else:
        fields = [_resolve_field(cfg, args.input)]
    rows = []
    for label, u in fields:
        for s in cfg.s_list:
            for p in cfg.p_list:
                rows.append([label, _fmt(s), _fmt(p), _fmt(lp_norm(u, p)),
                             _fmt(bessel_norm(u, s, p)), _fmt(dsp_norm(u, s, p))])
    _write_csv(_out_dir(cfg) / "norms.csv",
               "columns: label, s, p, lp_norm, bessel_norm, dsp_norm",
               ("label", "s", "p", "lp_norm", "bessel_norm", "dsp_norm"), rows)
    return EXIT_OK


def _verdict(cfg: RunConfig, reports, stem: str) -> int:
    """Write stem.json and stem.csv as cfg.formats asks, print "N/M checks
    passed" and a FAIL line per failed report; exit code 0 if all passed, else 1."""
    out = _out_dir(cfg)
    payload = [r.as_dict() for r in reports]
    if "json" in cfg.formats:
        with open(out / f"{stem}.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "csv" in cfg.formats:
        rows = [[d["check_id"], str(d["passed"]), json.dumps(d["measured"]),
                 json.dumps(d["bound"]), d["notes"], str(d["runtime_ms"]),
                 json.dumps(d["params"], sort_keys=True)]
                for d in payload]
        _write_csv(out / f"{stem}.csv",
                   "columns: check_id, passed, measured, bound, notes, "
                   "runtime_ms, params (JSON)",
                   ("check_id", "passed", "measured", "bound", "notes",
                    "runtime_ms", "params"), rows)
    passed = sum(1 for r in reports if r.passed)
    print(f"{passed}/{len(reports)} checks passed")
    for r in reports:
        if not r.passed:
            print(f"FAIL {r.check_id} params={json.dumps(r.as_dict()['params'], sort_keys=True)} "
                  f"notes={r.notes}")
    return EXIT_OK if passed == len(reports) else EXIT_CHECK_FAILURE


def cmd_ftc_check(cfg: RunConfig, args) -> int:
    # the bare checks: one that raises ends the command with exit code 2
    name, u = _resolve_field(cfg, args.input)
    return _verdict(cfg, _run_cases(partial(check_ftc_roundtrip, u, s, path)
                                    for s in cfg.s_list for path in ("spectral", "quadrature")),
                    f"{name}_ftc_report")


def cmd_verify(cfg: RunConfig, args) -> int:
    return _verdict(cfg, run_suite(cfg), "report")


def cmd_translation_sweep(cfg: RunConfig, args) -> int:
    rows = []
    for entry in sample_corpus(cfg.grid, cfg.seed):
        if not entry.smooth:
            continue
        for s in cfg.s_list:
            for p in cfg.p_list:
                _, ratios = _shift_ratios(entry.field, s, p, cfg.h_sweep)
                rows += [[entry.label, _fmt(s), _fmt(p), _fmt(h), _fmt(mod), _fmt(ratio)]
                         for h, mod, ratio in ratios]
    _write_csv(_out_dir(cfg) / "translation_sweep.csv",
               "columns: label, s, p, h, modulus = ||u(.+h)-u||_p, "
               "ratio = s(1-s) modulus / (h^s ||D^s u||_p)",
               ("label", "s", "p", "h", "modulus", "ratio"), rows)
    return EXIT_OK


def cmd_embedding_sweep(cfg: RunConfig, args) -> int:
    smooth = [e.field for e in sample_corpus(cfg.grid, cfg.seed) if e.smooth]
    rows = []
    for exps, v in embedding_cases(cfg):
        if not exps.mismatch(v):
            rows.append([_fmt(exps.s), _fmt(exps.p), exps.regime, exps.parameter,
                         _fmt(v), _fmt(_worst_ratio(smooth, exps, v))])
    _write_csv(_out_dir(cfg) / "embedding_sweep.csv",
               "columns: s, p, regime, parameter kind (q or mu), parameter "
               "value, worst restriction-to-fractional norm ratio over the "
               "smooth corpus",
               ("s", "p", "regime", "kind", "value", "ratio"), rows)
    return EXIT_OK


def cmd_kernel_l1(cfg: RunConfig, args) -> int:
    s_grid = np.linspace(0.1, 0.9, 9)
    rows = [[_fmt(s), _fmt(kernel_translation_l1(cfg.grid.dim, float(s)))]
            for s in s_grid]
    _write_csv(_out_dir(cfg) / "kernel_l1.csv",
               "columns: s, T = |h|^-s L1 distance between the FTC kernel "
               "and its unit translate (dimensionless, h-independent)",
               ("s", "T"), rows)
    return EXIT_OK


def cmd_kfunctional(cfg: RunConfig, args) -> int:
    name, u = _resolve_field(cfg, args.input)
    curve = k_curve(u, args.p)
    rows = [[_fmt(t), _fmt(v)] for t, v in zip(curve.t_grid, curve.values)]
    _write_csv(_out_dir(cfg) / f"{name}_kfunctional.csv",
               f"columns: t, K(t; u, L^p, W^(1,p)) via {curve.method}, "
               f"p={args.p:g}, input={name}",
               ("t", "K"), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.run(cfg, args)
    except MemoryError:  # numpy's allocation failure included; loading allocates no grid
        g = cfg.grid
        print(f"out of memory: the {g.dim}-d grid {g.points_per_axis}x{g.extent:g} "
              "does not fit", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FieldFileError as exc:
        print(f"corrupt field file: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
