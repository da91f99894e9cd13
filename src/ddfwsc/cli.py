"""Command-line front end: analyze, simulate, sweep-beta, sweep-snr, validate.

Output is plot-ready CSV (or JSON with --format json) on stdout or --out.
Range flags accept "start:stop:step" for linear grids and
"start:stop:logN" for N log-spaced points; a bare number is a single value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__, analysis
from .analysis import ClosedFormContext
from .combiners import SCHEMES, SchemeId
from .link import SystemParams
from .simulator import SimConfig, run_simulation, sweep
from .validation import run_checks

COLUMNS = ["snr_db", "scheme", "beta", "ber_sim", "ci95_low", "ci95_high",
           "ber_analytic", "ber_asymptotic", "bit_errors", "bits"]


def parse_range(text: str) -> list[float]:
    """Parse '10', '0:40:2' or '0.05:2:log20' into a list of grid values."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"malformed range {text!r}; expected start:stop:step or start:stop:logN")
    start, stop = float(parts[0]), float(parts[1])
    if parts[2].startswith("log"):
        n = int(parts[2][3:])
        if n < 2 or start <= 0 or stop <= start:
            raise ValueError(f"malformed log range {text!r}")
        return list(np.logspace(np.log10(start), np.log10(stop), n))
    step = float(parts[2])
    if step <= 0 or stop < start:
        raise ValueError(f"malformed range {text!r}")
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def emit(records: list[dict], fmt: str, out, metadata: dict | None = None) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(COLUMNS)
        for rec in records:
            writer.writerow([_fmt(rec.get(c)) for c in COLUMNS])
    else:
        payload = {"metadata": {"tool_version": __version__, **(metadata or {})},
                   "records": records}
        json.dump(payload, out, indent=2, default=float)
        out.write("\n")


def _scheme_list(text: str) -> tuple[SchemeId, ...]:
    try:
        return tuple(SchemeId(s.strip().lower()) for s in text.split(","))
    except ValueError as exc:
        raise ValueError(f"unknown scheme in {text!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma0", type=float, default=1.0, help="S-D channel variance sigma0^2")
    p.add_argument("--sigma1", type=float, default=1.0, help="S-R channel variance sigma1^2")
    p.add_argument("--sigma2", type=float, default=1.0, help="R-D channel variance sigma2^2")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--blocks", type=int, default=100_000, help="max fading blocks")
    p.add_argument("--block-len", type=int, default=256, help="data bits per block")
    p.add_argument("--min-errors", type=int, default=200, help="early-stop error target per scheme")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr-mode", choices=("exact", "estimated"), default="exact")
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddfwsc",
                                     description="D-DF relaying with weighted selection combining")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate closed-form ABER")
    p.add_argument("--scheme", choices=[s.value for s, rule in SCHEMES.items() if rule.aber is not None],
                   required=True)
    p.add_argument("--snr-db", required=True, help="P0/N0 in dB; single value or range")
    p.add_argument("--beta", type=float, default=None, help="fixed WSC1 weight (optimized if omitted)")
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo BER with analytic columns")
    p.add_argument("--schemes", default="sc,wsc2", help="comma list: sc,wsc1,wsc2,lar")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0, help="WSC1 weight factor")
    _add_sim_flags(p)
    _add_common(p)

    p = sub.add_parser("sweep-beta", help="BER versus weight factor (Fig. 1 data)")
    p.add_argument("--beta", default="0.05:2:log20", help="beta range")
    p.add_argument("--snr-db", type=float, default=30.0)
    p.add_argument("--schemes", default="wsc1")
    _add_sim_flags(p)
    _add_common(p)

    p = sub.add_parser("sweep-snr", help="BER waterfall versus P0/N0 (Fig. 2 data)")
    p.add_argument("--snr-db", default="0:40:2", help="SNR range in dB")
    p.add_argument("--schemes", default="sc,lar,wsc1,wsc2")
    p.add_argument("--beta", type=float, default=None, help="WSC1 weight (optimized per point if omitted)")
    _add_sim_flags(p)
    _add_common(p)

    p = sub.add_parser("validate", help="run the built-in oracle suite")
    p.add_argument("--quick", action="store_true", help="subset that completes quickly")
    p.add_argument("--seed", type=int, default=12345)

    return parser


def _sigma(args) -> tuple[float, float, float]:
    return (args.sigma0, args.sigma1, args.sigma2)


def _estimate_record(snr_db, scheme, beta_wsc1, est, analytic, asym=None) -> dict:
    return {
        "snr_db": snr_db, "scheme": scheme.value, "beta": SCHEMES[scheme].beta_column(beta_wsc1),
        "ber_sim": est.ber if est else None,
        "ci95_low": est.ci95_low if est else None,
        "ci95_high": est.ci95_high if est else None,
        "ber_analytic": analytic, "ber_asymptotic": asym,
        "bit_errors": est.bit_errors if est else None,
        "bits": est.bits if est else None,
    }


def cmd_analyze(args) -> list[dict]:
    scheme = SchemeId(args.scheme)
    if args.beta is not None and scheme is not SchemeId.WSC1:
        raise ValueError(f"--beta applies to --scheme wsc1 only, not {scheme.value}")
    records = []
    for snr_db in parse_range(args.snr_db):
        ctx = ClosedFormContext.from_db(snr_db, _sigma(args))
        if scheme is SchemeId.WSC1 and args.beta is None:
            beta, ber = analysis.optimize_beta(ctx)
        else:
            beta = 1.0 if args.beta is None else args.beta
            ber = SCHEMES[scheme].aber(beta, ctx)
        records.append(_estimate_record(snr_db, scheme, beta, None, ber))
    return records


def _make_cfg(args, snr_db, beta) -> SimConfig:
    params = SystemParams(p0_over_n0_db=snr_db, sigma_sq=_sigma(args),
                          block_len=args.block_len, snr_mode=args.snr_mode)
    return SimConfig(params=params, schemes=_scheme_list(args.schemes), beta_wsc1=beta,
                     max_blocks=args.blocks, min_errors=args.min_errors,
                     seed=args.seed, workers=args.workers)


def cmd_simulate(args) -> list[dict]:
    cfg = _make_cfg(args, args.snr_db, args.beta)
    ctx = ClosedFormContext(*cfg.params.gamma_bars)
    return [_estimate_record(args.snr_db, est.scheme, cfg.beta_wsc1, est,
                             SCHEMES[est.scheme].closed_form(cfg.beta_wsc1, ctx))
            for est in run_simulation(cfg)]


def _sweep_records(cfg: SimConfig, axis: str, values, optimize_wsc1: bool = False) -> list[dict]:
    records = []
    for rec in sweep(cfg, axis, values, optimize_wsc1):
        snr_db = rec.axis_value if axis == "snr_db" else cfg.params.p0_over_n0_db
        for est in rec.estimates:
            asym = rec.asymptotic if est.scheme is SchemeId.WSC2 else None
            records.append(_estimate_record(snr_db, est.scheme, rec.beta_wsc1, est,
                                            rec.analytic.get(est.scheme), asym))
    return records


def cmd_sweep_beta(args) -> list[dict]:
    return _sweep_records(_make_cfg(args, args.snr_db, 1.0), "beta", parse_range(args.beta))


def cmd_sweep_snr(args) -> list[dict]:
    snrs = parse_range(args.snr_db)
    cfg = _make_cfg(args, snrs[0], 1.0 if args.beta is None else args.beta)
    # Without a fixed weight, WSC1 uses the per-point optimum.
    return _sweep_records(cfg, "snr_db", snrs, optimize_wsc1=args.beta is None)


def cmd_validate(args) -> int:
    checks = run_checks(quick=args.quick, seed=args.seed)
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {status}  {c.detail}")
        failed += not c.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    handlers = {"analyze": cmd_analyze, "simulate": cmd_simulate,
                "sweep-beta": cmd_sweep_beta, "sweep-snr": cmd_sweep_snr}
    try:
        if args.command == "validate":
            return cmd_validate(args)
        records = handlers[args.command](args)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")

    metadata = {}
    for key in ("seed", "block_len", "snr_mode"):
        if hasattr(args, key):
            metadata[key] = getattr(args, key)

    buf = io.StringIO()
    emit(records, args.format, buf, metadata)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
