"""The benchmark workloads: inputs made from a seed, the timed call, output checks.

Every workload is a closed loop with one caller; the next item starts when
the previous one returns.  An item of kind "op" is what a user waits on (one
``run_simulation`` call or one ``sweep-snr`` command); sweep_to_target also
runs items of kind "tuple", one quadrature oracle call each.  Items are
derived from (seed, kind, index) alone, so a loop can be replayed item for
item.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics

import numpy as np

from ddfwsc import analysis, cli, simulator, validation
from ddfwsc.analysis import ClosedFormContext
from ddfwsc.combiners import SchemeId
from ddfwsc.link import SystemParams
from ddfwsc.simulator import SimConfig

CSV_HEADER = ["snr_db", "scheme", "beta", "ber_sim", "ci95_low", "ci95_high",
              "ber_analytic", "ber_asymptotic", "bit_errors", "bits"]

# Family-wise error rate of one run's Monte Carlo check (Bonferroni over the
# 4 SNR x 3 scheme comparisons of mc_short_block).
MC_FWER = 1e-4
MC_MIN_CALLS = 5
ORACLE_REL_TOL = 1e-4  # acceptance criterion 1


def _rng(seed: int, kind: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, kind, index))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _csv_rows(text: str) -> tuple[list[str], list[dict]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def _oracle_tuple(seed: int, index: int) -> tuple:
    """A tuple drawn as acceptance criterion 1 draws it; even indices wsc1, odd wsc2."""
    r = _rng(seed, 2, index)
    gb = tuple(float(g) for g in 10.0 ** r.uniform(-1.0, 4.0, size=3))
    if index % 2 == 0:
        return ("wsc1", gb, float(r.uniform(0.05, 2.0)))
    return ("wsc2", gb, None)


def _oracle(inp) -> float:
    scheme, gb, beta = inp
    ctx = ClosedFormContext(*gb)
    if scheme == "wsc1":
        return validation.aber_wsc1_by_integration(beta, ctx)
    return validation.aber_wsc2_by_integration(ctx)


def _check_oracle(inp, ref: float) -> str | None:
    """The closed form must agree with quadrature to criterion 1's tolerance."""
    scheme, gb, beta = inp
    ctx = ClosedFormContext(*gb)
    got = analysis.aber_wsc1(beta, ctx) if scheme == "wsc1" else analysis.aber_wsc2(ctx)
    rel = abs(got - ref) / ref if ref > 0 else math.inf
    if not rel < ORACLE_REL_TOL:
        return (f"{scheme} gbar={gb} beta={beta}: closed form {got:.6g} vs quadrature {ref:.6g},"
                f" rel err {rel:.2g}")
    return None


class Workload:
    """One benchmark workload.

    ``phases`` lists (item kind, share of the run's seconds).  ``item`` makes
    the input of the i-th item of a kind, ``run`` is the timed call, ``work``
    counts the units an output completed, and ``check`` returns, for each
    item, None or the reason it failed.
    """

    name = ""
    phases: tuple[tuple[str, float], ...] = (("op", 1.0),)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def item(self, kind: str, index: int):
        raise NotImplementedError

    def run(self, kind: str, inp):
        raise NotImplementedError

    def work(self, kind: str, inp, out) -> float:
        raise NotImplementedError

    def check(self, kind: str, items: list) -> list[str | None]:
        raise NotImplementedError


class McShortBlock(Workload):
    """run_simulation at L=4, four schemes, fixed block budget, no early stop."""

    name = "mc_short_block"
    SNRS_DB = (5.0, 10.0, 15.0, 20.0)
    SCHEMES = (SchemeId.SC, SchemeId.WSC1, SchemeId.WSC2, SchemeId.LAR)
    BLOCKS = 8000
    L = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.beta = {}
        self.truth = {}
        for db in self.SNRS_DB:
            ctx = ClosedFormContext.from_db(db)
            beta, _ = analysis.optimize_beta(ctx)
            self.beta[db] = beta
            self.truth[db] = {SchemeId.SC: analysis.aber_wsc1(1.0, ctx),
                              SchemeId.WSC1: analysis.aber_wsc1(beta, ctx),
                              SchemeId.WSC2: analysis.aber_wsc2(ctx)}

    def item(self, kind, index):
        r = _rng(self.seed, 0, index)
        db = self.SNRS_DB[int(r.integers(len(self.SNRS_DB)))]
        return SimConfig(params=SystemParams(p0_over_n0_db=db, block_len=self.L),
                         schemes=self.SCHEMES, beta_wsc1=self.beta[db], max_blocks=self.BLOCKS,
                         min_errors=0, seed=int(r.integers(2 ** 31)), workers=1)

    def run(self, kind, cfg):
        return simulator.run_simulation(cfg)

    def work(self, kind, cfg, out):
        return out[0].bits

    def _structure(self, est) -> str | None:
        bits = self.BLOCKS * self.L
        if [e.scheme for e in est] != list(self.SCHEMES):
            return "schemes out of order"
        for e in est:
            if e.bits != bits or not 0 <= e.bit_errors <= bits or e.ber != e.bit_errors / bits:
                return f"{e.scheme.value}: bits {e.bits}, errors {e.bit_errors}, ber {e.ber}"
        return None

    def check(self, kind, items):
        """Structure per call, then each SNR's mean per-call BER against the closed form.

        Errors cluster within a fading block, so the spread between calls,
        not a bit-level binomial, sets the noise: per-call error counts are
        treated as quasi-Poisson with their measured dispersion, and compared
        with a variance-stabilising square-root statistic.
        """
        verdicts = [self._structure(out) if out is not None else None for _, out, _ in items]
        z_crit = statistics.NormalDist().inv_cdf(1.0 - MC_FWER / (2 * 3 * len(self.SNRS_DB)))
        bits = self.BLOCKS * self.L
        for db in self.SNRS_DB:
            members = [k for k, (cfg, out, err) in enumerate(items)
                       if cfg.params.p0_over_n0_db == db and out is not None and verdicts[k] is None]
            if len(members) < MC_MIN_CALLS:
                continue
            for j, scheme in enumerate(self.SCHEMES[:3]):
                counts = [items[k][1][j].bit_errors for k in members]
                mean = statistics.fmean(counts)
                disp = max(1.0, statistics.variance(counts) / mean) if mean > 0 else 1.0
                expected = self.truth[db][scheme] * bits * len(counts)
                z = 2.0 * (math.sqrt(sum(counts) / disp + 0.375) - math.sqrt(expected / disp))
                if abs(z) > z_crit:
                    reason = (f"{db} dB {scheme.value}: mean per-call BER {sum(counts) / (bits * len(counts)):.4g}"
                              f" vs closed form {self.truth[db][scheme]:.4g} over {len(counts)} calls,"
                              f" z = {z:.2f} beyond {z_crit:.2f}")
                    for k in members:
                        verdicts[k] = verdicts[k] or reason
        return verdicts


class SweepToTarget(Workload):
    """One whole in-process `sweep-snr` command, 0..30 dB, run to 300 errors or the cap.

    The last part of the run evaluates quadrature-oracle tuples (kind
    "tuple"): they check the closed forms that the sweep's analytic column
    uses, and carry the oracle's layer metrics.  They are not ops.
    """

    name = "sweep_to_target"
    phases = (("op", 0.7), ("tuple", 0.3))
    SNRS_DB = [3.0 * k for k in range(11)]
    SCHEMES = ("sc", "lar", "wsc1", "wsc2")
    MIN_ERRORS = 300
    CAP = 1024
    L = 256

    def item(self, kind, index):
        if kind == "tuple":
            return _oracle_tuple(self.seed, index)
        call_seed = int(_rng(self.seed, 1, index).integers(2 ** 31))
        return ["sweep-snr", "--snr-db", "0:30:3", "--schemes", ",".join(self.SCHEMES),
                "--min-errors", str(self.MIN_ERRORS), "--blocks", str(self.CAP),
                "--workers", "2", "--seed", str(call_seed)]

    def run(self, kind, inp):
        return _oracle(inp) if kind == "tuple" else _run_cli(inp)

    def work(self, kind, argv, out):
        if kind == "tuple":
            return 1
        _, rows = _csv_rows(out[1])
        return sum(int(r["bits"]) for r in rows if r["scheme"] == self.SCHEMES[0])

    def _check_one(self, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        header, rows = _csv_rows(text)
        if header != CSV_HEADER:
            return f"header {header}"
        if len(rows) != len(self.SNRS_DB) * len(self.SCHEMES):
            return f"{len(rows)} rows"
        for p, db in enumerate(self.SNRS_DB):
            point = rows[p * len(self.SCHEMES):(p + 1) * len(self.SCHEMES)]
            if any(float(r["snr_db"]) != db for r in point) or [r["scheme"] for r in point] != list(self.SCHEMES):
                return f"point {p}: unexpected snr/scheme columns"
            bits = {int(r["bits"]) for r in point}
            if len(bits) != 1:
                return f"{db} dB: schemes disagree on bits {sorted(bits)}"
            n_bits = bits.pop()
            blocks, rem = divmod(n_bits, self.L)
            if rem or not 1 <= blocks <= self.CAP:
                return f"{db} dB: bits {n_bits} is not blocks x {self.L} within the cap"
            errors = [int(r["bit_errors"]) for r in point]
            if blocks < self.CAP and min(errors) < self.MIN_ERRORS:
                return f"{db} dB: stopped at {blocks} blocks with errors {errors}"
            ctx = ClosedFormContext.from_db(db)
            for r, e in zip(point, errors):
                if float(r["ber_sim"]) != e / n_bits:
                    return f"{db} dB {r['scheme']}: ber_sim {r['ber_sim']} != {e}/{n_bits}"
                if r["scheme"] == "lar":
                    want = None
                elif r["scheme"] == "sc":
                    want = analysis.aber_wsc1(1.0, ctx)
                elif r["scheme"] == "wsc1":
                    want = analysis.aber_wsc1(float(r["beta"]), ctx)
                else:
                    want = analysis.aber_wsc2(ctx)
                got = r["ber_analytic"]
                if (want is None) != (got == "") or (want is not None and not _close(float(got), want)):
                    return f"{db} dB {r['scheme']}: ber_analytic {got!r} vs closed form {want!r}"
        return None

    def check(self, kind, items):
        if kind == "tuple":
            return [_check_oracle(inp, out) if out is not None else None for inp, out, _ in items]
        return [self._check_one(out) if out is not None else None for _, out, _ in items]


WORKLOADS = {w.name: w for w in (McShortBlock, SweepToTarget)}
