"""ddfwsc benchmark: one workload, one seed, a fixed number of seconds.

    python3 perfbench/run.py --workload mc_short_block --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from src/.
Set-up time is measured in fresh interpreters: PROBES processes that stop
once their inputs are ready, plus the measured process itself, and the
median is reported.  The measured process runs the workload's closed loop
(with --trace 1: half untraced, then half traced over the same inputs),
checks every output and reports.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the full record (provenance, per-workload detail,
failing inputs); the record and, when traced, the spans are also written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ddfwsc"
RESULTS = HERE / "results"
WORKLOADS = ("mc_short_block", "sweep_to_target")
PROBES = 6
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "work_per_s": "1/s",
                    "ok_frac": "frac", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start child.py; return (start time on this process's clock, its JSON line)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)}: timed out")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)}: no output")
    return t0, json.loads(lines[-1])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no ddfwsc sources under {PACKAGE}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups, imports = [], []
        for _ in range(PROBES):
            t0, probe = _child([*common, "--probe"], deadline)
            setups.append(probe["t_ready"] - t0)
            imports.append(probe["import_s"])
        run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", str(RESULTS / f"{tag}-spans.npz")]
        t0, rec = _child(run_args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(rec["t_ready"] - t0)
    imports.append(rec["import_s"])

    e2e = rec["end_to_end"]
    e2e["setup_s"] = statistics.median(setups)
    e2e["setup_s_samples"] = setups
    e2e["ok_frac"] = 1.0 - rec["failed"] / rec["attempted"]
    e2e["failed_frac"] = rec["failed"] / rec["attempted"]
    if args.trace:
        metrics = rec["per_layer"]
        metrics["cli.import_s"]["value"] = statistics.median(imports)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "provenance": {**rec["provenance"], "git_commit": _git_commit(), "src_sha256": _source_digest(),
                       "workload_seed": args.seed, "traced": bool(args.trace)},
        "attempted": rec["attempted"], "failed": rec["failed"], "findings": rec["findings"],
        "end_to_end": e2e, "per_layer": rec.get("per_layer"), "spans": rec.get("spans"),
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for f in rec["findings"]:
        print(f"finding: {f['kind']} {f['index']}: {f['reason']}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
