"""ncparab benchmark: cold runs of one workload, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Closed loop, one client: each sample is one ``ncparab`` command in a fresh
child process (``child.py``), started only after the previous one ended,
with BLAS/OpenMP pinned to one thread. Samples are taken until ``--seconds``
have passed. Every sample's outputs are checked against the committed
reference (``check.py``) and must be byte-identical to the first sample's,
since all samples of a run share the seed.

With ``--trace 0`` the end-to-end metrics are reported: medians over the
samples of ``wall_s`` (the ``cli.main`` call, i.e. time to a verified
result), ``setup_s`` (child start until ``ncparab.cli`` is imported and the
config loaded) and ``peak_rss_mb`` (the child's ``ru_maxrss``). With
``--trace 1`` untraced and traced samples alternate; the per-layer metrics
are medians over the traced ones (spans.py), and ``trace.overhead_s`` is
the traced minus the untraced median wall time. ``--workload all`` runs
every workload both ways.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric's quartiles and sample count, the fail ratio, the output check and a
``record`` line with the seed and the machine the numbers come from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_outputs, read_csv
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench_run"
PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
# No new sample starts after this many seconds, so a run ends within 180 s.
LAST_START_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "problem.validate_s": "s",
    "problem.factorize_s": "s",
    "meshing.build_mesh_s": "s",
    "meshing.nodes": "count",
    "assembly.assemble_forms_s": "s",
    "assembly.N": "count",
    "assembly.nnz_k_plus": "count",
    "assembly.load_calls": "count",
    "assembly.load_s": "s",
    "assembly.dual_norm_calls": "count",
    "assembly.dual_norm_s": "s",
    "assembly.total_s": "s",
    "spectral.eigenbasis_s": "s",
    "spectral.eigenbasis_calls": "count",
    "spectral.k": "count",
    "spectral.eig_residual_max": "ratio",
    "spectral.ortho_residual_max": "ratio",
    "integrator.build_system_s": "s",
    "integrator.evolve_s": "s",
    "integrator.evolve_self_s": "s",
    "integrator.steps": "count",
    "integrator.energy_identity_s": "s",
    "estimates.checks_s": "s",
    "estimates.cauchy_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Times of spans that some workload never enters (``convergence`` validates
# and checks nothing; only a source needs loads and dual norms) read exactly
# 0 there on every run. They are printed but left out of the JSON result,
# which holds measured values only; assembly.total_s carries the load path.
PRINTED_ONLY = {
    "problem.validate_s",
    "assembly.load_s",
    "assembly.dual_norm_s",
    "integrator.energy_identity_s",
    "estimates.checks_s",
    "estimates.cauchy_s",
}
# A traced sample fails if its eigenbasis is worse than this: a wrong
# eigenpair shows here even where it moves no checked output.
EIG_RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-9


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PIN)
    return env


def run_child(workload, config: Path, out_dir: Path, seed: int, traced: bool, work: Path):
    """One cold command; returns (record or None, stderr text)."""
    result = work / "child.json"
    result.unlink(missing_ok=True)
    argv = [
        workload.command, "--config", str(config), "--out", str(out_dir),
        "--seed", str(seed), *workload.extra_args,
    ]
    cmd = [
        sys.executable, str(HERE / "child.py"), "run", str(SRC), repr(time.monotonic()),
        str(result), "1" if traced else "0", str(config), "--", *argv,
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.is_file():
        return None, proc.stderr.strip()[-2000:]
    return json.loads(result.read_text()), proc.stderr


def environment() -> dict:
    """The machine and library versions; also warms byte-code and file cache."""
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "env", str(SRC)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout)


def _digest(out_dir: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = out_dir / name
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _line(name: str, unit: str, s: dict) -> str:
    return f"  {name:<30} {s['median']:<14.6g} {unit:<6} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"


def _layer_problems(record: dict) -> list[str]:
    m = record["metrics"]
    problems = []
    if m["spectral.eig_residual_max"] > EIG_RESIDUAL_TOL:
        problems.append(f"eigenpair residual {m['spectral.eig_residual_max']:.3e}")
    if m["spectral.ortho_residual_max"] > ORTHO_TOL:
        problems.append(f"orthogonality residual {m['spectral.ortho_residual_max']:.3e}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str, env: dict) -> dict:
    workload = WORKLOADS[name]
    ref_dir = REFERENCE / size / name
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        config = work / "run.cfg"
        config.write_text(workload.config_text(size))
        out_dir = work / "out"
        samples = []  # (traced, record or None, problems)
        first_digest = None
        headline = {}
        durations = []
        start = time.monotonic()
        while True:
            traced = trace and len(samples) % 2 == 1
            began = time.monotonic()
            record, stderr = run_child(workload, config, out_dir, seed, traced, work)
            durations.append(time.monotonic() - began)
            problems = []
            if record is None:
                problems.append(f"child failed: {stderr}")
            else:
                if record["rc"] != 0:
                    problems.append(f"ncparab exit code {record['rc']}: {stderr.strip()[-500:]}")
                problems += check_outputs(str(out_dir), str(ref_dir), workload.outputs)
                digest = _digest(out_dir, workload.outputs)
                if first_digest is None:
                    first_digest = digest
                    headline = _headline(out_dir)
                elif digest != first_digest:
                    problems.append("outputs are not byte-identical to the first sample's")
                if traced:
                    problems += _layer_problems(record)
            samples.append((traced, record, problems))
            shutil.rmtree(out_dir, ignore_errors=True)
            # Start another sample only if it is expected to end nearer to
            # the deadline than not, so runs last about --seconds.
            elapsed = time.monotonic() - start
            expected_end = elapsed + statistics.median(durations) / 2
            have_both = not trace or len(samples) >= 2
            if (expected_end >= seconds and have_both) or elapsed >= LAST_START_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _summarize(name, seed, size, trace, env, samples, headline)


def _headline(out_dir: Path) -> dict:
    """Deterministic accuracy figures worth printing beside the timings."""
    path = out_dir / "convergence.csv"
    if not path.is_file():
        return {}
    header, rows = read_csv(str(path))
    last = rows[-1]
    return {
        "l2_error": float(last[header.index("error")]),
        "observed_orders": [float(r[header.index("observed_order")]) for r in rows[1:]],
    }


def _summarize(name, seed, size, trace, env, samples, headline) -> dict:
    attempted = len(samples)
    failed = sum(1 for _, _, problems in samples if problems)
    plain = [r for t, r, _ in samples if r is not None and not t]
    traced = [r for t, r, _ in samples if r is not None and t]
    if not plain or (trace and not traced):
        for _, _, problems in samples:
            for p in problems:
                print(f"  FAIL {p}", file=sys.stderr)
        raise SystemExit(f"{name}: no sample produced timings")

    stats = {}
    if not trace:
        for metric, unit in END_TO_END.items():
            stats[metric] = (unit, _stats([r[metric] for r in plain]))
    else:
        for metric, unit in PER_LAYER.items():
            if metric == "trace.overhead_s":
                continue
            stats[metric] = (unit, _stats([r["metrics"][metric] for r in traced]))
        overhead = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)
        )
        stats["trace.overhead_s"] = ("s", _stats([overhead]))

    print(f"workload {name}  seed {seed}  size {size}  trace {int(trace)}  samples {attempted}")
    for metric, (unit, s) in stats.items():
        print(_line(metric, unit, s))
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    for key, value in headline.items():
        print(f"  {key} {value}")
    problems = [p for _, _, ps in samples for p in ps]
    print("  output check: " + ("pass" if not problems else "FAIL"))
    for p in problems[:10]:
        print(f"    {p}")
    record = {
        "workload": name, "seed": seed, "size": size, "trace": int(trace),
        "environment": env, "fail_ratio": failed / attempted, **headline,
        "metrics": {m: {"unit": u, **s} for m, (u, s) in stats.items()},
    }
    if traced:
        record["per_call"] = traced[0]["per_call"]
    print("  record " + json.dumps(record))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m: {"value": s["median"], "unit": u}
            for m, (u, s) in stats.items()
            if m not in PRINTED_ONLY
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny shrinks every workload (smoke test only)")
    args = parser.parse_args(argv)

    if not (SRC / "ncparab" / "cli.py").is_file():
        print(f"no ncparab sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size, env)
    else:
        parts = {
            (name, trace): run_workload(name, args.seed, args.seconds, trace, args.size, env)
            for name in WORKLOADS
            for trace in (False, True)
        }
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {
                f"{name}/{metric}": value
                for (name, _), p in parts.items()
                for metric, value in p["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
