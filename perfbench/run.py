"""flagf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  ``--smoke`` runs one set-up and one pass (one untraced
and one traced pass with ``--trace 1``) whatever ``--seconds`` says.

The next-to-last stdout line is a JSON record (provenance, sample counts,
failure tally and, when traced, the span table); the last line is the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Plain single-threaded baseline: pin BLAS before numpy is imported anywhere.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FLAGF_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

IMPORT_REPEATS = 9  # subprocess imports of flagf per run; setup_s uses the median
SETUP_REPEATS = 3  # workload set-ups per run; setup_s adds the median
MIN_PASSES = 2  # so that every run compares some pass with pass 1

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import flagf; print(time.perf_counter() - t)"
)


def load_flagf() -> None:
    if not (SRC / "flagf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no flagf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flagf

    if Path(flagf.__file__).resolve().parent != SRC / "flagf":
        raise SystemExit(f"perfbench: imported flagf from {flagf.__file__}, not from {SRC}")


def import_seconds(clock: RefClock, repeats: int) -> list[float]:
    """Times to import flagf (numpy included) in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        ref_before = clock.sample()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(clock.scale(float(out.stdout), ref_before, clock.sample()))
    return times


def setup_seconds(workload, clock: RefClock, repeats: int) -> list[float]:
    """Times of ``repeats`` workload set-ups."""
    times = []
    for _ in range(repeats):
        ref_before = clock.sample()
        t0 = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - t0
        times.append(clock.scale(wall, ref_before, clock.sample()))
    return times


def run_pass(workload, ledger: oracle.Ledger, clock: RefClock) -> tuple[list[float], list[float]]:
    """One pass over the workload's op list: each op's wall time, and the same
    in reference-core seconds."""
    wall, refs = [], []
    for i, op in enumerate(workload.ops):
        refs.append(clock.current())
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
            wall.append(time.perf_counter() - t0)
            digest, problems = workload.check(op, result)
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            wall.append(time.perf_counter() - t0)
            digest, problems = "error", [("malformed", f"op {i} raised {exc!r}")]
        ledger.record(i, digest, problems)
    refs.append(clock.current())
    return wall, [clock.scale(t, refs[i], refs[i + 1]) for i, t in enumerate(wall)]


def untraced_run(workload, ledger, seconds: float, smoke: bool) -> tuple[dict, dict]:
    clock = RefClock()
    setups = setup_seconds(workload, clock, 1 if smoke else SETUP_REPEATS)
    imports = import_seconds(clock, 1 if smoke else IMPORT_REPEATS)

    walls, scaled = [], []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        wall, ref_s = run_pass(workload, ledger, clock)
        walls.append(wall)
        scaled.append(ref_s)
        elapsed = time.perf_counter() - p0
        if smoke or (len(scaled) >= MIN_PASSES and time.perf_counter() - start + elapsed > seconds):
            break

    pass_s = statistics.median(sum(p) for p in scaled)
    per_op = [statistics.median(times) for times in zip(*scaled)]
    values = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "pass_s": pass_s,
        "ops_per_s": len(per_op) / pass_s,
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p99_ms": 1e3 * percentile(per_op, 99),
        "ok_frac": 1.0 - ledger.fail_frac,
        "not_wrong_frac": 1.0 - ledger.wrong_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "passes": len(scaled),
        "op_samples": len(per_op),
        "import_s": imports,
        "setup_samples_s": setups,
        "pass_samples_s": [sum(p) for p in scaled],
        "pass_wall_s": [sum(p) for p in walls],
        "reference": clock.summary(),
    }
    return values, record


def traced_run(workload, ledger, seconds: float, smoke: bool) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup()
        setup_snap = tracer.snapshot()
    finally:
        tracer.remove()

    clock = RefClock()
    untraced, traced = [], []  # pass times; (pass time, snapshot) per traced pass
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        untraced.append(sum(run_pass(workload, ledger, clock)[1]))
        tracer.install()
        try:
            tracer.reset()
            pass_s = sum(run_pass(workload, ledger, clock)[1])
            traced.append((pass_s, tracer.snapshot()))
        finally:
            tracer.remove()
        elapsed = time.perf_counter() - p0
        if smoke or time.perf_counter() - start + elapsed > seconds:
            break

    # Layer numbers: the traced set-up plus the median traced pass.
    traced.sort(key=lambda item: item[0])
    spans, counters = tracing.merge(setup_snap, traced[(len(traced) - 1) // 2][1])
    overhead = statistics.median(t for t, _ in traced) / statistics.median(untraced) - 1.0
    values = layer_values(spans, counters, overhead)
    record = {
        "pass_pairs": len(traced),
        "untraced_pass_s": untraced,
        "traced_pass_s": [t for t, _ in traced],
        "spans": [
            {"parent": parent, "name": name, "calls": c, "total_s": tot, "self_s": own}
            for (parent, name), (c, tot, own) in sorted(spans.items(), key=lambda kv: -kv[1][2])
        ],
        "counters": counters,
    }
    return values, record


def layer_values(spans: dict, counters: dict, overhead: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, from one span table."""
    named = tracing.by_name(spans)
    values: dict = {}
    for metric in load_spec()["per_layer"]:
        name = metric["name"]
        for suffix, column in ((".calls", 0), (".self_s", 2)):
            if name.endswith(suffix):
                values[name] = named.get(name[: -len(suffix)], [0, 0.0, 0.0])[column]
    charsets = named.get("classify.characteristic_set", [0])[0]
    in_charsets = spans.get(("classify.characteristic_set", "classify.ClassEvaluator.residual"), [0])[0]
    values["classify.residual_per_charset"] = in_charsets / charsets if charsets else 0.0
    values["classify.report.computed_bytes"] = counters.get("classify.report.computed_bytes", 0)
    values["report.bytes_written"] = counters.get("report.bytes_written", 0)
    values["trace.overhead_frac"] = overhead
    return values


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "flagf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _command(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "flagf_threads": os.environ.get("FLAGF_THREADS"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "computed_not_measured": ["classify.report.computed_bytes"],
    }


def _command(argv: list[str]) -> str | None:
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _getconf(name: str) -> int | None:
    value = _command(["getconf", name])
    return int(value) if value and value.isdigit() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one set-up and one pass")
    args = parser.parse_args(argv)

    spec = load_spec()
    load_flagf()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ledger = oracle.Ledger()
        run = traced_run if args.trace else untraced_run
        values, record = run(workload, ledger, args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        fail_frac=ledger.fail_frac,
        wrong_frac=ledger.wrong_frac,
        executions=ledger.executions,
        failures_by_kind=ledger.by_kind,
        failure_examples=ledger.examples,
        provenance=provenance(),
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ledger.sound,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
