"""isturm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload forward --seed 0 --seconds 40 --trace 0

Run from the root of a checkout that holds src/isturm.  The load is a closed
loop with one client: this process runs the workload's operations one after
another, in rounds, until the next round would end past --seconds (at least
one round).  With --trace 0 it reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it runs untraced rounds for half of --seconds
(at least one), then one round with every public layer function wrapped
(tracing.py), and reports the per-layer metrics.  Every result is checked (workloads.py); the last line of
standard output is the result object, the line before it records the
environment, the parameters and every sample.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
WEIGHT_WARNING = "weight number cross-check"

SETUP_CODE = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import problems\n"
    "problems.build(sys.argv[3], json.loads(sys.argv[4]), sys.argv[5] or None)\n"
)


def calib_s() -> float:
    """A fixed kernel, timed so that a slow machine can be told from a slow
    commit: a loop of small complex array operations (the forward solver's
    kind of work) and 120 x 120 complex LU factorisations (the main
    equation's), about 0.3 s in all.  A short untimed pass warms the BLAS
    thread pool."""
    import numpy as np
    import scipy.linalg

    def kernel(reps):
        a = np.linspace(0.1, 1.0, 256) + 0.5j
        for _ in range(100 * reps):
            a = np.cos(a) * 0.5 + a * 0.5
        i = np.arange(120.0)
        m = np.add.outer(i % 7, 1j * (i % 5)) + 10 * np.eye(120)
        for _ in range(reps):
            scipy.linalg.lu_factor(m)

    kernel(4)
    t0 = time.perf_counter()
    kernel(160)
    return time.perf_counter() - t0


def blas_record() -> list:
    """Vendor, configuration and effective thread count of every OpenBLAS
    library loaded into this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    libs = sorted({path for path in (line.split()[-1] for line in maps)
                   if "openblas" in os.path.basename(path).lower()})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        rec = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    rec["threads"] = threads()
                    rec["config"] = config().decode()
                    break
            if "threads" in rec:
                break
        out.append(rec)
    return out


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "isturm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "blas": blas_record(),
        "blas_build": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload, params, sd_path) -> list:
    """Wall time of a fresh interpreter that imports isturm and builds the
    workload's problem objects, SETUP_REPS times."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload,
            json.dumps(params), str(sd_path or "")]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_round(ops, tracer=None, tag=""):
    """One pass over the workload's operations.  Every exception is caught
    per operation, so one failure never stops the run."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.op = f"{tag}{op.name}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out, err = op.call(), None
            except Exception as exc:  # noqa: BLE001 - counted, never fatal
                out, err = None, exc
        nwarn = sum(WEIGHT_WARNING in str(w.message) for w in caught)
        results.append({"op": op, "out": out, "err": err, "weight_warnings": nwarn})
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0,
            "results": results}


def check_round(rnd, failures: dict) -> list:
    """Run each result's accuracy check; returns the per-operation checks."""
    checks = []
    for res in rnd["results"]:
        if res["err"] is not None:
            traceback.print_exception(res["err"], file=sys.stderr)
            chk = {"ok": False, "why": f"{type(res['err']).__name__}: {res['err']}",
                   "error_type": type(res["err"]).__name__}
        else:
            try:
                chk = res["op"].check(res["out"])
            except Exception as exc:  # noqa: BLE001 - a check that raises fails the op
                chk = {"ok": False, "why": f"check raised {type(exc).__name__}: {exc}",
                       "error_type": f"check:{type(exc).__name__}"}
        if not chk["ok"]:
            key = chk.get("error_type", "accuracy_gate")
            failures[key] = failures.get(key, 0) + 1
            print(f"FAILED {res['op'].name}: {chk['why']}", file=sys.stderr)
        res.pop("out")
        checks.append(chk)
    rnd["ok"] = all(c["ok"] for c in checks)
    return checks


def blas1_seconds(sd_path) -> float:
    """solve_on_grid for invert-K60's systems in a child with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    got = subprocess.run([sys.executable, str(BENCH / "blas1.py"), str(SRC), str(sd_path),
                          "60", "512"], env=env, capture_output=True, text=True,
                         check=True, timeout=170)
    return float(got.stdout.split()[-1])


def _max(checks, key):
    vals = [c[key] for c in checks if key in c]
    return max(vals) if vals else 0.0


def _abs(value) -> float:
    """|value| for a complex number or its [re, im] JSON form."""
    return abs(complex(*value)) if isinstance(value, list) else abs(value)


def layer_metrics(tracer, traced, checks, untraced_solve_s, blas1_s, calib) -> dict:
    """Per-layer values by metric name (0 where a layer is unused)."""
    summ = tracer.summary()
    m = {}
    for label, agg in summ.items():
        m[f"{label}.calls"] = agg["calls"]
        m[f"{label}.s"] = agg["s"]
        m[f"{label}.self_s"] = agg["self_s"]
    points = tracer.counters.get("forward.char_delta.points", 0.0)
    m["forward.char_delta.points"] = points
    m["forward.char_delta.us_per_point"] = (
        1e6 * summ["forward.char_delta"]["s"] / points if points else 0.0)
    m["forward.weight_warnings"] = sum(r["weight_warnings"] for r in traced["results"])
    m["forward.eig_err_max"] = _max(checks, "eig_err")
    m["forward.alpha_err_max"] = _max(checks, "alpha_err")
    m["regular.bN2_err"] = _max(checks, "bN2_err")
    lu_s = summ["maineq.solve_system"]["s"]
    flops = tracer.counters.get("maineq.solve_system.lu_flops", 0.0)
    m["maineq.lu_gflops_computed"] = flops / lu_s / 1e9 if lu_s else 0.0
    diags = [c["diagnostics"] for c in checks if "diagnostics" in c]
    m["maineq.cond_max"] = max((d["cond_max"] for d in diags), default=0.0)
    m["maineq.solve_on_grid.blas1_s"] = blas1_s
    m["reconstruct.r1_fit_residual"] = max((d["r1_fit_residual"] for d in diags), default=0.0)
    m["reconstruct.r2_fit_residual"] = max((d["r2_fit_residual"] for d in diags), default=0.0)
    m["reconstruct.endpoint_defect"] = max((_abs(d["endpoint_defect"]) for d in diags),
                                           default=0.0)
    m["refine.refine_correction"] = max(
        (max(d["refine_corrections"]) for d in diags if "refine_corrections" in d),
        default=0.0)
    m["sigma_l2_err"] = _max(checks, "sigma_l2_err")
    m["r_coeff_err"] = _max(checks, "r_coeff_err")
    m["q_err"] = _max(checks, "q_err")
    m["error_rate"] = sum(not c["ok"] for c in checks) / len(checks)
    m["trace.solve_s"] = traced["wall"]
    m["trace.overhead_s"] = traced["wall"] - untraced_solve_s
    m["trace.spans"] = len(tracer.spans)
    m["env.calib_s"] = calib
    return m


def measure(args, workdir) -> dict:
    """Set-up samples, the timed rounds and, with --trace 1, the traced round."""
    import oracle
    import problems
    import workloads

    got = {"calib": [calib_s()], "env": environment(args),
           "oracle_self_check_err": oracle.self_check(), "failures": {}}
    got["params"] = params = problems.draw(args.workload, args.seed)
    ops = workloads.prepare(args.workload, params, workdir)
    sd_path = workdir / "spectral_data.json"
    got["setup"] = measure_setup(args.workload, params,
                                 sd_path if sd_path.exists() else None)

    # A traced run spends half its time on untraced rounds, the baseline of
    # trace.overhead_s, and the rest on the traced round.
    window = args.seconds / 2 if args.trace else args.seconds
    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append(run_round(ops))
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(r["wall"] for r in rounds) > window:
            break
    got["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    got["rounds"] = rounds
    got["checks"] = [c for rnd in rounds for c in check_round(rnd, got["failures"])]

    if args.trace:
        from tracing import Tracer
        with Tracer() as tracer:
            traced = run_round(ops, tracer, tag="traced:")
        got["tracer"], got["traced"] = tracer, traced
        got["traced_checks"] = check_round(traced, got["failures"])
        got["blas1_s"] = blas1_seconds(sd_path) if args.workload == "invert-K60" else 0.0
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    got["calib"].append(calib_s())
    return got


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "isturm" / "__init__.py").is_file():
        print(f"error: no isturm sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # The CLI falls back to ISTURM_THREADS when --threads is absent; a value
    # left in the caller's environment would silently change invert-K60.
    os.environ.pop("ISTURM_THREADS", None)
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        got = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds, checks = got["rounds"], got["checks"]
    good = [r for r in rounds if r["ok"]] or rounds
    solve_s = statistics.median(r["wall"] for r in good)
    if args.trace:
        checks = checks + got["traced_checks"]
        values = layer_metrics(got["tracer"], got["traced"], got["traced_checks"], solve_s,
                               got["blas1_s"], statistics.mean(got["calib"]))
        wanted = spec["per_layer"]
    else:
        values = {"solve_s": solve_s, "cpu_s": statistics.median(r["cpu"] for r in good),
                  "setup_s": statistics.median(got["setup"]),
                  "peak_rss_mb": got["peak_rss_mb"]}
        wanted = spec["end_to_end"]

    print(json.dumps({
        "env": got["env"], "params": got["params"],
        "oracle_self_check_err": got["oracle_self_check_err"],
        "env.calib_s": got["calib"], "rounds": len(rounds),
        "round_wall_s": [r["wall"] for r in rounds],
        "round_cpu_s": [r["cpu"] for r in rounds], "setup_s_samples": got["setup"],
        "failures": got["failures"],
        "weight_warnings": sum(res["weight_warnings"] for r in rounds for res in r["results"]),
        "figures": [{k: v for k, v in c.items() if k != "diagnostics"} for c in checks],
    }, default=str))
    failed = sum(not c["ok"] for c in checks)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - a harness fault: report it, print no result
        traceback.print_exc()
        sys.exit(1)
