"""macgame benchmark: one command for the cli, oracle and dynamics workloads.

    python3 perfbench/run.py --workload {cli,oracle,dynamics} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the workload runs untraced in a closed loop with one client
for at least S seconds, every answer is checked, and the end-to-end
metrics are printed. With --trace 1 a traced pass of every workload gives
the per-layer metrics. Either way the last line of standard output is one
JSON object, and a record of the run goes to perfbench/out/.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; CLI subprocesses inherit it.
# With the default pool, PayoffTable.payoffs at m=4, n=31 sometimes ran at
# ~8 ms/call for its first ~100 calls instead of 0.3-0.5 ms.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("cli", "oracle", "dynamics")
# module self time is reported for the modules each workload reaches; `bench`
# is the oracle loop's own time inside its timed passes
SELF_MODULES = {
    "cli": ("cli", "scenario", "capacity", "game", "selection", "evolution", "dynamics"),
    "oracle": ("capacity", "game", "selection", "evolution", "bench"),
    "dynamics": ("dynamics", "evolution", "capacity", "game"),
}


def import_program():
    """Import macgame from this checkout's src/, or exit non-zero without a result."""
    if not os.path.isfile(os.path.join(SRC, "macgame", "__init__.py")):
        sys.exit(f"error: no macgame sources under {SRC}; run from a checkout's root")
    sys.path.insert(0, SRC)
    import macgame
    if not os.path.abspath(macgame.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported macgame from {macgame.__file__}, not {SRC}")
    # the interpreters the benchmark starts import the same sources
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return macgame


def environment(macgame) -> dict:
    import numpy
    import scipy
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "macgame": macgame.__version__,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def setup_seconds(workload: str, seed: int, clock) -> list:
    """Fresh interpreters that import macgame and build this workload's inputs."""
    argv = [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed)]
    return [clock.time(subprocess.run, argv, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)[1]
            for _ in range(SETUP_REPEATS)]


def import_times() -> dict:
    """Cumulative import time of macgame and of scipy.optimize, from -X importtime."""
    found = {"macgame": [], "scipy.optimize": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import macgame"],
                              capture_output=True, text=True, check=True, timeout=120)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) * 1e-6)
    return {k: statistics.median(v) if v else 0.0 for k, v in found.items()}


def measure(wl, seconds: float, ledger, clock) -> list:
    """Closed loop, one client: whole passes until `seconds` have elapsed."""
    start = perf_counter()
    passes = []
    while True:
        passes.append(wl.run_pass(ledger, clock))
        if perf_counter() - start >= seconds:
            return passes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, workdir, ledger, record):
    from workloads import WORKLOADS, Clock
    setup_clock, clock = Clock(), Clock()
    setups = setup_seconds(workload, seed, setup_clock)
    wl = WORKLOADS[workload](seed, workdir)
    passes = measure(wl, seconds, ledger, clock)
    wl.final_checks(ledger)
    parts, named = wl.summarise(passes)
    record["passes"] = passes
    record["setup_samples_s"] = setups
    record["setup_raw"] = setup_clock.raw
    record["samples_raw"] = clock.raw
    walls = [w for w, _ in clock.raw]
    named["raw_wall_s"] = (sum(walls), "s")
    named["cpu_speed_scale_median"] = (statistics.median(sc for _, sc in clock.raw), "ratio")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload == "cli"), "MB"),
        "pass_s": (parts["total"], "s"),
        "part_a_s": (parts["a"], "s"),
        "part_b_s": (parts["b"], "s"),
        "part_c_s": (parts["c"], "s"),
    }
    named["passes"] = (len(passes), "count")
    record["known_defect"] = getattr(wl, "probe_error", None)
    if record["known_defect"]:
        print(f"# known defect, not counted in failed: efficiency_metrics m=8 probe channel: "
              f"{record['known_defect']}")
    return metrics, named


def per_layer(seed, workdir, ledger, record):
    """One untraced and one traced pass of every workload, so each traced run
    reports the whole per-layer set."""
    from tracing import Tracer
    from workloads import Cli, Dynamics, Oracle

    def new_tracer():
        t = Tracer()
        t.install()
        return t

    imports = import_times()
    m = {"macgame.import_s": (imports["macgame"], "s"),
         "macgame.import_scipy_s": (imports["scipy.optimize"], "s")}
    tracers = {}
    wls = {"cli": Cli(seed, workdir), "oracle": Oracle(seed, workdir),
           "dynamics": Dynamics(seed, workdir)}
    for name, wl in wls.items():
        tr, untraced, traced = wl.traced(ledger, new_tracer)
        tracers[name] = tr
        m[f"trace.overhead_ratio.{name}"] = (traced / untraced, "ratio")
    wls["dynamics"].final_checks(ledger)

    c, o, d = tracers["cli"]["cli"], tracers["oracle"]["oracle"], tracers["dynamics"]
    us, ms = 1e6, 1e3
    m["scenario.parse_us"] = (c.median("scenario.parse_scenario", scale=us), "us")
    for tag in (3, 16):
        for fn in ("capacity.is_feasible", "capacity.max_face_residual",
                   "game.best_response", "game.is_nash"):
            m[f"{fn}_us.m{tag}"] = (o.median(fn, tag, scale=us), "us")
    calls = [s for t in [o, c] + list(d.values()) for s in t.spans
             if s[0] == "capacity.feasible_rows" and s[2]]
    for mm in (3, 12):
        rows = sum(s[2][1] for s in calls if s[2][0] == mm)
        secs = sum(s[4] - s[3] for s in calls if s[2][0] == mm)
        m[f"capacity.feasible_rows_rows_per_s.m{mm}"] = (rows / secs if secs else 0.0, "rows/s")
    for key, t in d.items():
        rows = sum(s[2][1] for s in t.spans if s[0] == "capacity.feasible_rows" and s[2])
        m[f"capacity.feasible_rows_rows.{key}"] = (rows, "count")
    m["game.is_strong_equilibrium_s.m4"] = (o.total("game.is_strong_equilibrium", 4), "s")
    m["game.is_pareto_optimal_s.m4"] = (o.total("game.is_pareto_optimal", 4), "s")
    m["game.efficiency_metrics_ms.m8"] = (o.median("game.efficiency_metrics", 8, scale=ms), "ms")
    m["selection.normalized_equilibrium_us.m3"] = (
        o.median("selection.normalized_equilibrium", 3, scale=us), "us")
    m["selection.goodman_certificate_us.m3"] = (
        o.median("selection.goodman_certificate", 3, scale=us), "us")
    m["evolution.ess_check_ms.m3"] = (o.median("evolution.ess_check", 3, scale=ms), "ms")
    m["evolution.replace_masses_us.n51"] = (
        d["m2"].median("evolution.PopulationState.replace_masses", 51, scale=us), "us")
    for key, kind in (("m2", "bnn"), ("mc", "replicator"), ("m4", "smith")):
        m[f"dynamics.flow_us.{kind}"] = (d[key].median("dynamics._flow", kind, scale=us), "us")
    m["dynamics.euler_update_us.n51"] = (d["m2"].median("dynamics.euler_update", 51, scale=us), "us")
    m["dynamics.payoff_table_build_s.m4n31"] = (
        d["m4"].median("dynamics.PayoffTable.__init__", (4, 31)), "s")
    m["dynamics.payoff_eval_us.m2n51"] = (
        d["m2"].median("dynamics.PayoffTable.payoffs", (2, 51), scale=us), "us")
    m["dynamics.payoff_eval_us.m4n31"] = (
        d["m4"].median("dynamics.PayoffTable.payoffs", (4, 31), scale=us), "us")
    m["evolution.expected_payoff_mc_ms.m3"] = (
        d["mc"].median("evolution.expected_payoff_mc", 3, scale=ms, working=True), "ms")
    for key, t in d.items():
        share, base = t.share_under("dynamics.simulate", "dynamics._payoff_vector")
        m[f"dynamics.payoff_share.{key}"] = (share, "ratio")
        m[f"dynamics.simulate_s.{key}"] = (base, "s")
    m["cli.write_trace_ms"] = (c.median("cli._write_trace", scale=ms), "ms")
    m["cli.write_state_ms"] = (c.median("cli._write_state", scale=ms), "ms")
    m["cli.csv_bytes"] = (wls["cli"].csv_bytes, "bytes")
    for name, mods in SELF_MODULES.items():
        own = {}
        for t in tracers[name].values():
            for mod, secs in t.module_self_s().items():
                own[mod] = own.get(mod, 0.0) + secs
        for mod in mods:
            m[f"{mod}.self_s.{name}"] = (own.get(mod, 0.0), "s")
        record.setdefault("self_s", {})[name] = own

    path = os.path.join(OUT, f"spans-seed{seed}.csv.gz")
    mode = "wt"
    for name, trs in tracers.items():
        for key, t in trs.items():
            t.write(path, f"{name}.{key}", mode)
            mode = "at"
    record["spans_file"] = os.path.relpath(path, ROOT)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    macgame = import_program()
    sys.path.insert(0, HERE)
    from workloads import Ledger

    os.makedirs(OUT, exist_ok=True)
    env = environment(macgame)
    # one CPU for the benchmark and the processes it starts, so the
    # calibration kernel runs where the timed work ran
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    ledger = Ledger()
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if args.trace:
            metrics, named = per_layer(args.seed, workdir, ledger, record), {}
        else:
            metrics, named = end_to_end(args.workload, args.seed, args.seconds, workdir,
                                        ledger, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # fail_ratio also counts the known defect's probe call (workloads.json);
    # `failed` counts only the workload's own operations, which must not fail
    probes = int(bool(record.get("known_defect")))
    fail_ratio = (ledger.failed + probes) / (ledger.attempted + probes)
    named["fail_ratio"] = (fail_ratio, "ratio")
    title = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"# {args.workload} seed={args.seed} {title}; closed loop, one client")
    for name, (value, unit) in list(metrics.items()) + list(named.items()):
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"attempted {ledger.attempted}, failed {ledger.failed}, wrong {ledger.wrong}")
    for note in ledger.notes:
        print(f"  failure: {note}")
    record.update(metrics=metrics, named=named, attempted=ledger.attempted, failed=ledger.failed, wrong=ledger.wrong,
                  failures=ledger.notes)
    out = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    result = {"correct": ledger.wrong == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
