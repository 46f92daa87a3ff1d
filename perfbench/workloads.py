"""The three workloads: timed passes, answer checks and traced passes.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. A pass is one run through the
workload's fixed operation set, timed in short samples; `run.py` repeats
passes for the measured time and reports medians over them.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import inputs
from reference import Region

from macgame import capacity as cap
from macgame import cli, dynamics as dyn, evolution as evo, game, selection as sel

G = game.Utility.identity()
G_LOG = game.Utility.log1p()
CALL_TIMEOUT_S = 150
BAND_CHUNK = {"small": 100, "large": 4}   # channels per timed sample

# Calibration. Co-tenants on a small shared host change the CPU's speed by
# up to 2x over seconds to minutes, which moved medians of plain wall time
# by 20-30 % between runs. Each timed sample is therefore bracketed by a
# fixed kernel, and the sample's wall time is scaled by the kernel's
# reference time per unit / (its mean time just before and just after the
# sample): seconds at a steady reference speed. Raw wall times stay in the
# run record. Work on arrays that outgrow the caches slows less than
# interpreter-bound work when the CPU slows, so there are two kernels:
# INTERP (small-array numpy calls in a Python loop, bitmask subset sums by
# concatenation, a sort of a mid-size array) for most samples, and MEMORY
# (passes over a 16 MB array) for the samples dominated by multi-megabyte
# row blocks: the lattice verdicts, the m=4 payoff table and Monte Carlo.
# In 39-126 interleaved repeats on the reference host, the log of each kind
# of sample's time over its own kernel's varied 16-31 % less than over the
# other kernel's.
CAL_SHARE = 0.25      # kernel time after a sample, as a share of the sample
CAL_MIN_S = 0.05      # shorter kernel runs are dominated by millisecond jitter
_CAL_SMALL = np.linspace(0.0, 1.0, 64)
_CAL_LARGE = np.linspace(0.0, 1.0, 50_000)
_CAL_ROWS = np.linspace(0.0, 1.0, 6_000).reshape(1_000, 6)


def calibration_unit() -> float:
    acc = 0.0
    for i in range(300):
        acc += float(np.maximum(_CAL_SMALL * 1.0001 - 0.3, 0.0).sum()) + math.log1p(i)
    sums = np.zeros((_CAL_ROWS.shape[0], 1))
    for j in range(_CAL_ROWS.shape[1]):
        sums = np.concatenate([sums, sums + _CAL_ROWS[:, j:j + 1]], axis=1)
    return acc + float((sums <= 2.0).sum()) + float(np.sort(_CAL_LARGE * 1.5)[::7].sum())


def memory_unit() -> float:
    # allocated per unit, so the benchmark's own resident set stays below
    # the program's peak and peak_rss_mb measures the program
    big = np.linspace(0.0, 1.0, 2_000_000)
    big *= 1.0001
    return float(np.cumsum(big[::3])[-1]) + float((big < 0.5).sum())


class Kernel:
    """A calibration kernel and its time per unit on a quiet CPU of the
    2-CPU reference host."""

    def __init__(self, unit, unit_s):
        self.unit, self.unit_s = unit, unit_s
        self.warm = False

    def seconds(self, wall=0.0) -> float:
        """Mean time of one unit over a run of CAL_SHARE * wall (at least CAL_MIN_S)."""
        if not self.warm:
            self.warm = True
            self.seconds()
        units = max(1, round(max(CAL_MIN_S, CAL_SHARE * wall) / self.unit_s))
        t0 = perf_counter()
        for _ in range(units):
            self.unit()
        return (perf_counter() - t0) / units


INTERP = Kernel(calibration_unit, 0.002)
MEMORY = Kernel(memory_unit, 0.008)


class Clock:
    """Times samples; with `calibrate` each is rescaled by the CPU speed around it."""

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.raw = []        # (wall, scale) per sample
        self._before = None  # (kernel, its time per unit after the last sample)

    def time(self, fn, *args, kernel=INTERP, **kwargs):
        """(fn's result, scaled seconds); the wall time goes to `raw`."""
        if self.calibrate and (self._before is None or self._before[0] is not kernel):
            self._before = (kernel, kernel.seconds())
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        wall = perf_counter() - t0
        scale = 1.0
        if self.calibrate:
            after = kernel.seconds(wall)
            scale = kernel.unit_s / (0.5 * (self._before[1] + after))
            self._before = (kernel, after)
        self.raw.append((wall, scale))
        return out, wall * scale


class Ledger:
    """Operations attempted, failed (wrong, raised or bad exit) and wrong."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def record(self, error=None, wrong=True):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.wrong += bool(wrong)
            if len(self.notes) < 20:
                self.notes.append(error)


def medians(passes):
    """Per-part median over passes; `total` is the pass time."""
    keys = passes[0].keys()
    out = {k: statistics.median(p[k] for p in passes) for k in keys}
    if "total" not in out:
        out["total"] = statistics.median(sum(p.values()) for p in passes)
    return out


def close(x, ref, rel=1e-9):
    return abs(x - ref) <= rel * max(1.0, abs(ref))


# -- oracle ----------------------------------------------------------------

class Oracle:
    """Region and verdict queries in process, small and large size bands."""

    def __init__(self, seed, workdir):
        self.inp = inputs.oracle_inputs(seed)
        for ch in self.inp["small"] + self.inp["large"]:
            ref = Region(ch.snr)
            ch.ref_total = ref.total
            ch.ref = [ref.analyse(p) for _kind, p, _u in ch.profiles]
            ch.ref_batch = ref.feasible_rows(ch.batch)
        self.queries = {band: sum(2 + 4 * len(ch.profiles) for ch in self.inp[band])
                        for band in ("small", "large")}
        self.norm_ref = Region(self.inp["norm_snr"])
        self.eff_totals = [Region(s).total for s in self.inp["eff_snrs"]]
        self.probe_error = None   # the probe channel's 'face sampling failed' message

    @staticmethod
    def _band(channels):
        out = []
        for ch in channels:
            view = cap.build_view(cap.ChannelModel(ch.snr))
            res = [view.total]
            for _kind, p, user in ch.profiles:
                res.append(cap.is_feasible(view, p))
                res.append(cap.max_face_residual(view, p))
                try:
                    res.append(game.best_response(view, G, user, np.delete(p, user)))
                except ValueError:
                    res.append(None)
                res.append(game.is_nash(view, G, p))
            res.append(cap.feasible_rows(view, ch.batch))
            out.append(res)
        return out

    @staticmethod
    def _check_band(channels, answers, ledger):
        for ch, res in zip(channels, answers):
            m = ch.snr.size
            ledger.record(None if close(res[0], ch.ref_total) else f"m={m} total {res[0]}")
            for j, ((kind, _p, user), ref) in enumerate(zip(ch.profiles, ch.ref)):
                feas, resid, br, nash = res[1 + 4 * j: 5 + 4 * j]
                where = f"m={m} {kind} profile"
                ledger.record(None if feas == ref["feasible"] else f"{where}: is_feasible {feas}")
                ok = resid == 0.0 if ref["residual"] == 0.0 else close(resid, ref["residual"])
                ledger.record(None if ok else f"{where}: residual {resid} vs {ref['residual']}")
                rb = ref["br"][user]
                ok = br is None if rb is None else (br is not None and close(br, rb))
                ledger.record(None if ok else f"{where}: best_response {br} vs {rb}")
                ledger.record(None if nash == ref["nash"] else f"{where}: is_nash {nash}")
            ok = np.array_equal(res[-1], ch.ref_batch)
            ledger.record(None if ok else f"m={m}: feasible_rows disagrees")

    def _verdict_samples(self):
        """Timed samples of the verdict set, each a kernel and a list of (key, call)."""
        inp = self.inp

        def view(snr):
            return cap.build_view(cap.ChannelModel(snr))

        def ess(share):
            v = view(inp["ess_snr"])
            return evo.ess_check(v, G, evo.EssTestSpec(resident=share * v.total / 3))

        def normalized():
            v = view(inp["norm_snr"])
            ne = sel.normalized_equilibrium(v, sel.NormalizedEqConfig(g=G_LOG))
            return ne, sel.goodman_certificate(v, G_LOG, ne.profile * (1.0 - 1e-3), ne.multipliers)

        def efficiency(snr):
            try:
                return game.efficiency_metrics(view(snr), G, seed=inp["eff_seed"])
            except RuntimeError as exc:   # sample_max_face: 'face sampling failed'
                return exc

        face = inp["face4"]
        return [
            (MEMORY, [("strong", lambda: game.is_strong_equilibrium(view(inp["snr4"]), G, face))]),
            (MEMORY, [("pareto", lambda: game.is_pareto_optimal(view(inp["snr4"]), G, face))]),
            (INTERP, [("ess", functools.partial(ess, 1.0)), ("ess", functools.partial(ess, 0.9)),
                      ("normalized", normalized)]
             + [("eff", functools.partial(efficiency, snr)) for snr in inp["eff_snrs"]]),
        ]

    def _check_verdicts(self, out, ledger):
        for name in ("strong", "pareto"):
            ledger.record(None if out[name] == [True] else f"{name} m=4 face: {out[name]}")
        good, bad = out["ess"]
        ledger.record(None if good.is_ess else "ess_check: equal split not an ESS")
        ledger.record(None if (not bad.is_ess and bad.witness) else "ess_check: 0.9x split not invaded")
        (ne, cert), = out["normalized"]
        on_face = self.norm_ref.analyse(ne.profile)["residual"] == 0.0
        ok = on_face and ne.kkt_residual < 1e-8
        ledger.record(None if ok else f"normalized_equilibrium off face or kkt {ne.kkt_residual}")
        ledger.record(None if cert.negative_definite else "goodman not negative definite")
        for total, res in zip(self.eff_totals, out["eff"]):
            self._check_efficiency(total, res, ledger)

    @staticmethod
    def _check_efficiency(total, res, ledger):
        if isinstance(res, Exception):
            ledger.record(f"efficiency_metrics m=8 raised: {res}", wrong=False)
            return
        ok = (abs(res["spoa"] - 1) < 1e-6 and abs(res["pos"] - 1) < 1e-6
              and close(res["social_opt"], total))
        ledger.record(None if ok else f"efficiency_metrics m=8: {res}")

    def run_pass(self, ledger, clock, tracer=None):
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        parts = dict.fromkeys("abc", 0.0)
        results = {"small": [], "large": []}
        for part, band in (("a", "small"), ("b", "large")):
            channels, step = self.inp[band], BAND_CHUNK[band]
            with span(f"band.{band}"):
                for i in range(0, len(channels), step):
                    res, secs = clock.time(self._band, channels[i:i + step])
                    results[band] += res
                    parts[part] += secs
        verdicts = {}
        with span("verdicts"):
            for kernel, sample in self._verdict_samples():
                res, secs = clock.time(lambda: [(key, op()) for key, op in sample], kernel=kernel)
                for key, value in res:
                    verdicts.setdefault(key, []).append(value)
                parts["c"] += secs
        for band in ("small", "large"):
            self._check_band(self.inp[band], results[band], ledger)
        self._check_verdicts(verdicts, ledger)
        return parts

    def summarise(self, passes):
        parts = medians(passes)
        return parts, {"oracle_small_qps": (self.queries["small"] / parts["a"], "1/s"),
                       "oracle_large_qps": (self.queries["large"] / parts["b"], "1/s"),
                       "verdict_s": (parts["c"], "s"),
                       "known_defect.eff_probe_raises":
                           (float(self.probe_error is not None), "count")}

    def traced(self, ledger, new_tracer):
        untraced = sum(self.run_pass(ledger, Clock(calibrate=False)).values())
        tracer = new_tracer()
        traced = sum(self.run_pass(ledger, Clock(calibrate=False), tracer).values())
        tracer.restore()
        return {"oracle": tracer}, untraced, traced

    def final_checks(self, ledger):
        """Grid verdicts on the interior profile, untimed: they stop at the first
        witness, and how soon depends on the seeded profile."""
        view = cap.build_view(cap.ChannelModel(self.inp["snr4"]))
        interior = self.inp["interior4"]
        for name, fn in (("strong", game.is_strong_equilibrium), ("pareto", game.is_pareto_optimal)):
            got = fn(view, G, interior)
            ledger.record(None if got is False else f"{name} m=4 interior: {got}")
        # The known face-sampling defect on the probe channel is reported, not
        # counted; once efficiency_metrics answers there, its answer is checked.
        snr = self.inp["eff_probe"]
        try:
            res = game.efficiency_metrics(cap.build_view(cap.ChannelModel(snr)), G,
                                          seed=self.inp["eff_seed"])
        except RuntimeError as exc:
            self.probe_error = str(exc)
        else:
            self._check_efficiency(Region(snr).total, res, ledger)


# -- dynamics --------------------------------------------------------------

JOBS = ("m2", "m4", "mc")
KERNELS = {"m2": INTERP, "m4": MEMORY, "mc": MEMORY}
# m4 runs twice a pass: its one long numpy-bound sample varied most between runs
PASS_JOBS = (("a", "m2"), ("b", "m4"), ("b", "m4"), ("c", "mc"))


class Dynamics:
    """In-process `simulate` in three jobs: bookkeeping, payoff table, Monte Carlo."""

    def __init__(self, seed, workdir):
        self.jobs = inputs.dynamics_inputs(seed)
        self.first = {}

    def run_job(self, key):
        job = self.jobs[key]
        try:
            return dyn.simulate(job["view"], job["g"], job["run"])
        except (ValueError, RuntimeError) as exc:
            return exc

    def _job(self, key, clock, ledger):
        """Time one simulate, check its trace, return its seconds."""
        trace, secs = clock.time(self.run_job, key, kernel=KERNELS[key])
        if isinstance(trace, Exception):
            ledger.record(f"simulate {key} raised: {trace}", wrong=False)
        else:
            ledger.record(self._check_trace(key, trace))
        return secs

    def run_pass(self, ledger, clock):
        parts = dict.fromkeys("abc", 0.0)
        for part, key in PASS_JOBS:
            parts[part] += self._job(key, clock, ledger)
        return parts

    def _check_trace(self, key, trace):
        run = self.jobs[key]["run"]
        masses = trace.final_state.masses
        if key not in self.first:
            self.first[key] = trace
            rows = run.steps // run.record_every + 1 + (run.steps % run.record_every != 0)
            if trace.t.size != rows:
                return f"{key}: {trace.t.size} trace rows, expected {rows}"
            if not trace.max_drift < 1e-9:
                return f"{key}: mass drift {trace.max_drift}"
            if masses.min() < 0 or abs(masses.sum() - 1.0) > 1e-9:
                return f"{key}: final state off the simplex"
            return None
        if not np.array_equal(masses, self.first[key].final_state.masses):
            return f"{key}: same inputs gave a different final state"
        return None

    def final_checks(self, ledger):
        """Payoffs at the final states against exact itertools enumeration."""
        for key in ("m2", "m4"):
            if key not in self.first:
                continue
            job = self.jobs[key]
            state = self.first[key].final_state
            ref = Region(job["view"].model.snr)
            F = dyn.PayoffTable(job["view"], job["g"], state.grid).payoffs(state.masses)
            bad = [i for i in np.linspace(0, state.n - 1, 5).astype(int)
                   if not abs(F[i] - ref.exact_payoff(state.grid[i], state.grid, state.masses))
                   <= 1e-12 + 1e-9 * abs(F[i])]
            ledger.record(f"{key}: exact payoff differs at grid points {bad}" if bad else None)
        if "mc" in self.first:
            job = self.jobs["mc"]
            state = self.first["mc"].final_state
            ref = Region(job["view"].model.snr)
            misses = []
            for i in range(1, 6):
                a = float(state.grid[i])
                val, se = evo.expected_payoff_mc(
                    job["view"], job["g"], a, state, samples=inputs.MC_SAMPLES,
                    seed=np.random.SeedSequence(job["run"].seed, spawn_key=(99, i)))
                exact = ref.exact_payoff(a, state.grid, state.masses)
                if abs(val - exact) > 3.0 * se and abs(val - exact) > 1e-12:
                    misses.append((i, val, exact, se))
            # one point in five may fall outside 3 standard errors by chance
            ledger.record(f"mc: outside 3 standard errors at {misses}" if len(misses) > 1 else None)

    def summarise(self, passes):
        parts = medians(passes)
        steps = {}
        for part, key in PASS_JOBS:
            steps[part] = steps.get(part, 0) + self.jobs[key]["run"].steps
        return parts, {f"dyn_{key}_steps_per_s": (steps[p] / parts[p], "1/s")
                       for p, key in zip("abc", JOBS)}

    def traced(self, ledger, new_tracer):
        clock = Clock(calibrate=False)
        untraced = sum(self._job(key, clock, ledger) for key in JOBS)
        tracers, traced = {}, 0.0
        for key in JOBS:
            tracers[key] = new_tracer()
            traced += self._job(key, clock, ledger)
            tracers[key].restore()
        return tracers, untraced, traced


# -- cli -------------------------------------------------------------------

class Cli:
    """A fixed battery of fresh `python -m macgame` calls, one after another."""

    def __init__(self, seed, workdir):
        inp = inputs.cli_inputs(seed)
        self.workdir = workdir
        self.files, self.refs = {}, {}
        for sc in inp["scenarios"]:
            path = os.path.join(workdir, f"{sc.name}.cfg")
            with open(path, "w") as fh:
                fh.write(sc.text + f"trace_csv = {workdir}/{sc.name}_trace.csv\n"
                         f"state_csv = {workdir}/{sc.name}_state.csv\n")
            self.files[sc.name] = path
            self.refs[sc.name] = Region(sc.snr)
        self.calls = inp["calls"]
        self.csv_bytes = 0

    def argv(self, sc, args):
        return ["-s", self.files[sc.name]] + args

    def _call(self, argv):
        try:
            return subprocess.run([sys.executable, "-m", "macgame"] + argv,
                                  capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None

    def run_pass(self, ledger, clock):
        secs = {"startup": [], "verify": [], "dynamics": []}
        for sc, args, kind, detail in self.calls:
            proc, took = clock.time(self._call, self.argv(sc, args))
            secs[kind].append(took)
            if proc is None:
                ledger.record(f"{sc.name} {args}: timed out", wrong=False)
            else:
                ledger.record(self.check(sc, args, detail, proc.returncode, proc.stdout),
                              wrong=proc.returncode in (0, 1))
        return {"total": sum(map(sum, secs.values())), "startup": secs["startup"],
                "a": statistics.median(secs["startup"]),
                "b": sum(secs["verify"]), "c": sum(secs["dynamics"])}

    def replay(self, ledger):
        """The same battery in process through cli.main(argv); returns its wall time."""
        t_pass = perf_counter()
        for sc, args, _kind, detail in self.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(self.argv(sc, args))
            ledger.record(self.check(sc, args, detail, rc, out.getvalue()))
        return perf_counter() - t_pass

    def check(self, sc, args, detail, rc, out):
        """None when the printed answer matches the closed forms, else why not."""
        cmd = args[2] if args[0] == "--set" else args[0]
        where = f"{sc.name} {cmd}"
        if rc != 0:
            return f"{where}: exit code {rc}"
        lines = out.splitlines()
        vals = dict(line.split(" = ", 1) for line in lines if " = " in line)
        ref = self.refs[sc.name]
        m = ref.m
        try:
            if cmd == "region":
                table = ref.rank_table()
                for J, c in table.items():
                    label = "C{" + ",".join(str(i + 1) for i in J) + "}"
                    if not close(float(vals[label]), c, 2e-8):
                        return f"{where}: {label} = {vals[label]}, expected {c}"
                if len([k for k in vals if k.startswith("C{")]) != len(table):
                    return f"{where}: wrong number of subsets"
                if not close(float(vals["total"]), math.log1p(sc.snr.sum()), 2e-8):
                    return f"{where}: total {vals['total']}"
                if sc.symmetric and not close(float(vals["symmetric equilibrium rate"]),
                                              ref.total / m, 2e-8):
                    return f"{where}: equal split {vals['symmetric equilibrium rate']}"
            elif cmd == "br":
                user, others = detail
                want = ref.analyse(np.insert(others, user, 0.0))["br"][user]
                got = float(vals[f"best_response(user={user + 1})"])
                if want is None or not close(got, want, 2e-8):
                    return f"{where}: {got}, expected {want}"
            elif cmd == "check-eq":
                verdicts = "nash: true, strong: true, pareto: true"
                if lines[0] != verdicts or float(vals["max_face_residual"]) != 0.0:
                    return f"{where}: {lines[0]}; residual {vals['max_face_residual']}"
            elif cmd == "metrics":
                spoa, pos = float(vals["spoa"]), float(vals["pos"])
                if sc.g == "identity":
                    ok = abs(spoa - 1) < 1e-6 and abs(pos - 1) < 1e-6
                    ok = ok and close(float(vals["social_opt"]), ref.total, 2e-8)
                else:
                    ok = 0.0 < spoa <= pos <= 1.0 + 1e-8
                if not ok:
                    return f"{where}: spoa {spoa} pos {pos}"
            elif cmd == "normalized":
                prof = np.array([float(x) for x in vals["profile"].split(",")])
                ok = abs(prof.sum() - ref.total) <= 1e-8 * m
                ok = ok and (not sc.symmetric or np.allclose(prof, ref.total / m, rtol=2e-8))
                ok = ok and float(vals["kkt_residual"]) < 1e-8
                ok = ok and vals.get("goodman_negative_definite") == "true"
                if not ok:
                    return f"{where}: {out.strip()}"
            elif cmd == "ess":
                if vals["ess"] != "true" or not close(float(vals["resident"]), ref.total / m, 2e-8):
                    return f"{where}: {out.strip()}"
            elif cmd == "verify":
                if ", failed 0," not in lines[-1]:
                    return f"{where}: {lines[-1]}"
            elif cmd == "dynamics":
                return self._check_csvs(sc, vals)
        except (KeyError, ValueError, IndexError) as exc:
            return f"{where}: unreadable output ({exc!r})"
        return None

    def _check_csvs(self, sc, vals):
        where = f"{sc.name} dynamics"
        if not float(vals["max mass drift"]) < 1e-9:
            return f"{where}: max mass drift {vals['max mass drift']}"
        paths = [os.path.join(self.workdir, f"{sc.name}_{k}.csv") for k in ("trace", "state")]
        try:
            with open(paths[0]) as fh:
                trace_rows = fh.read().splitlines()[1:]
            with open(paths[1]) as fh:
                state = np.array([[float(x) for x in line.split(",")]
                                  for line in fh.read().splitlines()[1:]])
            self.csv_bytes += sum(os.path.getsize(p) for p in paths)
        finally:
            for p in paths:
                if os.path.exists(p):
                    os.remove(p)
        rows = sc.steps // sc.record_every + 1 + (sc.steps % sc.record_every != 0)
        if len(trace_rows) != rows:
            return f"{where}: {len(trace_rows)} trace rows, expected {rows}"
        if state.shape != (sc.grid_points, 2) or abs(state[:, 1].sum() - 1.0) > 1e-9:
            return f"{where}: final state CSV is not a distribution on {sc.grid_points} points"
        return None

    def summarise(self, passes):
        calls = [w for p in passes for w in p["startup"]]
        parts = medians([{k: p[k] for k in ("a", "b", "c", "total")} for p in passes])
        parts["a"] = statistics.median(calls)
        return parts, {"cli_call_p50_s": (parts["a"], "s"),
                       "cli_call_samples": (len(calls), "count"),
                       "cli_battery_s": (parts["total"], "s")}

    def traced(self, ledger, new_tracer):
        untraced = self.replay(ledger)
        tracer = new_tracer()
        self.csv_bytes = 0
        traced = self.replay(ledger)
        tracer.restore()
        return {"cli": tracer}, untraced, traced

    def final_checks(self, ledger):
        pass


WORKLOADS = {"cli": Cli, "oracle": Oracle, "dynamics": Dynamics}
