"""Seeded inputs of the three workloads.

Every input the program receives is made here from the benchmark's
--seed: the same seed gives the same inputs. Run as a script
(`python3 perfbench/inputs.py WORKLOAD SEED`) it imports macgame and
builds one workload's inputs, which is the work `setup_s` times in a
fresh interpreter.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from reference import Region, greedy_vertex

SNR_RANGE = (0.05, 30.0)          # log-uniform, asymmetric channels

# oracle: two size bands either side of the 2**m-versus-sorted-prefix crossover
SMALL_MS, SMALL_CHANNELS = (2, 3), 200     # channels per m
LARGE_MS, LARGE_CHANNELS = (12, 16), 16
PER_KIND = 3                     # face, interior and infeasible profiles per channel
BATCH_ROWS = 64                  # rows of the one feasible_rows query per channel
VERTICES = 8                     # greedy vertices mixed into each face profile
# efficiency_metrics costs 12-370 ms at m=8 depending on the channel, so its
# channels come from a fixed stream, not from --seed. Its face sampler needs
# 500 accepted points in at most 100000 draws and raises 'face sampling
# failed' on thinner faces (about 1 in 5 log-uniform channels), a known
# defect. The timed set keeps channels that accept at least EFF_MIN_ACCEPT of
# the draws, 1.6x what the sampler needs; the first channel that accepts
# under EFF_PROBE_ACCEPT, too few for any seed, is an untimed probe that
# shows the defect (Oracle.final_checks).
EFF_M, EFF_CHANNELS, EFF_STREAM = 8, 5, 2011
EFF_MIN_ACCEPT, EFF_PROBE_ACCEPT, EFF_ESTIMATE_DRAWS = 0.008, 0.002, 5_000

# dynamics: three jobs that use the payoff layer in different ways
M2_STEPS, M4_STEPS, MC_STEPS = 5_000, 500, 2
MC_SNR = (3.0, 1.0, 0.5)
MC_SAMPLES = 100_000


def num(x) -> str:
    return repr(float(x))


def stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def vertices(rng, snr: np.ndarray) -> np.ndarray:
    return np.array([greedy_vertex(snr, rng.permutation(snr.size)) for _ in range(VERTICES)])


def face_mix(rng, verts: np.ndarray, count=None) -> np.ndarray:
    """Convex mixes of greedy vertices: points of the maximal face.

    Used at every m, because sample_max_face cannot produce large-m points.
    """
    return rng.dirichlet(np.ones(len(verts)), size=count) @ verts


@dataclass
class OracleChannel:
    snr: np.ndarray
    profiles: list = field(default_factory=list)   # (kind, profile, br user)
    batch: np.ndarray = None


def oracle_channel(rng, m: int) -> OracleChannel:
    ch = OracleChannel(log_uniform(rng, *SNR_RANGE, m))
    verts = vertices(rng, ch.snr)
    for _ in range(PER_KIND):
        face = face_mix(rng, verts)
        ch.profiles.append(("face", face, int(rng.integers(m))))
        ch.profiles.append(("interior", face * rng.uniform(0.3, 0.95), int(rng.integers(m))))
        ch.profiles.append(("infeasible", face * rng.uniform(1.02, 1.3), int(rng.integers(m))))
    ch.batch = face_mix(rng, verts, BATCH_ROWS) * rng.uniform(0.5, 1.25, (BATCH_ROWS, 1))
    return ch


def face_acceptance(snr: np.ndarray, rng) -> float:
    """Share of sample_max_face's candidates (safe rates plus a flat Dirichlet
    split of the slack) that lie in the region, by the reference route."""
    ref = Region(snr)
    slack = max(ref.total - float(ref.safe.sum()), 0.0)
    w = rng.dirichlet(np.ones(snr.size), size=EFF_ESTIMATE_DRAWS)
    return float(ref.feasible_rows(ref.safe + slack * w).mean())


def efficiency_channels():
    """The timed m=8 channels and the probe channel, from the fixed stream."""
    fixed, estimate = stream(EFF_STREAM, 1), stream(EFF_STREAM, 2)
    keep, probe = [], None
    while len(keep) < EFF_CHANNELS or probe is None:
        snr = log_uniform(fixed, *SNR_RANGE, EFF_M)
        share = face_acceptance(snr, estimate)
        if share >= EFF_MIN_ACCEPT and len(keep) < EFF_CHANNELS:
            keep.append(snr)
        elif share < EFF_PROBE_ACCEPT and probe is None:
            probe = snr
    return keep, probe


def oracle_inputs(seed: int) -> dict:
    rng = stream(seed, 1)
    small = [oracle_channel(rng, m) for m in SMALL_MS for _ in range(SMALL_CHANNELS)]
    large = [oracle_channel(rng, m) for m in LARGE_MS for _ in range(LARGE_CHANNELS)]
    snr4 = log_uniform(rng, *SNR_RANGE, 4)
    face4 = face_mix(rng, vertices(rng, snr4))
    eff_snrs, eff_probe = efficiency_channels()
    return {
        "small": small,
        "large": large,
        "snr4": snr4,
        "face4": face4,
        # at most 0.6 of the face, so one grid step of the coalition and Pareto
        # lattices fits in the slack and the grid verdicts must say False
        "interior4": face4 * rng.uniform(0.3, 0.6),
        "ess_snr": np.full(3, log_uniform(rng, *SNR_RANGE)),
        "norm_snr": log_uniform(rng, *SNR_RANGE, 3),
        "eff_snrs": eff_snrs,
        "eff_probe": eff_probe,
        "eff_seed": int(rng.integers(2**31)),
    }


def dynamics_inputs(seed: int) -> dict:
    """Channel, utility and DynamicsRun of each job, built through the public API."""
    from macgame import capacity, dynamics, evolution, game

    rng = stream(seed, 2)

    def job(snr, n, protocol, steps, state="dirichlet", method="exact"):
        view = capacity.build_view(capacity.ChannelModel(snr))
        include = view.total / view.m if view.model.symmetric else None
        grid = evolution.make_grid(float(view.single_caps.max()), n, include=include)
        if state == "dirichlet":
            masses = np.maximum(rng.dirichlet(np.ones(n)), 1e-6)
            state0 = evolution.PopulationState(grid, masses / masses.sum())
        else:
            state0 = evolution.PopulationState.uniform(grid)
        run = dynamics.DynamicsRun(protocol=protocol, state0=state0, dt=0.01, steps=steps,
                                   record_every=100, seed=int(rng.integers(2**31)),
                                   payoff_method=method, samples=MC_SAMPLES)
        return {"view": view, "g": game.Utility.identity(), "run": run}

    return {
        "m2": job(np.full(2, log_uniform(rng, 0.5, 2.0)), 51,
                  dynamics.Protocol.bnn(K=32.0), M2_STEPS),
        "m4": job(np.full(4, log_uniform(rng, 0.5, 2.0)), 31,
                  dynamics.Protocol.smith(theta=2.0), M4_STEPS),
        # uniform start as the CLI uses; Monte Carlo noise is the only seeded part
        "mc": job(np.array(MC_SNR), 31, dynamics.Protocol.replicator(),
                  MC_STEPS, state="uniform", method="montecarlo"),
    }


@dataclass
class CliScenario:
    name: str
    snr: np.ndarray
    text: str
    symmetric: bool
    g: str
    grid_points: int
    steps: int
    record_every: int = 100


def cli_inputs(seed: int) -> dict:
    """Seeded variants of the shipped sym2, sym3 and asym2 scenarios and their calls."""
    rng = stream(seed, 3)
    s2, p3 = float(log_uniform(rng, 0.5, 2.0)), float(log_uniform(rng, 10.0, 40.0))
    a_hi, a_lo = float(log_uniform(rng, 2.0, 4.0)), float(log_uniform(rng, 0.5, 1.5))
    specs = [
        ("sym2", [s2, s2], f"m = 2\nsnr = {s2!r},{s2!r}\n", "identity", 51,
         "protocol = bnn\nk = 32\n", 20_000),
        ("sym3", [p3 / 0.1] * 3, f"m = 3\np = {p3!r}\nsigma2 = 0.1\n", "identity", 31,
         "protocol = bnn\nk = 32\n", 5_000),
        ("asym2", [a_hi, a_lo], f"m = 2\nsnr = {a_hi!r},{a_lo!r}\n", "log1p", 51,
         "protocol = smith\ntheta = 1\nk = 8\n", 10_000),
    ]
    scenarios = []
    for name, snr, head, g, n, proto, steps in specs:
        text = (head + f"g = {g}\ngrid_points = {n}\n{proto}dt = 0.01\nsteps = {steps}\n"
                f"record_every = 100\nseed = {int(rng.integers(2**31))}\n")
        scenarios.append(CliScenario(name, np.array(snr, dtype=float), text,
                                     name.startswith("sym"), g, n, steps))
    calls = []   # (scenario, argv after the scenario options, kind, detail)
    for sc in scenarios:
        m = sc.snr.size
        face = face_mix(rng, vertices(rng, sc.snr))
        user = int(rng.integers(m))
        others = np.delete(face * rng.uniform(0.3, 0.9), user)
        profile = np.full(m, math.log1p(sc.snr.sum()) / m) if sc.symmetric else face
        calls += [
            (sc, ["region"], "startup", None),
            (sc, ["br", "--user", str(user + 1), "--others", ",".join(map(num, others))],
             "startup", (user, others)),
            (sc, ["check-eq", "--profile", ",".join(map(num, profile))], "startup", profile),
            (sc, ["metrics"], "startup", None),
            (sc, ["--set", "g=log1p", "normalized"], "startup", None),
        ]
        if sc.symmetric:
            calls.append((sc, ["ess"], "startup", None))
        # verify runs twice: it is the longest call and the noisiest part of a battery
        calls += [(sc, ["verify"], "verify", None)] * 2 + [(sc, ["dynamics"], "dynamics", None)]
    return {"scenarios": scenarios, "calls": calls}


MAKERS = {"cli": cli_inputs, "oracle": oracle_inputs, "dynamics": dynamics_inputs}


if __name__ == "__main__":
    import macgame  # noqa: F401  -- the import is part of what setup_s measures

    MAKERS[sys.argv[1]](int(sys.argv[2]))
