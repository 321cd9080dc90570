"""Command-line surface: generate, sweep, validate, bench, limits.

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import capacity, config, experiments, interference
from .channel import _duplex_terms
from .geometry import InvalidTopologyError


#: The options shared between subcommands; each declares those it reads.
_OPTIONS = {
    "--scenario": {"help": "scenario file (defaults used if omitted)"},
    "--seed": {"type": int, "help": "override both seeds"},
    "--trials": {"type": int, "help": "override trial count"},
    "--workers": {"type": int, "default": 1},
    "--out": {"help": "output path"},
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcap",
        description="Effective-capacity analysis of half/full-duplex "
                    "heterogeneous cellular deployments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a deployment and save it")
    _add_options(p, "--scenario", "--seed", "--out")

    p = sub.add_parser("sweep", help="capacity vs. self-interference cancellation")
    _add_options(p, "--scenario", "--seed", "--trials", "--workers", "--out")
    p.add_argument("--eta-from", type=float, default=-80.0, metavar="DB")
    p.add_argument("--eta-to", type=float, default=0.0, metavar="DB")
    p.add_argument("--eta-step", type=float, default=2.5, metavar="DB")

    p = sub.add_parser("validate", help="closed-form vs. oracle and bound ordering")
    _add_options(p, "--scenario", "--seed", "--trials")

    p = sub.add_parser("bench", help="exact vs. lower-bound runtime at matched accuracy")
    _add_options(p, "--scenario", "--seed", "--out")
    p.add_argument("--target-se", type=float, default=None,
                   help="capacity standard-error target in bits (default 1%% of a pilot)")
    p.add_argument("--mode", choices=("hd", "fd", "both"), default="fd")

    p = sub.add_parser("limits", help="loose-QoS limit and theta-range checks")
    _add_options(p, "--scenario", "--seed", "--trials", "--workers")
    p.add_argument("--mode", choices=("hd", "fd", "both"), default="both")
    return parser


def _load(args) -> config.ScenarioConfig:
    cfg = config.load_scenario(args.scenario) if args.scenario \
        else config.ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides.update(topology_seed=args.seed, trial_seed=args.seed)
    if getattr(args, "trials", None) is not None:
        overrides.update(trials=args.trials)
    return replace(cfg, **overrides) if overrides else cfg


def _topology(cfg: config.ScenarioConfig):
    topology = cfg.sample_topology()
    if topology.tagged_index is None:
        raise InvalidTopologyError(
            "sampled deployment has no small cells; raise density_per_km2 or "
            "change topology_seed")
    return topology


def _cmd_generate(args) -> int:
    cfg = _load(args)
    topology = _topology(cfg)
    out = args.out or "topology.txt"
    config.save_topology(topology, out)
    print(f"{len(topology.centers)} small cells (tagged "
          f"{topology.tagged_index}) -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    topology = _topology(cfg)
    grid = experiments.eta_grid_db(args.eta_from, args.eta_to, args.eta_step)
    sweep = experiments.sweep_eta(
        topology, cfg.qos(), cfg.noise_watts, cfg.duplex().ue_tx_power, grid,
        cfg.trials, cfg.trial_seed, kappa=cfg.kappa, workers=args.workers)
    # a sweep without an FD/HD gain raises here, before any file is written
    gain = experiments.fd_gain(sweep)
    crossover = experiments.find_crossover(sweep)
    out = args.out or "sweep.csv"
    config.emit_sweep_csv(sweep, out)
    crossover_text = "none" if crossover is None else f"{crossover:.1f} dB"
    print(f"{len(sweep.rows)} grid points -> {out}")
    print(f"max FD/HD gain {gain:.3f}, crossover {crossover_text}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load(args)
    failures = 0

    radius = cfg.pico_radius_m
    base = 2.0 * (2.0 * radius)  # the grid starts at 2(R_i + R_v)
    print("closed form vs. quadrature oracle (tolerance 1%):")
    for alpha in (2.0, 3.0, 4.0):
        for factor in (1.0, 1.5, 2.5, 5.0):
            d = base * factor
            approx = interference.mean_interference_bs_ue(1.0, d, radius, alpha)
            oracle = interference.mean_pathloss_numeric(d, radius, alpha)
            err = abs(approx - oracle) / oracle
            ok = err < 0.01
            failures += not ok
            print(f"  alpha={alpha:.0f} d={d:6.0f} m: rel err {err:.2e} "
                  f"{'ok' if ok else 'FAIL'}")

    print("bound ordering on randomized deployments:")
    rng = np.random.default_rng(cfg.trial_seed)
    trials = min(cfg.trials, 5000)
    checked = 0
    attempt = 0
    skipped: list[str] = []
    while checked < 10 and attempt < 60:
        attempt += 1
        sampled = replace(
            cfg,
            density_per_km2=float(rng.uniform(2.0, 8.0)),
            theta_per_bit=float(rng.uniform(1e-4, 7e-3)),
            eta=float(10 ** rng.uniform(-10, 0)),
            topology_seed=int(rng.integers(1 << 30)),
        )
        try:
            topology = sampled.sample_topology()
            if topology.tagged_index is None:
                continue
            exact = capacity.ec_exact_mc(
                topology, sampled.duplex(), sampled.qos(), sampled.noise_watts,
                trials, int(rng.integers(1 << 30)))
            # the bound ignores its seed; drawing one keeps the deployments
            # this command has always checked
            lb = capacity.ec_lower_bound(
                topology, sampled.duplex(), sampled.qos(), sampled.noise_watts,
                trials, int(rng.integers(1 << 30)))
        except (InvalidTopologyError, interference.TaylorValidityError) as exc:
            skipped.append(type(exc).__name__)
            continue
        checked += 1
        margin = 3.0 * float(np.hypot(exact.std_error, lb.std_error))
        ok = lb.ec <= exact.ec + margin
        failures += not ok
        print(f"  deployment {checked:2d}: LB {lb.ec:9.3f} <= exact "
              f"{exact.ec:9.3f} + {margin:.3f} {'ok' if ok else 'FAIL'}")
    if skipped:
        print(f"  skipped {len(skipped)} deployment"
              f"{'' if len(skipped) == 1 else 's'} "
              f"({', '.join(sorted(set(skipped)))})")

    print("validation " + ("passed" if failures == 0 else
                           f"FAILED ({failures} checks)"))
    return 0 if failures == 0 else 1


def _cmd_bench(args) -> int:
    cfg = _load(args)
    topology = _topology(cfg)
    modes = ("hd", "fd") if args.mode == "both" else (args.mode,)
    for mode in modes:
        duplex = cfg.duplex(mode=mode)
        if args.target_se is None:
            pilot = capacity.ec_exact_mc(topology, duplex, cfg.qos(),
                                         cfg.noise_watts, 2000, cfg.trial_seed)
            target = max(0.01 * pilot.ec, 1e-9)
        else:
            target = args.target_se
        report = experiments.benchmark_runtime(
            topology, duplex, cfg.qos(), cfg.noise_watts, target, cfg.trial_seed)
        print(f"{mode}: exact {report.exact_seconds:.3f} s "
              f"({report.exact_trials} trials), lower bound "
              f"{report.lb_seconds * 1e3:.3f} ms ({report.lb_trials} "
              "quadrature nodes), "
              f"speedup {report.speedup:.1f}x at M={report.cell_count}")
        if args.out:
            out = args.out if len(modes) == 1 else f"{args.out}.{mode}"
            config.emit_benchmark_csv(report, out,
                                      {"scenario": cfg.fingerprint(), "mode": mode})
    return 0


def _cmd_limits(args) -> int:
    cfg = _load(args)
    topology = _topology(cfg)
    qos = cfg.qos()
    modes = ("hd", "fd") if args.mode == "both" else (args.mode,)
    duplexes = [cfg.duplex(mode=mode) for mode in modes]
    # a mode's exponent is share * beta, so its guarantee is theta_bound / share
    bound = min(qos.theta_bound / _duplex_terms(duplex)[2] for duplex in duplexes)
    status = "ok" if qos.theta <= bound else "warn: bound exceeded"
    print(f"theta = {qos.theta:.3e} 1/bit, guarantee bound {bound:.3e} -> {status}")

    loose = replace(cfg, theta_per_bit=1e-6)
    # one set of draws serves both modes: UE power and seed do not depend on it
    components = capacity.simulate_components(
        topology, cfg.duplex().ue_tx_power, cfg.trials, cfg.trial_seed,
        workers=args.workers)
    worst = 0.0
    for mode, duplex in zip(modes, duplexes):
        ec = capacity.ec_from_components(components, duplex, loose.qos(),
                                         cfg.noise_watts)
        rate = capacity.mean_rate_from_components(components, duplex, qos,
                                                  cfg.noise_watts)
        if rate == 0:
            raise ValueError(f"{mode} mean rate is 0: no loose-QoS limit to check")
        rel = abs(ec.ec - rate) / rate
        worst = max(worst, rel)
        print(f"{mode}: EC(theta=1e-6) = {ec.ec:.3f}, mean rate = {rate:.3f} "
              f"bits/block, rel diff {rel:.2e}")
    return 0 if worst < 0.01 else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "limits": _cmd_limits,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
