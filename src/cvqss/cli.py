"""Command-line front end: run scenarios, sweep gains, emit tables, verify.

Subcommands: run (one scenario), tv-curve (gain sweep for the T-V diagram),
table (best-achievable summary for every player subset), verify (simulation
against the closed forms over a parameter grid).  All outputs are
deterministic: identical configuration gives byte-identical CSV/JSON.
Exit codes: 0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import metrics
from .metrics import (
    _require_finite,
    evaluate,
    optimal_gain,
    r_from_squeezing_pct,
    squeezing_pct,
    tv_point,
)
from .noise import FieldState, NoiseBasis, Quad, covariance, field_from_mode, variance
from .protocol import (
    FF_GAIN_OPTIMAL,
    FF_SYMPLECTIC_SCALE,
    PSA_GAIN_OPTIMAL,
    DealerConfig,
    Shares,
    deal,
    feedforward_sweep,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    single_quadrature_readout,
    symplectic_correct,
)
from .entanglement import EprSource

CSV_COLUMNS = (
    "scheme",
    "r",
    "squeezing_pct",
    "vm_db",
    "eta",
    "gain",
    "t_plus",
    "t_minus",
    "t_q",
    "vcv_plus",
    "vcv_minus",
    "v_q",
    "fidelity",
)

SCHEMES = (
    "mz12",
    "psa2",
    "feedforward",
    "single_player_1",
    "single_player_2",
    "single_player_3",
    "single_quadrature",
)

DEFAULT_GAIN_GRID = tuple(0.5 * i for i in range(17))
TABLE_VQ_CAP = 1e6


@dataclass
class ScenarioConfig:
    """One scenario: scheme plus the dealer, loop and secret parameters."""

    scheme: str
    r: float = 0.0
    vm_db: Optional[float] = None
    eta: float = 1.0
    gain: float | str | None = None  # number, "optimal", or None for the scheme default
    secret_means: tuple[float, float] = (4.0, 2.0)
    source: str = "type1"
    quad: str = "plus"
    epsilon: float = 0.0  # finite feedforward-mixing transmission; 0 = exact limit

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        numbers = [self.r, self.eta, self.epsilon, *self.secret_means]
        if self.vm_db is not None:
            numbers.append(self.vm_db)
        if isinstance(self.gain, (int, float)):
            numbers.append(self.gain)
        _require_finite(*numbers)
        if self.r < 0:
            raise ValueError("squeezing parameter must be nonnegative")
        if self.vm_db is not None and self.vm_db < 0:
            raise ValueError("modulation depth in dB must be nonnegative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("detection efficiency must be in (0, 1]")
        if self.source not in ("type1", "type2"):
            raise ValueError("source must be type1 or type2")
        if self.quad not in ("plus", "minus"):
            raise ValueError("quad must be plus or minus")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")

    @property
    def v_m(self) -> float:
        return 0.0 if self.vm_db is None else 10.0 ** (self.vm_db / 10.0)

    @property
    def quadrature(self) -> Quad:
        return Quad.PLUS if self.quad == "plus" else Quad.MINUS


_DEFAULT_GAINS = {"psa2": PSA_GAIN_OPTIMAL, "feedforward": FF_GAIN_OPTIMAL}


def _resolve_gain(cfg: ScenarioConfig, shares: Shares) -> float:
    g = cfg.gain
    if g == "optimal":
        if cfg.scheme == "feedforward":
            return optimal_gain(cfg.r, cfg.v_m, cfg.eta, objective="max_tq")
        if cfg.scheme == "single_quadrature":
            # var(s2 + g s3) is quadratic in g: the regression coefficient minimises it
            quad = cfg.quadrature
            return -covariance(shares.share2, shares.share3, quad) / variance(shares.share3, quad)
    elif g is not None:
        return float(g)
    return _DEFAULT_GAINS.get(cfg.scheme, 0.0)


def _dealt(
    r: float, v_m: float, means: tuple[float, float], source: EprSource = EprSource.TYPE1
) -> tuple[FieldState, Shares]:
    """A coherent secret with these means on a fresh basis, and its shares."""
    basis = NoiseBasis()
    secret = field_from_mode(basis, basis.vacuum(), *means)
    return secret, deal(secret, DealerConfig(r, v_m, source))


def _record(cfg: ScenarioConfig, gain: float, secret: FieldState, out: FieldState) -> dict:
    """The CSV_COLUMNS row of one scenario: cfg, the gain used, then out's metrics.

    A single_quadrature out is a readout beam, scored in cfg.quad alone.
    """
    if cfg.scheme == "single_quadrature":
        quad = cfg.quadrature
        t = metrics.transfer_coefficient(secret, out, quad)
        vcv = metrics.conditional_variance(secret, out, quad)
        inf = float("inf")
        t_plus, t_minus = (t, 0.0) if quad is Quad.PLUS else (0.0, t)
        vcv_plus, vcv_minus = (vcv, inf) if quad is Quad.PLUS else (inf, vcv)
        scores = (t_plus, t_minus, t_plus + t_minus, vcv_plus, vcv_minus, inf, 0.0)
    else:
        m = evaluate(secret, out)
        scores = (m.t_plus, m.t_minus, m.t_q, m.vcv_plus, m.vcv_minus, m.v_q, m.fidelity)
    config = (cfg.scheme, cfg.r, 100.0 * squeezing_pct(cfg.r), cfg.vm_db, cfg.eta, gain)
    return dict(zip(CSV_COLUMNS, config + scores, strict=True))


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute one scenario and return the metrics record."""
    cfg.validate()
    secret, shares = _dealt(cfg.r, cfg.v_m, cfg.secret_means, EprSource(cfg.source))
    gain = _resolve_gain(cfg, shares)
    if cfg.scheme == "single_quadrature":
        out = single_quadrature_readout(shares, gain)
    elif cfg.scheme == "mz12":
        out = reconstruct_12(shares)
    elif cfg.scheme == "psa2":
        out = reconstruct_2psa(shares, gain)
    elif cfg.scheme == "feedforward":
        out = reconstruct_ff(shares, gain, cfg.eta, epsilon=cfg.epsilon)
    else:  # single_player_i
        out = shares.share(int(cfg.scheme[-1]))
    return _record(cfg, gain, secret, out)


def tv_curve_records(
    r: float,
    gains: Sequence[float],
    vm_dbs: Sequence[Optional[float]],
    eta: float = 1.0,
    secret_means: tuple[float, float] = (4.0, 2.0),
    source: str = "type1",
) -> list[dict]:
    """Gain-sweep rows for the collaborating players plus single-player points.

    One family per entry of vm_dbs (None meaning no added modulation); the
    single-player point does not depend on the gain so it appears once per
    family.  Each family is dealt once and swept with one feedforward_sweep;
    every row equals the run_scenario record of its configuration.
    """
    if not gains:
        raise ValueError("gain sweep must be nonempty")
    if list(gains) != sorted(gains):
        raise ValueError("gain sweep must be monotone increasing")
    floats = [float(g) for g in gains]
    rows = []
    for vm_db in vm_dbs:
        ff = ScenarioConfig("feedforward", r, vm_db, eta, None, secret_means, source)
        single = ScenarioConfig("single_player_1", r, vm_db, eta, None, secret_means, source)
        ff.validate()
        secret, shares = _dealt(r, ff.v_m, secret_means, EprSource(source))
        outs = feedforward_sweep(shares, floats, eta)
        rows += [_record(ff, g, secret, out) for g, out in zip(floats, outs)]
        rows.append(_record(single, _resolve_gain(single, shares), secret, shares.share1))
    return rows


# ---------------------------------------------------------------------------
# Best-achievable summary table.


def table_entries(
    r_large: float = 8.0,
    vm_db_large: float = 60.0,
    cap: float = TABLE_VQ_CAP,
    means: tuple[float, float] = (4.0, 2.0),
) -> list[dict]:
    """All 24 best-achievable (T_q, V_q) entries.

    Conditions: without/with entanglement (clas/quan, r = 0 or r_large) and
    without/with added classical noise (vm = 0 or vm_db_large).  V_q above
    cap is reported as infinity.  Each condition is dealt once and scores
    all six subsets from the same shares.
    """
    conditions = (
        ("clas_nonoise", 0.0, 0.0),
        ("clas_noise", 0.0, 10.0 ** (vm_db_large / 10.0)),
        ("quan_nonoise", r_large, 0.0),
        ("quan_noise", r_large, 10.0 ** (vm_db_large / 10.0)),
    )
    subsets = ("1", "2", "3", "{1,2}", "{1,3}", "{2,3}")
    rows = []
    for cond, r, v_m in conditions:
        secret, shares = _dealt(r, v_m, means)
        points = [tv_point(secret, shares.share(i)) for i in (1, 2, 3)]
        points.append(tv_point(secret, reconstruct_12(shares)))
        for players in ((1, 3), (2, 3)):
            ff = tv_point(secret, reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0, players))
            direct = points[players[0] - 1]
            # both strategies are available to the pair; report the better transfer
            points.append(ff if ff[0] >= direct[0] else direct)
        for subset, (t_q, v_q) in zip(subsets, points):
            rows.append(
                {
                    "subset": subset,
                    "condition": cond,
                    "t_q": round(t_q, 4),
                    "v_q": float("inf") if v_q > cap else round(v_q, 4),
                }
            )
    # subset-major order; the sort is stable, so conditions keep theirs
    rows.sort(key=lambda row: subsets.index(row["subset"]))
    return rows


# ---------------------------------------------------------------------------
# Oracle-equivalence verifier.

VERIFY_TOLERANCE = 1e-9
_VERIFY_R = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
_VERIFY_MEANS = (4.0, 2.0)
_VERIFY_VM = (0.0, 1.0, 100.0)
_VERIFY_ETA = (1.0, 0.9)


def verify_grid(
    r_values: Sequence[float] = _VERIFY_R,
    vm_values: Sequence[float] = _VERIFY_VM,
    eta_values: Sequence[float] = _VERIFY_ETA,
    gains: Sequence[float] = DEFAULT_GAIN_GRID,
) -> dict:
    """Compare simulated metrics with the closed forms over a full grid.

    Families: feedforward (T_q, V_q) at every (r, v_m, eta, gain);
    single-player formulas for players 1 and 2; the two-PSA scheme at its
    optimal gain; and the feedforward fidelity (raw and after symplectic
    correction) at the cancellation gain.
    """
    families: dict[str, dict] = {}
    failures: list[dict] = []

    def record(family: str, params: dict, deviation: float) -> None:
        fam = families.setdefault(family, {"max_deviation": 0.0, "count": 0, "worst": None})
        fam["count"] += 1
        if deviation > fam["max_deviation"]:
            fam["max_deviation"] = deviation
            fam["worst"] = params
        if deviation > VERIFY_TOLERANCE:
            failures.append({"family": family, "params": params, "deviation": deviation})

    for r in r_values:
        for v_m in vm_values:
            secret, shares = _dealt(r, v_m, _VERIFY_MEANS)
            for player in (1, 2):
                sim = tv_point(secret, shares.share(player))
                ref = metrics.closed_form("sp", r, v_m)
                dev = max(abs(sim[0] - ref[0]), abs(sim[1] - ref[1]))
                record("single_player", {"r": r, "v_m": v_m, "player": player}, dev)
            for eta in eta_values:
                for g, out in zip(gains, feedforward_sweep(shares, gains, eta)):
                    sim = tv_point(secret, out)
                    ref = metrics.closed_form("ff_cp", r, v_m, eta, g)
                    dev = max(abs(sim[0] - ref[0]), abs(sim[1] - ref[1]))
                    record(
                        "feedforward_tv",
                        {"r": r, "v_m": v_m, "eta": eta, "gain": g},
                        dev,
                    )

    for r in r_values:
        secret, shares = _dealt(r, 0.0, _VERIFY_MEANS)
        sim = tv_point(secret, reconstruct_2psa(shares, PSA_GAIN_OPTIMAL))
        ref = metrics.closed_form("psa2_cp", r)
        record("psa2_tv", {"r": r}, max(abs(sim[0] - ref[0]), abs(sim[1] - ref[1])))

        out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
        dev_raw = abs(
            metrics.fidelity(secret, out) - metrics.fidelity_closed_form("ff", r, _VERIFY_MEANS)
        )
        corrected = symplectic_correct(out, FF_SYMPLECTIC_SCALE)
        dev_cor = abs(
            metrics.fidelity(secret, corrected) - metrics.fidelity_closed_form("psa2", r)
        )
        record("feedforward_fidelity", {"r": r}, max(dev_raw, dev_cor))

    return {
        "pass": not failures,
        "tolerance": VERIFY_TOLERANCE,
        "families": families,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Output formatting.


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _records_to_csv(rows: list[dict], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(rows: list[dict], columns: Sequence[str], fmt: str, output: Optional[str]) -> None:
    if fmt == "csv":
        _emit(_records_to_csv(rows, columns), output)
    else:
        payload = rows[0] if len(rows) == 1 else rows
        _emit(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n", output)


# ---------------------------------------------------------------------------
# Argument parsing.


def _parse_gain(text: str):
    if text == "optimal":
        return "optimal"
    return float(text)


def _parse_gains(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqss",
        description="Simulate (2,3) threshold quantum secret sharing on light-beam quadratures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--config", help="JSON file with default parameter values")

    def add_squeezing(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--r", type=float, help="squeezing parameter")
        group.add_argument(
            "--squeezing-pct", type=float, help="squeezing as a percentage, alternative to --r"
        )

    run_p = sub.add_parser("run", help="run a single scenario")
    run_p.add_argument("--scheme", choices=SCHEMES)
    add_squeezing(run_p)
    run_p.add_argument("--vm-db", type=float, help="added modulation, dB above shot noise")
    run_p.add_argument("--eta", type=float, default=1.0)
    run_p.add_argument("--gain", type=_parse_gain, help='loop gain, or "optimal"')
    run_p.add_argument("--means", type=float, nargs=2, default=(4.0, 2.0),
                       metavar=("XPLUS", "XMINUS"))
    run_p.add_argument("--source", choices=("type1", "type2"), default="type1")
    run_p.add_argument("--quad", choices=("plus", "minus"), default="plus")
    run_p.add_argument(
        "--epsilon", type=float, default=0.0,
        help="finite feedforward-mixing transmission (default: exact limit)",
    )
    add_common(run_p)

    tv_p = sub.add_parser("tv-curve", help="gain sweep for the T-V diagram")
    add_squeezing(tv_p)
    tv_p.add_argument(
        "--gains", type=_parse_gains, default=list(DEFAULT_GAIN_GRID),
        help="comma-separated monotone gain grid",
    )
    tv_p.add_argument(
        "--vm-db", type=float,
        help="also sweep with this much added modulation (dB above shot noise)",
    )
    tv_p.add_argument("--eta", type=float, default=1.0)
    tv_p.add_argument("--means", type=float, nargs=2, default=(4.0, 2.0),
                      metavar=("XPLUS", "XMINUS"))
    tv_p.add_argument("--source", choices=("type1", "type2"), default="type1")
    add_common(tv_p)

    table_p = sub.add_parser("table", help="best-achievable summary for every subset")
    table_p.add_argument("--r-large", type=float, default=8.0)
    table_p.add_argument("--vm-db-large", type=float, default=60.0)
    table_p.add_argument("--cap", type=float, default=TABLE_VQ_CAP,
                         help="render V_q above this as infinity")
    add_common(table_p)

    verify_p = sub.add_parser("verify", help="check simulation against the closed forms")
    verify_p.add_argument("--output", help="write the JSON summary to this path")
    return parser


def _config_tokens(path: str) -> list[str]:
    """Flag tokens for the option defaults in a JSON config file.

    A scalar value becomes one token after its flag, a list one token per
    element; argparse then types and checks them like typed flags.
    """
    with open(path, encoding="utf-8") as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise ValueError("config file must hold a JSON object")
    tokens = []
    for key, value in defaults.items():
        values = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) for v in values):
            raise ValueError(f"config key {key!r} must be a scalar or a list of scalars")
        tokens += ["--" + key.replace("_", "-"), *map(str, values)]
    return tokens


def _resolve_r(args: argparse.Namespace) -> float:
    if getattr(args, "r", None) is not None:
        return args.r
    pct = getattr(args, "squeezing_pct", None)
    if pct is not None:
        return r_from_squeezing_pct(pct / 100.0)
    return 0.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config tokens go right after the subcommand, so explicit flags win
            args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
        if args.command == "run":
            if args.scheme is None:
                raise ValueError("run needs --scheme (or a config file providing it)")
            cfg = ScenarioConfig(
                scheme=args.scheme,
                r=_resolve_r(args),
                vm_db=args.vm_db,
                eta=args.eta,
                gain=args.gain,
                secret_means=tuple(args.means),
                source=args.source,
                quad=args.quad,
                epsilon=args.epsilon,
            )
            _render([run_scenario(cfg)], CSV_COLUMNS, args.format, args.output)
            return 0
        if args.command == "tv-curve":
            vm_dbs: list[Optional[float]] = [None]
            if args.vm_db is not None:
                vm_dbs.append(args.vm_db)
            rows = tv_curve_records(
                _resolve_r(args), args.gains, vm_dbs, args.eta,
                tuple(args.means), args.source,
            )
            _render(rows, CSV_COLUMNS, args.format, args.output)
            return 0
        if args.command == "table":
            _require_finite(args.r_large, args.vm_db_large, args.cap)
            rows = table_entries(args.r_large, args.vm_db_large, args.cap)
            _render(rows, ("subset", "condition", "t_q", "v_q"), args.format, args.output)
            return 0
        if args.command == "verify":
            summary = verify_grid()
            _render([summary], (), "json", args.output)
            if args.output:
                sys.stdout.write("verify: PASS\n" if summary["pass"] else "verify: FAIL\n")
            return 0 if summary["pass"] else 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"cvqss: error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
