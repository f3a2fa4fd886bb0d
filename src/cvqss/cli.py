"""Command-line front end: run scenarios, sweep gains, emit tables, verify.

Subcommands: run (one scenario), tv-curve (gain sweep for the T-V diagram),
table (best-achievable summary for every player subset), verify (simulation
against the closed forms over a parameter grid).  All outputs are
deterministic: identical configuration gives byte-identical CSV/JSON.
Exit codes: 0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from . import metrics
from .metrics import (
    Metrics,
    _pair,
    _quadrature_score,
    _regression_gain,
    _scores,
    optimal_gain,
    r_from_squeezing_pct,
    squeezing_pct,
)
from .noise import MAX_SQUEEZING, Quad, check_finite, check_real, check_squeezing_limit
from .protocol import (
    FF_GAIN_OPTIMAL,
    FF_SYMPLECTIC_SCALE,
    PSA_GAIN_OPTIMAL,
    Shares,
    _dealt,
    _feedforward_outputs,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    single_quadrature_readout,
    symplectic_correct,
)
from .entanglement import EprSource

CSV_COLUMNS = ("scheme", "r", "squeezing_pct", "vm_db", "eta", "gain", *Metrics._fields)
TABLE_COLUMNS = ("subset", "condition", "t_q", "v_q")


# name -> (output(shares, gain, cfg), default gain, optimal(cfg, shares, variances) or None)
_SCHEMES = {
    "mz12": (lambda shares, g, cfg: reconstruct_12(shares), 0.0, None),
    "psa2": (lambda shares, g, cfg: reconstruct_2psa(shares, g), PSA_GAIN_OPTIMAL, None),
    "feedforward": (
        lambda shares, g, cfg: reconstruct_ff(shares, g, cfg.eta, epsilon=cfg.epsilon),
        FF_GAIN_OPTIMAL,
        lambda cfg, shares, variances: optimal_gain(cfg.r, cfg.v_m, cfg.eta, objective="max_tq"),
    ),
    **{
        f"single_player_{i}": (lambda shares, g, cfg, i=i: shares.share(i), 0.0, None)
        for i in (1, 2, 3)
    },
    "single_quadrature": (
        lambda shares, g, cfg: single_quadrature_readout(shares, g), 0.0,
        lambda cfg, shares, v: _regression_gain(shares.share2, shares.share3, cfg.quadrature, v),
    ),
}
SCHEMES = tuple(_SCHEMES)

DEFAULT_GAIN_GRID = tuple(0.5 * i for i in range(17))
DEFAULT_MEANS = (4.0, 2.0)
TABLE_VQ_CAP = 1e6
# From this modulation depth on, the power 10^(dB/10) overflows a float.
MAX_VM_DB = 10.0 * math.log10(sys.float_info.max)


class ScenarioConfig(namedtuple(
    "ScenarioConfig", "scheme r vm_db eta gain secret_means source quad epsilon",
    defaults=(0.0, None, 1.0, None, DEFAULT_MEANS, "type1", "plus", 0.0),
)):
    """One scenario: scheme plus the dealer, loop and secret parameters.

    gain is a number, "optimal", or None for the scheme default; epsilon is
    the finite feedforward-mixing transmission, 0 for the exact limit.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> ScenarioConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.secret_means, (tuple, list)) or len(self.secret_means) != 2:
            raise ValueError(f"secret_means must be two real numbers, not {self.secret_means!r}")
        vm_db = 0.0 if self.vm_db is None else self.vm_db
        numbers = [self.r, vm_db, self.eta, self.epsilon, *self.secret_means]
        if self.gain is not None and self.gain != "optimal":
            numbers.append(self.gain)
        check_real("r, vm_db, eta, epsilon, the secret means and a numeric gain", *numbers)
        check_finite(*numbers)
        check_squeezing_limit(self.r)
        if not 0.0 <= vm_db < MAX_VM_DB:
            raise ValueError(f"--vm-db must be at least 0 and below {MAX_VM_DB!r} dB")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("detection efficiency must be in (0, 1]")
        if self.source not in ("type1", "type2"):
            raise ValueError("source must be type1 or type2")
        if self.quad not in ("plus", "minus"):
            raise ValueError("quad must be plus or minus")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        return self

    @property
    def v_m(self) -> float:
        return 0.0 if self.vm_db is None else 10.0 ** (self.vm_db / 10.0)

    @property
    def quadrature(self) -> Quad:
        return Quad.PLUS if self.quad == "plus" else Quad.MINUS


def _resolve_gain(cfg: ScenarioConfig, shares: Shares, variances: list[float]) -> float:
    _, default, optimal = _SCHEMES[cfg.scheme]
    if cfg.gain == "optimal":
        return default if optimal is None else optimal(cfg, shares, variances)
    return default if cfg.gain is None else float(cfg.gain)


def _row(cfg: ScenarioConfig, gain: float, scores: tuple, unread: tuple = ()) -> dict:
    """A CSV_COLUMNS row: cfg, the gain used, then the seven scores in Metrics order.

    unread names the score columns that are inf by design; NaN, or inf in
    any other column, means float overflow.
    """
    for name, value in zip(Metrics._fields, scores):
        if math.isnan(value) or (math.isinf(value) and name not in unread):
            raise ValueError(f"{name} came out {value!r}: these inputs overflow float arithmetic")
    config = (cfg.scheme, cfg.r, 100.0 * squeezing_pct(cfg.r), cfg.vm_db, cfg.eta, gain)
    return dict(zip(CSV_COLUMNS, config + scores, strict=True))


def run_scenario(cfg: ScenarioConfig) -> dict:
    """One scenario's record: its output, built on _dealt, scored under
    class_variances(r, v_m) as every command scores.  A single_quadrature out is
    a readout beam, scored in cfg.quad alone: the other V_cv and v_q print as inf.
    """
    secret, shares = _dealt(cfg.secret_means, EprSource(cfg.source))
    variances = secret.basis.class_variances(cfg.r, cfg.v_m)
    gain = _resolve_gain(cfg, shares, variances)
    out = _SCHEMES[cfg.scheme][0](shares, gain, cfg)
    if cfg.scheme != "single_quadrature":
        (m,) = _scores(variances, *_pair(secret, [out], cross=True))
        return _row(cfg, gain, m)
    t, vcv = _quadrature_score(secret, out, cfg.quadrature, variances)
    if cfg.quad == "plus":  # t_q is t + 0.0, which is t: T is never -0.0
        return _row(cfg, gain, (t, 0.0, t, vcv, math.inf, math.inf, 0.0), ("vcv_minus", "v_q"))
    return _row(cfg, gain, (0.0, t, t, math.inf, vcv, math.inf, 0.0), ("vcv_plus", "v_q"))


def tv_curve_records(
    r: float,
    gains: Sequence[float],
    vm_dbs: Sequence[float | None],
    eta: float = 1.0,
    secret_means: tuple[float, float] = DEFAULT_MEANS,
    source: str = "type1",
) -> list[dict]:
    """Gain-sweep rows for the collaborating players plus single-player points.

    One family per entry of vm_dbs (None meaning no added modulation); the
    single-player point does not depend on the gain so it appears once per
    family, as run_scenario records it.  No coefficient depends on v_m, so
    one deal serves every family: the sweep is built and tallied once, and
    each family scores the tallies under its class variances.  Every row
    equals the run_scenario record of its configuration bit for bit.
    """
    if not gains:
        raise ValueError("gain sweep must be nonempty")
    if list(gains) != sorted(gains):
        raise ValueError("gain sweep must be monotone increasing")
    check_real("the swept gains", *gains)
    ff = ScenarioConfig("feedforward", r, None, eta, None, secret_means, source)
    secret, shares = _dealt(secret_means, EprSource(source))
    (outs,) = _feedforward_outputs(shares, gains, (eta,), (2, 3))
    swept_pair = _pair(secret, outs, cross=True)
    rows = []
    for vm_db in vm_dbs:
        ff = ff._replace(vm_db=vm_db)
        swept = _scores(secret.basis.class_variances(r, ff.v_m), *swept_pair)
        rows += [_row(ff, float(g), m) for g, m in zip(gains, swept)]
        rows.append(run_scenario(ff._replace(scheme="single_player_1")))
    return rows


# ---------------------------------------------------------------------------
# Best-achievable summary table.


def table_entries(
    r_large: float = 8.0,
    vm_db_large: float = 60.0,
    cap: float = TABLE_VQ_CAP,
) -> list[dict]:
    """All 24 best-achievable (T_q, V_q) entries.

    Conditions: without/with entanglement (clas/quan, r = 0 or r_large) and
    without/with added classical noise (vm = 0 or vm_db_large).  V_q above
    cap is reported as infinity.  No coefficient depends on (r, v_m), so
    one deal serves all four conditions: each output is tallied once and
    scored under each condition's class variances.
    """
    check_real("r_large, vm_db_large and cap", r_large, vm_db_large, cap)
    if not 0.0 <= r_large <= MAX_SQUEEZING:
        raise ValueError(f"--r-large must be at least 0 and at most {MAX_SQUEEZING!r}")
    if not 0.0 <= vm_db_large < MAX_VM_DB:
        raise ValueError(f"--vm-db-large must be at least 0 and below {MAX_VM_DB!r} dB")
    if not cap >= 0.0:
        raise ValueError("--cap must be nonnegative")
    conditions = (
        ("clas_nonoise", 0.0, 0.0),
        ("clas_noise", 0.0, 10.0 ** (vm_db_large / 10.0)),
        ("quan_nonoise", r_large, 0.0),
        ("quan_noise", r_large, 10.0 ** (vm_db_large / 10.0)),
    )
    subsets = ("1", "2", "3", "{1,2}", "{1,3}", "{2,3}")
    secret, shares = _dealt(DEFAULT_MEANS)
    pairs = ((1, 3), (2, 3))
    outs = [shares.share1, shares.share2, shares.share3, reconstruct_12(shares)]
    outs += [reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0, players) for players in pairs]
    pairs_tallied = [_pair(secret, [out]) for out in outs]
    rows = []
    for cond, r, v_m in conditions:
        variances = secret.basis.class_variances(r, v_m)
        points = [_scores(variances, *pair)[0] for pair in pairs_tallied]
        for i, players in enumerate(pairs, 4):
            ff, direct = points[i], points[players[0] - 1]
            # both strategies are available to the pair; report the better transfer
            points[i] = ff if ff[0] >= direct[0] else direct
        rows += [dict(zip(TABLE_COLUMNS, (subset, cond, round(t_q, 4),
                                          math.inf if v_q > cap else round(v_q, 4))))
                 for subset, (t_q, v_q) in zip(subsets, points)]
    # subset-major order; the sort is stable, so conditions keep theirs
    rows.sort(key=lambda row: subsets.index(row["subset"]))
    return rows


# ---------------------------------------------------------------------------
# Oracle-equivalence verifier.

VERIFY_TOLERANCE = 1e-9
_VERIFY_R = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
_VERIFY_VM = (0.0, 1.0, 100.0)
_VERIFY_ETA = (1.0, 0.9)
# The params each family reports for a point, in order.
_VERIFY_PARAMS = {
    "single_player": ("r", "v_m", "player"),
    "feedforward_tv": ("r", "v_m", "eta", "gain"),
    "psa2_tv": ("r",),
    "feedforward_fidelity": ("r",),
}


def verify_grid(
    r_values: Sequence[float] = _VERIFY_R,
    vm_values: Sequence[float] = _VERIFY_VM,
    eta_values: Sequence[float] = _VERIFY_ETA,
    gains: Sequence[float] = DEFAULT_GAIN_GRID,
) -> dict:
    """Compare simulated metrics with the closed forms over a full grid.

    At every (r, v_m): single_player for players 1 and 2, and feedforward_tv
    (T_q, V_q) at every (eta, gain).  Where v_m == 0, since their closed
    forms assume an unmodulated dealer: psa2_tv at the optimal PSA gain, and
    feedforward_fidelity (raw and after symplectic correction) at the
    cancellation gain, the only family that computes a fidelity.  The grid
    is dealt and tallied once; each (r, v_m) scores the tallies under its
    class variances, bit for bit as a fresh deal there would.  Each family
    is scored and recorded a column at a time, one column per (r, v_m[, eta]),
    and ff_cp_column's memo forms the closed form's gain-only terms once per grid.
    """
    families: dict[str, dict] = {}
    failures: list[dict] = []

    def record(family: str, head: tuple, keys: Sequence, sims: list, refs: Sequence) -> None:
        # one column: point i has params head + (keys[i],), and its params dict
        # is built only when it is the family's new worst or fails
        deviations = []
        for (sim_t, sim_v), (ref_t, ref_v) in zip(sims, refs):
            d_t, d_v = abs(sim_t - ref_t), abs(sim_v - ref_v)
            # max(d_t, d_v) without the calls; a NaN on either side (d != d)
            # deviates without bound, where max() and > would both drop it
            deviations.append(math.inf if d_t + d_v != d_t + d_v else d_t if d_t >= d_v else d_v)
        if not deviations:
            return
        fam = families.setdefault(family, {"max_deviation": 0.0, "count": 0, "worst": None})
        fam["count"] += len(deviations)
        names, worst = _VERIFY_PARAMS[family], max(deviations)
        if worst > fam["max_deviation"]:  # the first point to reach the column's worst
            fam["max_deviation"] = worst
            fam["worst"] = dict(zip(names, (*head, keys[deviations.index(worst)])))
        if worst > VERIFY_TOLERANCE:
            failures.extend(
                {"family": family, "params": dict(zip(names, (*head, key))), "deviation": d}
                for key, d in zip(keys, deviations) if d > VERIFY_TOLERANCE
            )

    secret, shares = _dealt(DEFAULT_MEANS)
    singles = [_pair(secret, [shares.share(player)]) for player in (1, 2)]
    passes = _feedforward_outputs(shares, gains, eta_values, (2, 3))
    sweeps = [_pair(secret, outs) for outs in passes if outs]  # no gains: no column, no X-
    psa2 = _pair(secret, [reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)])
    out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
    fidelities = [_pair(secret, [fld], cross=True)
                  for fld in (out, symplectic_correct(out, FF_SYMPLECTIC_SCALE))]
    for r in r_values:
        for v_m in vm_values:
            variances = secret.basis.class_variances(r, v_m)
            ref = metrics.closed_form("sp", r, v_m)
            sims = [_scores(variances, *pair)[0] for pair in singles]
            record("single_player", (r, v_m), (1, 2), sims, (ref, ref))
            for eta, sweep in zip(eta_values, sweeps):
                refs = metrics.ff_cp_column(r, v_m, eta, gains)
                sims = _scores(variances, *sweep)
                record("feedforward_tv", (r, v_m, eta), gains, sims, refs)
            if v_m != 0.0:
                continue
            sims = _scores(variances, *psa2)
            record("psa2_tv", (), (r,), sims, [metrics.closed_form("psa2_cp", r)])
            sim = tuple(_scores(variances, *pair)[0].fidelity for pair in fidelities)
            ref = (metrics.fidelity_closed_form("ff", r, DEFAULT_MEANS),
                   metrics.fidelity_closed_form("psa2", r))
            record("feedforward_fidelity", (), (r,), [sim], [ref])

    return {
        "pass": not failures,
        "tolerance": VERIFY_TOLERANCE,
        "families": families,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Output formatting.


def _records_to_csv(rows: list[dict], columns: Sequence[str]) -> str:
    # floats print as repr, None as an empty cell, and a cell holding a comma is quoted
    import csv
    buf = io.StringIO()
    writer = csv.DictWriter(buf, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _render(rows: list[dict], columns: Sequence[str], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        text = _records_to_csv(rows, columns)
    else:
        import json
        payload = rows[0] if len(rows) == 1 else rows
        text = json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing.


def _parse_gain(text: str):
    if text == "optimal":
        return "optimal"
    return float(text)


def _parse_squeezing_pct(text: str) -> float:
    """--squeezing-pct read as the r it names."""
    try:
        return r_from_squeezing_pct(float(text) / 100.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        group.add_argument("--r", type=float, default=0.0, help="squeezing parameter")
        group.add_argument(
            "--squeezing-pct", type=_parse_squeezing_pct, dest="r", metavar="SQUEEZING_PCT",
            help="squeezing as a percentage, alternative to --r",
        )

    def add_scenario(p: argparse.ArgumentParser) -> None:
        p.add_argument("--eta", type=float, default=1.0)
        p.add_argument("--means", type=float, nargs=2, default=DEFAULT_MEANS,
                       metavar=("XPLUS", "XMINUS"), dest="secret_means")
        p.add_argument("--source", choices=("type1", "type2"), default="type1")

    run_p = sub.add_parser("run", help="run a single scenario")
    run_p.add_argument("--scheme", choices=SCHEMES)
    add_squeezing(run_p)
    run_p.add_argument("--vm-db", type=float, help="added modulation, dB above shot noise")
    run_p.add_argument("--gain", type=_parse_gain, help='loop gain, or "optimal"')
    add_scenario(run_p)
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
    add_scenario(tv_p)
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
    import json
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


def main(argv: Sequence[str] | None = None) -> int:
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
            fields = {**vars(args), "secret_means": tuple(args.secret_means)}
            cfg = ScenarioConfig(**{name: fields[name] for name in ScenarioConfig._fields})
            _render([run_scenario(cfg)], CSV_COLUMNS, args.format, args.output)
            return 0
        if args.command == "tv-curve":
            vm_dbs: list[float | None] = [None]
            if args.vm_db is not None:
                vm_dbs.append(args.vm_db)
            rows = tv_curve_records(
                args.r, args.gains, vm_dbs, args.eta, tuple(args.secret_means), args.source
            )
            _render(rows, CSV_COLUMNS, args.format, args.output)
            return 0
        if args.command == "table":
            rows = table_entries(args.r_large, args.vm_db_large, args.cap)
            _render(rows, TABLE_COLUMNS, args.format, args.output)
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
