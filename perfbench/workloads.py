"""The three benchmark workloads: seeded inputs, one op each, and output oracles.

Inputs come only from ``random.Random(seed)``; the package sees nothing but
those inputs.  cvqss is reached only through its public functions, looked up
on the module at call time, so that the tracer's rebinding takes effect.

Each workload keeps a pool of inputs and op ``i`` uses entry
``i % len(pool)``; loops run whole passes over the pool, so per-op call
counts are exact.  For verify-grid and scenario-mix every entry has the same
structure (the same schemes, sources and branches; only the numbers differ).
For cli-process the pool is the seeded 20-command mix.

The oracles do not use the code under test: T_q/V_q of each row with a
closed form are compared with ``metrics.closed_form`` (bound here before any
tracer rebinds it), the rest with physical facts (exact {1,2}
reconstruction, no transfer from share 3 alone).  Fidelity values and CLI
bytes are not pinned: fidelity is only required to lie in [0, 1].
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SCHEMES = (
    "mz12",
    "psa2",
    "feedforward",
    "single_player_1",
    "single_player_2",
    "single_player_3",
    "single_quadrature",
)
GAIN_KINDS = ("default", "number", "optimal")

# The absolute VERIFY_TOLERANCE oracle holds on the shipped verify range:
# r in [0, 4] and modulation up to 20 dB (v_m = 100).
R_MAX = 4.0
VM_DB_MAX = 20.0
POOL = 4  # input sets per run for the in-process workloads
CHILD_TIMEOUT_S = 120.0
TABLE_ATOL = 1e-4  # table entries are rounded to 4 decimals
TABLE_CAP = 1e6

_cvqss = None


def import_cvqss():
    """Import cvqss from this checkout's ``src`` and bind the oracle functions.

    Raises ImportError when the checkout has no package, or when another
    copy would be imported instead.
    """
    global _cvqss
    if _cvqss is None:
        if not (SRC / "cvqss" / "__init__.py").is_file():
            raise ImportError(f"no cvqss package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import cvqss.cli
        import cvqss.metrics
        import cvqss.protocol

        if Path(cvqss.__file__).resolve().parent != (SRC / "cvqss").resolve():
            raise ImportError(f"cvqss imported from {cvqss.__file__}, not {SRC}")
        _cvqss = {
            "cli": cvqss.cli,
            "metrics": cvqss.metrics,
            # Bound once, so oracles never run through a traced wrapper.
            "closed_form": cvqss.metrics.closed_form,
            "tolerance": cvqss.cli.VERIFY_TOLERANCE,
            "psa_gain": cvqss.protocol.PSA_GAIN_OPTIMAL,
            "ff_gain": cvqss.protocol.FF_GAIN_OPTIMAL,
        }
    return _cvqss


def digest(pool) -> str:
    """Short SHA-256 of the generated inputs, recorded with every result."""
    text = json.dumps(pool, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Seeded input generators.  They emit only inputs.


def _means(rng: random.Random) -> list[float]:
    return [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 5.0) for _ in range(2)]


def _gains(rng: random.Random, n: int = 17) -> list[float]:
    """Monotone gains in [0, 8]; the zero gain takes the loop's bypass branch."""
    return [0.0] + sorted(rng.uniform(0.0, 8.0) for _ in range(n - 1))


def make_scenario(rng: random.Random, scheme: str, kind: str, j: int) -> dict:
    """One run_scenario input.  The index j fixes the branch pattern, so that
    every pool entry takes the same code paths."""
    if kind == "default":
        gain = None
    elif kind == "optimal":
        gain = "optimal"
    elif scheme == "psa2":
        gain = rng.uniform(1.5, 10.0)
    elif scheme == "single_quadrature":
        gain = rng.uniform(-3.0, 3.0)
    else:
        gain = rng.uniform(0.0, 8.0)
    return {
        "scheme": scheme,
        "r": rng.uniform(0.0, R_MAX),
        # The two-PSA closed form assumes a dealer without modulation.
        "vm_db": None if scheme == "psa2" or j % 2 == 0 else rng.uniform(0.0, VM_DB_MAX),
        "eta": 1.0 if kind == "default" else rng.uniform(0.6, 1.0),
        "gain": gain,
        "secret_means": _means(rng),
        "source": "type2" if (j // 2) % 2 else "type1",
        "quad": "minus" if j % 2 else "plus",
        "epsilon": rng.uniform(0.001, 0.1)
        if scheme == "feedforward" and kind == "default"
        else 0.0,
    }


def make_tv(rng: random.Random) -> dict:
    return {
        "r": rng.uniform(0.0, R_MAX),
        "gains": _gains(rng),
        "vm_dbs": [None, rng.uniform(0.0, VM_DB_MAX)],
        "eta": rng.uniform(0.6, 1.0),
        "secret_means": _means(rng),
        "source": "type1",
    }


def verify_grid_inputs(seed: int) -> list[dict]:
    """Grids of the shipped shape: 6 r, 3 v_m (with 0), 2 eta, 17 gains."""
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL):
        pool.append(
            {
                "r_values": [0.0] + sorted(rng.uniform(0.0, R_MAX) for _ in range(4)) + [R_MAX],
                "vm_values": [0.0, rng.uniform(0.5, 5.0), rng.uniform(20.0, 100.0)],
                "eta_values": [1.0, rng.uniform(0.6, 0.99)],
                "gains": _gains(rng),
            }
        )
    return pool


def scenario_mix_inputs(seed: int) -> list[dict]:
    """Figure sets: 7 schemes x 3 gain kinds, then one tv-curve sweep."""
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL):
        scenarios = [
            make_scenario(rng, scheme, kind, 3 * i + k)
            for i, scheme in enumerate(SCHEMES)
            for k, kind in enumerate(GAIN_KINDS)
        ]
        pool.append({"scenarios": scenarios, "tv": make_tv(rng)})
    return pool


def _run_argv(sc: dict, use_pct: bool, fmt: str) -> list[str]:
    argv = ["run", "--scheme", sc["scheme"]]
    if use_pct:
        argv += ["--squeezing-pct", repr(100.0 * (1.0 - math.exp(-2.0 * sc["r"])))]
    else:
        argv += ["--r", repr(sc["r"])]
    if sc["vm_db"] is not None:
        argv += ["--vm-db", repr(sc["vm_db"])]
    argv += ["--eta", repr(sc["eta"])]
    if sc["gain"] is not None:
        argv += ["--gain", sc["gain"] if isinstance(sc["gain"], str) else repr(sc["gain"])]
    argv += ["--means", *map(repr, sc["secret_means"])]
    argv += ["--source", sc["source"], "--quad", sc["quad"]]
    if sc["epsilon"]:
        argv += ["--epsilon", repr(sc["epsilon"])]
    return argv + ["--format", fmt]


def cli_commands(seed: int) -> list[dict]:
    """20 commands: 14 run (every scheme twice), 1 tv-curve, 1 table, 4 verify.

    Child wall times on a shared 2-vCPU x86-64 machine under Python 3.11:
    run ~190 ms, tv-curve and table ~210 ms, verify ~320 ms.  With 70% run, 10% tv-curve/table and 20% verify, the
    median falls inside the run block and the 90th percentile in the middle
    of the verify block, away from any boundary between two commands.
    """
    rng = random.Random(seed)
    commands = []
    for i, scheme in enumerate(SCHEMES):
        for n, (use_pct, fmt) in enumerate(((False, "csv"), (True, "json"))):
            sc = make_scenario(rng, scheme, GAIN_KINDS[(i + n) % 3], 2 * i + n)
            commands.append({"kind": "run", "argv": _run_argv(sc, use_pct, fmt), "scenario": sc})
    tv = make_tv(rng)
    commands.append(
        {
            "kind": "tv-curve",
            "argv": [
                "tv-curve",
                "--r", repr(tv["r"]),
                "--gains", ",".join(map(repr, tv["gains"])),
                "--vm-db", repr(tv["vm_dbs"][1]),
                "--eta", repr(tv["eta"]),
                "--means", *map(repr, tv["secret_means"]),
                "--source", tv["source"],
            ],
            "tv": tv,
        }
    )
    commands.append({"kind": "table", "argv": ["table", "--format", "json"]})
    commands += [{"kind": "verify", "argv": ["verify"]} for _ in range(4)]
    rng.shuffle(commands)
    # The warm-up op is pool[0]; keep it a run command for every seed.
    first_run = next(i for i, c in enumerate(commands) if c["kind"] == "run")
    commands[0], commands[first_run] = commands[first_run], commands[0]
    return commands


# ---------------------------------------------------------------------------
# Oracles.  Each returns a list of problems; empty means correct.


def _v_m(vm_db) -> float:
    return 0.0 if vm_db is None else 10.0 ** (vm_db / 10.0)


def _close(a, b, atol: float, rtol: float = 0.0) -> bool:
    if a == b:  # also covers matching infinities
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * abs(b)


def check_run_row(sc: dict, row: dict) -> list[str]:
    """Oracle for one run_scenario record against its scenario input."""
    ox = import_cvqss()
    cf, tol = ox["closed_form"], ox["tolerance"]
    scheme = sc["scheme"]
    where = f"{scheme}(r={sc['r']!r})"
    if row.get("scheme") != scheme:
        return [f"{where}: scheme echoed as {row.get('scheme')!r}"]
    problems = []
    r, eta, gain = row["r"], row["eta"], row["gain"]
    t_q, v_q = row["t_q"], row["v_q"]
    if not _close(r, sc["r"], 1e-9) or eta != sc["eta"]:
        problems.append(f"{where}: r/eta echoed as {r!r}/{eta!r}")
    if not (math.isfinite(t_q) and -tol <= t_q <= 2.0 + tol):
        problems.append(f"{where}: t_q={t_q!r} outside [0, 2]")
    v_m = _v_m(sc["vm_db"])
    ref, rtol = None, 0.0
    if scheme == "feedforward" and sc["epsilon"] == 0.0:
        ref = cf("ff_cp", r, v_m, eta, gain)
        if sc["gain"] == "optimal":
            for g in (gain - 1e-3, gain + 1e-3):
                if 0.0 <= g <= 8.0 and cf("ff_cp", r, v_m, eta, g)[0] > ref[0] + 1e-12:
                    problems.append(f"{where}: optimal gain {gain!r} is not a local T_q maximum")
    elif scheme == "psa2" and sc["gain"] in (None, "optimal"):
        if gain != ox["psa_gain"]:
            problems.append(f"{where}: psa2 gain {gain!r} is not the cancellation gain")
        ref = cf("psa2_cp", r)
    elif scheme in ("single_player_1", "single_player_2"):
        ref = cf("sp", r, v_m)
    elif scheme == "single_player_3":
        # Share 3 alone carries no secret; its noise is the EPR beam plus modulation.
        ref, rtol = (0.0, (math.cosh(2.0 * r) + v_m) ** 2), tol
    elif scheme == "mz12":
        ref = (2.0, 0.0)
    elif scheme == "single_quadrature" and v_q != math.inf:
        problems.append(f"{where}: single-quadrature V_q={v_q!r}, expected inf")
    if ref is not None and not (
        _close(t_q, ref[0], tol) and _close(v_q, ref[1], tol, rtol)
    ):
        problems.append(f"{where}: (T_q, V_q)=({t_q!r}, {v_q!r}) vs closed form {ref!r}")
    fid = row["fidelity"]
    if scheme != "single_quadrature" and not (math.isfinite(fid) and -tol <= fid <= 1.0 + tol):
        problems.append(f"{where}: fidelity={fid!r} outside [0, 1]")
    return problems


def check_tv_rows(tv: dict, rows: list[dict]) -> list[str]:
    n = len(tv["vm_dbs"]) * (len(tv["gains"]) + 1)
    if len(rows) != n:
        return [f"tv-curve: {len(rows)} rows, expected {n}"]
    problems = []
    it = iter(rows)
    base = {k: tv[k] for k in ("r", "eta", "secret_means", "source")}
    for vm_db in tv["vm_dbs"]:
        for g in tv["gains"]:
            row = next(it)
            if row.get("gain") != g:
                problems.append(f"tv-curve: gain {row.get('gain')!r}, expected {g!r}")
            sc = {**base, "scheme": "feedforward", "vm_db": vm_db, "gain": g, "epsilon": 0.0}
            problems += check_run_row(sc, row)
        sc = {**base, "scheme": "single_player_1", "vm_db": vm_db, "gain": None, "epsilon": 0.0}
        problems += check_run_row(sc, next(it))
    return problems


def check_table(rows: list[dict]) -> list[str]:
    """The 24-entry table against closed forms at r = 8 and 60 dB."""
    ox = import_cvqss()
    cf = ox["closed_form"]
    conditions = {
        "clas_nonoise": (0.0, 0.0),
        "clas_noise": (0.0, 1e6),
        "quan_nonoise": (8.0, 0.0),
        "quan_noise": (8.0, 1e6),
    }
    subsets = ("1", "2", "3", "{1,2}", "{1,3}", "{2,3}")
    seen = sorted((row.get("subset"), row.get("condition")) for row in rows)
    if seen != sorted((s, c) for s in subsets for c in conditions):
        return [f"table: unexpected entries {seen!r}"]
    problems = []
    for row in rows:
        r, v_m = conditions[row["condition"]]
        subset = row["subset"]
        if subset in ("1", "2"):
            ref = cf("sp", r, v_m)
        elif subset == "3":
            ref = (0.0, (math.cosh(2.0 * r) + v_m) ** 2)
        elif subset == "{1,2}":
            ref = (2.0, 0.0)
        else:
            ff = cf("ff_cp", r, v_m, 1.0, ox["ff_gain"])
            direct = cf("sp", r, v_m)
            ref = ff if ff[0] >= direct[0] else direct
        t_q, v_q = row["t_q"], row["v_q"]
        ok = _close(t_q, ref[0], TABLE_ATOL)
        if ref[1] > TABLE_CAP * (1 + 1e-6):
            ok = ok and v_q == math.inf
        elif ref[1] < TABLE_CAP * (1 - 1e-6):
            ok = ok and _close(v_q, ref[1], TABLE_ATOL, 1e-9)
        if not ok:
            problems.append(f"table {subset}/{row['condition']}: ({t_q!r}, {v_q!r}) vs {ref!r}")
    return problems


def check_verify(summary: dict, shape: tuple[int, int, int, int]) -> list[str]:
    """Pass flag and the counts of the closed-form families.

    The fidelity family is left unchecked: its reference is fidelity code.
    """
    n_r, n_vm, n_eta, n_g = shape
    expected = {
        "single_player": 2 * n_r * n_vm,
        "feedforward_tv": n_r * n_vm * n_eta * n_g,
        "psa2_tv": n_r,
    }
    problems = []
    if summary.get("pass") is not True or summary.get("failures"):
        problems.append(f"verify: pass={summary.get('pass')!r}, failures={summary.get('failures')!r}")
    families = summary.get("families", {})
    for family, count in expected.items():
        got = families.get(family, {}).get("count")
        if got != count:
            problems.append(f"verify: family {family} checked {got!r} points, expected {count}")
    return problems


def check_crossover(p: float) -> list[str]:
    # The paper's crossover sits near 42% squeezing.
    return [] if 0.35 < p < 0.5 else [f"crossover at {p!r}, expected about 0.42"]


# ---------------------------------------------------------------------------
# Workloads.


class VerifyGrid:
    """One op is one cli.verify_grid call over a seeded grid of the shipped shape."""

    name = "verify-grid"
    subprocess_ops = False

    def __init__(self) -> None:
        self.cli = import_cvqss()["cli"]

    def inputs(self, seed: int) -> list[dict]:
        return verify_grid_inputs(seed)

    def op(self, grid: dict):
        return self.cli.verify_grid(
            grid["r_values"], grid["vm_values"], grid["eta_values"], grid["gains"]
        )

    inproc_op = op

    def check(self, grid: dict, out) -> list[str]:
        shape = tuple(len(grid[k]) for k in ("r_values", "vm_values", "eta_values", "gains"))
        return check_verify(out, shape)

    @staticmethod
    def key(out):
        return out


class ScenarioMix:
    """One op is one figure set: 21 scenarios, a tv-curve sweep, the table
    and the crossover search."""

    name = "scenario-mix"
    subprocess_ops = False

    def __init__(self) -> None:
        ox = import_cvqss()
        self.cli, self.metrics = ox["cli"], ox["metrics"]

    def inputs(self, seed: int) -> list[dict]:
        return scenario_mix_inputs(seed)

    def op(self, figure: dict):
        cli = self.cli
        rows = [
            cli.run_scenario(
                cli.ScenarioConfig(
                    sc["scheme"], sc["r"], sc["vm_db"], sc["eta"], sc["gain"],
                    tuple(sc["secret_means"]), sc["source"], sc["quad"], sc["epsilon"],
                )
            )
            for sc in figure["scenarios"]
        ]
        tv = figure["tv"]
        tv_rows = cli.tv_curve_records(
            tv["r"], tv["gains"], tv["vm_dbs"], tv["eta"], tuple(tv["secret_means"]), tv["source"]
        )
        return {
            "scenarios": rows,
            "tv": tv_rows,
            "table": cli.table_entries(),
            "crossover": self.metrics.crossover_squeezing(),
        }

    inproc_op = op

    def check(self, figure: dict, out) -> list[str]:
        problems = []
        for sc, row in zip(figure["scenarios"], out["scenarios"]):
            problems += check_run_row(sc, row)
        if len(out["scenarios"]) != len(figure["scenarios"]):
            problems.append("scenario count mismatch")
        problems += check_tv_rows(figure["tv"], out["tv"])
        problems += check_table(out["table"])
        problems += check_crossover(out["crossover"])
        return problems

    @staticmethod
    def key(out):
        return out


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(_parse_cell, line.split(",")))) for line in lines[1:]]


def _json_row(row: dict) -> dict:
    """JSON output writes non-finite floats as null; read them back as inf."""
    return {k: math.inf if v is None and k != "vm_db" else v for k, v in row.items()}


class CliProcess:
    """One op is one child ``python -m cvqss.cli <command>`` with PYTHONPATH=src."""

    name = "cli-process"
    subprocess_ops = True

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH="src")

    def inputs(self, seed: int) -> list[dict]:
        return cli_commands(seed)

    def op(self, command: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, "-m", "cvqss.cli", *command["argv"]],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def inproc_op(self, command: dict) -> dict:
        """The same command through cli.main in this process, stdout captured."""
        cli = import_cvqss()["cli"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(command["argv"]))
        return {"rc": rc, "stdout": buf.getvalue(), "stderr": ""}

    def check(self, command: dict, out: dict) -> list[str]:
        kind = command["kind"]
        if out["rc"] != 0:
            return [f"{kind}: exit code {out['rc']}: {out['stderr'][-500:]}"]
        try:
            if kind == "run":
                fmt = command["argv"][command["argv"].index("--format") + 1]
                text = out["stdout"]
                row = _parse_csv(text)[0] if fmt == "csv" else _json_row(json.loads(text))
                return check_run_row(command["scenario"], row)
            if kind == "tv-curve":
                return check_tv_rows(command["tv"], _parse_csv(out["stdout"]))
            if kind == "table":
                return check_table([_json_row(r) for r in json.loads(out["stdout"])])
            return check_verify(json.loads(out["stdout"]), (6, 3, 2, 17))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{kind}: unparseable output ({exc!r})"]

    @staticmethod
    def key(out: dict):
        return out["rc"], out["stdout"]


WORKLOADS = {w.name: w for w in (VerifyGrid, ScenarioMix, CliProcess)}


def make(name: str):
    return WORKLOADS[name]()
