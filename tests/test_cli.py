"""CLI subcommands: run, tv-curve, table, verify; determinism and exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqss.cli
import cvqss.metrics
import cvqss.noise
import cvqss.protocol
from cvqss import (
    FF_GAIN_OPTIMAL,
    FF_SYMPLECTIC_SCALE,
    PSA_GAIN_OPTIMAL,
    DealerConfig,
    EprSource,
    Metrics,
    NoiseBasis,
    Quad,
    collaboration_beams,
    conditional_variance,
    covariance,
    evaluate,
    fidelity,
    optimal_gain,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    single_quadrature_readout,
    squeezing_pct,
    symplectic_correct,
    transfer_coefficient,
    tv_point,
    variance,
)
from cvqss.cli import (
    CSV_COLUMNS,
    DEFAULT_MEANS,
    MAX_VM_DB,
    SCHEMES,
    ScenarioConfig,
    VERIFY_TOLERANCE,
    main,
    run_scenario,
    table_entries,
    tv_curve_records,
    verify_grid,
)
from cvqss.noise import MAX_SQUEEZING

from conftest import SECRET_MEANS, dealt

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
NONZERO_MEAN = st.one_of(st.floats(-5.0, -0.5), st.floats(0.5, 5.0))


def parse_csv(text):
    header, *rows = csv.reader(text.splitlines())
    return header, [dict(zip(header, row, strict=True)) for row in rows]


class TestRunScenario:
    def test_mach_zehnder_record(self):
        rec = run_scenario(ScenarioConfig("mz12", r=0.7, vm_db=20.0))
        assert rec["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert rec["t_q"] == pytest.approx(2.0, abs=1e-12)
        assert rec["v_q"] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_classical_feedforward(self):
        rec = run_scenario(ScenarioConfig("feedforward", r=0.0, vm_db=20.0, gain=TWO_SQRT2))
        assert rec["t_q"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rec["v_q"] == pytest.approx(4.0, abs=1e-12)

    def test_secretless_single_player(self):
        rec = run_scenario(ScenarioConfig("single_player_3", r=0.0))
        assert rec["t_q"] == 0.0
        # share 3 is vacuum at r = 0: F(|alpha>, |0>) = e^{-|alpha|^2}, |alpha|^2 = 5
        assert rec["fidelity"] == math.exp(-5.0)
        assert rec["v_q"] == pytest.approx(1.0, abs=1e-12)

    def test_optimal_gain_resolution(self):
        rec = run_scenario(ScenarioConfig("feedforward", r=8.0, gain="optimal"))
        assert rec["gain"] == pytest.approx(TWO_SQRT2, abs=1e-6)
        rec = run_scenario(ScenarioConfig("psa2", r=0.5, gain="optimal"))
        assert rec["gain"] == pytest.approx((math.sqrt(2) + 1) / (math.sqrt(2) - 1), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        r=st.floats(0.0, 4.0),
        vm_db=st.one_of(st.none(), st.floats(0.0, 20.0)),
        quad=st.sampled_from(("plus", "minus")),
        source=st.sampled_from(("type1", "type2")),
    )
    def test_optimal_readout_gain_minimises_the_estimator_variance(self, r, vm_db, quad, source):
        cfg = ScenarioConfig(
            "single_quadrature", r, vm_db, gain="optimal", quad=quad, source=source
        )
        g = run_scenario(cfg)["gain"]
        _, shares = dealt(r, cfg.v_m, EprSource(source))
        q = Quad.PLUS if quad == "plus" else Quad.MINUS
        best = variance(single_quadrature_readout(shares, g), q)
        for nudged in (g - 1e-6, g + 1e-6):
            assert variance(single_quadrature_readout(shares, nudged), q) >= best

    def test_optimal_gain_for_fixed_gain_schemes_is_the_default(self):
        for scheme in ("mz12", "psa2", "single_player_1", "single_player_2"):
            default = run_scenario(ScenarioConfig(scheme, r=0.5, vm_db=10.0))
            optimal = run_scenario(ScenarioConfig(scheme, r=0.5, vm_db=10.0, gain="optimal"))
            assert optimal == default

    def test_single_quadrature_reports_one_quadrature_only(self):
        rec = run_scenario(ScenarioConfig("single_quadrature", r=0.5, gain=-0.5, quad="plus"))
        assert rec["t_plus"] > 0.0
        assert rec["t_minus"] == 0.0
        assert math.isinf(rec["v_q"])
        assert rec["fidelity"] == 0.0

    def test_finite_mixing_flag_degrades_feedforward(self):
        exact = run_scenario(ScenarioConfig("feedforward", r=0.5, gain=TWO_SQRT2))
        leaky = run_scenario(ScenarioConfig("feedforward", r=0.5, gain=TWO_SQRT2, epsilon=0.05))
        assert leaky["t_q"] < exact["t_q"]
        assert leaky["v_q"] > exact["v_q"]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig("bogus"))
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig("mz12", r=-1.0))
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig("mz12", vm_db=-3.0))
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig("feedforward", eta=0.0))
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig("feedforward", epsilon=1.0))

    @pytest.mark.parametrize("field, value", [
        ("scheme", "bogus"),
        ("r", -1.0),
        ("r", math.nan),
        ("r", 400.0),  # above MAX_SQUEEZING: e^(2r) overflows
        ("vm_db", -3.0),
        ("vm_db", math.inf),
        ("eta", 0.0),
        ("eta", 1.5),
        ("gain", math.nan),
        pytest.param("gain", 2**2000, id="gain-huge-int"),  # an int no float holds
        pytest.param("vm_db", -2**2000, id="vm_db-huge-int"),
        pytest.param("secret_means", (1.0, 2**2000), id="secret_means-huge-int"),
        ("secret_means", (math.nan, 1.0)),
        ("source", "type3"),
        ("quad", "both"),
        ("epsilon", 1.0),
        ("epsilon", -0.1),
        ("gain", "best"),
        ("gain", True),
        ("gain", False),
    ])
    def test_invalid_field_rejected_when_built(self, field, value):
        with pytest.raises(ValueError):
            ScenarioConfig(**{"scheme": "feedforward", field: value})

    @pytest.mark.parametrize("field, value", [
        ("r", "0.5"),
        ("r", True),
        ("vm_db", "10"),
        ("vm_db", False),
        ("eta", None),
        ("eta", True),
        ("epsilon", False),
        ("epsilon", "0.1"),
        ("secret_means", ("a", 1.0)),
        ("secret_means", (1.0, True)),
        ("secret_means", (1.0,)),
        ("secret_means", (1.0, 2.0, 3.0)),
        ("secret_means", None),
        ("secret_means", 5.0),
    ])
    def test_numbers_must_be_real_when_built(self, field, value):
        with pytest.raises(ValueError, match="real numbers"):
            ScenarioConfig(**{"scheme": "feedforward", field: value})
        with pytest.raises(ValueError, match="real numbers"):
            ScenarioConfig("feedforward")._replace(**{field: value})

    def test_integer_numbers_are_accepted(self):
        ints = ScenarioConfig("feedforward", 1, 10, 1, None, (4, 2), epsilon=0)
        floats = ScenarioConfig("feedforward", 1.0, 10.0, 1.0, None, (4.0, 2.0), epsilon=0.0)
        assert run_scenario(ints)["v_q"] == run_scenario(floats)["v_q"]


def _per_scheme_scenario(cfg):
    """Reference run_scenario: a fresh deal at (r, v_m), gain resolution and dispatch
    written out per scheme name, and the scores of evaluate or, for the one
    quadrature of a readout, of transfer_coefficient and conditional_variance."""
    psi, shares = dealt(cfg.r, cfg.v_m, EprSource(cfg.source), cfg.secret_means)
    g = cfg.gain
    if g == "optimal" and cfg.scheme == "feedforward":
        gain = optimal_gain(cfg.r, cfg.v_m, cfg.eta, objective="max_tq")
    elif g == "optimal" and cfg.scheme == "single_quadrature":
        quad = cfg.quadrature
        # + 0.0: an uncorrelated pair's gain is 0.0, not -0.0
        gain = -covariance(shares.share2, shares.share3, quad) / variance(shares.share3, quad) + 0.0
    elif g is not None and g != "optimal":
        gain = float(g)
    else:
        gain = {"psa2": PSA_GAIN_OPTIMAL, "feedforward": FF_GAIN_OPTIMAL}.get(cfg.scheme, 0.0)
    if cfg.scheme == "single_quadrature":
        out = single_quadrature_readout(shares, gain)
    elif cfg.scheme == "mz12":
        out = reconstruct_12(shares)
    elif cfg.scheme == "psa2":
        out = reconstruct_2psa(shares, gain)
    elif cfg.scheme == "feedforward":
        out = reconstruct_ff(shares, gain, cfg.eta, epsilon=cfg.epsilon)
    else:
        out = shares.share(int(cfg.scheme[-1]))
    if cfg.scheme != "single_quadrature":
        m = evaluate(psi, out)
        scores = (m.t_plus, m.t_minus, m.t_q, m.vcv_plus, m.vcv_minus, m.v_q, m.fidelity)
    else:
        quad, inf = cfg.quadrature, math.inf
        t, vcv = transfer_coefficient(psi, out, quad), conditional_variance(psi, out, quad)
        scores = (t, 0.0, t, vcv, inf, inf, 0.0) if cfg.quad == "plus" else (
            0.0, t, t, inf, vcv, inf, 0.0)
    config = (cfg.scheme, cfg.r, 100.0 * squeezing_pct(cfg.r), cfg.vm_db, cfg.eta, gain)
    return dict(zip(CSV_COLUMNS, config + scores, strict=True))


@pytest.mark.parametrize("gain", [None, 1.7, "optimal"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_table_matches_per_scheme_dispatch(scheme, gain):
    for source, quad, epsilon in (("type1", "plus", 0.0), ("type2", "minus", 0.1)):
        cfg = ScenarioConfig(
            scheme, 0.6, 10.0, 0.9, gain, (-1.5, 3.0), source, quad, epsilon
        )
        # repr tells 1 from 1.0 and -0.0 from 0.0, as the CLI output does
        assert repr(run_scenario(cfg)) == repr(_per_scheme_scenario(cfg))


@settings(max_examples=60, deadline=None)
@given(
    r=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
    vm_db=st.one_of(st.none(), st.floats(0.0, 60.0)),
    eta=st.one_of(st.just(1.0), st.floats(0.1, 1.0)),
    gain=st.one_of(st.none(), st.just("optimal"), st.floats(0.0, 8.0)),
    means=st.tuples(NONZERO_MEAN, NONZERO_MEAN),
    source=st.sampled_from(("type1", "type2")),
    quad=st.sampled_from(("plus", "minus")),
    epsilon=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)
def test_every_scheme_scores_as_a_fresh_deal(r, vm_db, eta, gain, means, source, quad, epsilon):
    for scheme in SCHEMES:
        cfg = ScenarioConfig(scheme, r, vm_db, eta, gain, means, source, quad, epsilon)
        try:
            expected = _per_scheme_scenario(cfg)
        except ValueError as exc:  # an input that both paths refuse
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                run_scenario(cfg)
            continue
        try:
            record = run_scenario(cfg)
        except ValueError as exc:  # a score overflowed, and the fresh deal's did as well
            assert not math.isfinite(expected[str(exc).split()[0]])
            continue
        assert repr(record) == repr(expected)


def every_scenario():
    """A run_scenario input for every scheme, source, quad, epsilon and gain kind."""
    return [
        ScenarioConfig(scheme, 0.6, 10.0, 0.9, gain, (-1.5, 3.0), source, quad, epsilon)
        for scheme in SCHEMES for source in ("type1", "type2") for quad in ("plus", "minus")
        for epsilon in (0.0, 0.1) for gain in (None, 1.7, "optimal")
    ]


def test_run_deals_and_registers_nothing_after_a_warm_up(monkeypatch):
    for source in ("type1", "type2"):
        run_scenario(ScenarioConfig("mz12", source=source))

    def refuse(*args):
        raise AssertionError("run dealt or registered a mode")

    monkeypatch.setattr(cvqss.protocol, "deal", refuse)
    monkeypatch.setattr(NoiseBasis, "register", refuse)
    records = [run_scenario(cfg) for cfg in every_scenario()]
    assert len(records) == 168


class TestRunCommand:
    def test_an_uncorrelated_pairs_optimal_readout_gain_prints_as_zero(self, capsys):
        # at r = 0 and no modulation the X+ of share 2 and share 3 are
        # uncorrelated: -cov/var is -0.0 there, which used to print as the gain
        code = main(["run", "--scheme", "single_quadrature", "--gain", "optimal", "--r", "0"])
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["gain"] == "0.0"

    def test_csv_schema_and_values(self, capsys):
        code = main([
            "run", "--scheme", "feedforward", "--r", "0", "--vm-db", "20",
            "--gain", str(TWO_SQRT2),
        ])
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == list(CSV_COLUMNS)
        assert float(rows[0]["t_q"]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert float(rows[0]["v_q"]) == pytest.approx(4.0, abs=1e-12)

    def test_json_output(self, capsys):
        code = main(["run", "--scheme", "mz12", "--r", "1", "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert rec["vm_db"] is None

    def test_byte_identical_outputs(self, tmp_path):
        args = ["run", "--scheme", "feedforward", "--r", "0.37", "--vm-db", "13",
                "--eta", "0.93", "--gain", "1.7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_squeezing_pct_alternative(self, capsys):
        code = main(["run", "--scheme", "mz12", "--squeezing-pct", "40"])
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["squeezing_pct"]) == pytest.approx(40.0, abs=1e-9)

    @pytest.mark.parametrize("command", [["run", "--scheme", "mz12"], ["tv-curve"]])
    def test_no_squeezing_prints_r_as_a_positive_zero(self, command, capsys):
        # -0.5 * log(1.0 - 0.0) is -0.0
        assert main([*command, "--squeezing-pct", "0"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert {row["r"] for row in rows} == {"0.0"}

    def test_config_file_provides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "mz12", "r": 0.5}))
        assert main(["run", "--config", str(cfg)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["scheme"] == "mz12"
        assert float(rows[0]["r"]) == 0.5

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "mz12", "r": 0.5}))
        assert main(["run", "--config", str(cfg), "--r", "1.5"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["r"]) == 1.5

    def test_config_values_are_typed_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "mz12", "r": "0.5", "means": [1, -2]}))
        assert main(["run", "--config", str(cfg), "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["r"] == 0.5

    def test_missing_scheme_is_a_usage_error(self, capsys):
        assert main(["run", "--r", "0.5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_options_are_named_as_the_scenario_fields(self):
        # so main builds its ScenarioConfig by field name, with no option mapped by hand
        args = cvqss.cli._build_parser().parse_args(["run"])
        assert set(vars(args)) == {*ScenarioConfig._fields, "command", "format", "output", "config"}

    def test_unknown_scheme_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheme", "nonsense"])
        assert excinfo.value.code == 2


class TestTvCurve:
    def test_sweep_rows_and_star_point(self):
        rows = tv_curve_records(0.0, [0.0, 1.0, 2.0], [None])
        assert [r["scheme"] for r in rows] == ["feedforward"] * 3 + ["single_player_1"]
        star = rows[-1]
        assert star["t_q"] == pytest.approx(1.0, abs=1e-12)
        assert star["v_q"] == pytest.approx(0.25, abs=1e-12)

    def test_strong_squeezing_passes_near_ideal(self):
        rows = tv_curve_records(8.0, [0.0, TWO_SQRT2], [None])
        best = rows[1]
        assert best["t_q"] == pytest.approx(2.0, abs=1e-6)
        assert best["v_q"] == pytest.approx(0.0, abs=1e-6)

    def test_zero_gain_row_is_the_kept_beam(self):
        rows = tv_curve_records(0.5, [0.0], [20.0])
        row = [r for r in rows if r["scheme"] == "feedforward" and r["vm_db"] == 20.0][0]
        psi, shares = dealt(0.5, 100.0)
        kept, _ = collaboration_beams(shares)
        t_q, v_q = tv_point(psi, kept)
        assert row["t_q"] == pytest.approx(t_q, abs=1e-12)
        assert row["v_q"] == pytest.approx(v_q, abs=1e-12)

    def test_noise_family_added_on_request(self, capsys):
        code = main(["tv-curve", "--r", "0.5", "--gains", "0,1,2", "--vm-db", "20"])
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 8  # two families of 3 gains + one star each
        assert {r["vm_db"] for r in rows} == {"", "20.0"}

    def test_empty_or_unsorted_sweeps_rejected(self):
        with pytest.raises(ValueError):
            tv_curve_records(0.5, [], [None])
        with pytest.raises(ValueError):
            tv_curve_records(0.5, [2.0, 1.0], [None])

    @pytest.mark.parametrize("bad, message, loop_message", [
        (True, "must be real numbers", "must be real numbers"),
        # run's ScenarioConfig checks the gain itself; tv-curve leaves it to the loop
        (2**2000, "^gain must be finite$",
         "feedforward gain must be finite and nonnegative"),
    ], ids=["bool", "huge_int"])
    def test_a_gain_run_would_refuse_is_refused(self, bad, message, loop_message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig("feedforward", 0.5, gain=bad)
        with pytest.raises(ValueError, match=loop_message):
            tv_curve_records(0.5, [0, bad], [None])

    @pytest.mark.parametrize("r", [-1.0, math.nan, 400.0, True])
    def test_squeezing_is_checked_without_any_family(self, r):
        with pytest.raises(ValueError):
            tv_curve_records(r, [1.0], [])

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.0, 4.0),
        gains=st.lists(st.one_of(st.integers(0, 6), st.floats(0.0, 8.0)), max_size=5).map(
            lambda gs: sorted([0, *gs])
        ),
        vm_db=st.one_of(st.none(), st.floats(0.0, 30.0)),
        eta=st.floats(0.5, 1.0),
        means=st.tuples(NONZERO_MEAN, NONZERO_MEAN),
        source=st.sampled_from(("type1", "type2")),
    )
    def test_rows_are_the_run_scenario_records(self, r, gains, vm_db, eta, means, source):
        vm_dbs = [None, vm_db]
        expected = []
        for v in vm_dbs:
            for g in gains:
                expected.append(
                    run_scenario(ScenarioConfig("feedforward", r, v, eta, g, means, source))
                )
            expected.append(
                run_scenario(ScenarioConfig("single_player_1", r, v, eta, None, means, source))
            )
        # repr tells 1 from 1.0 and -0.0 from 0.0, as the CLI output does
        assert repr(tv_curve_records(r, gains, vm_dbs, eta, means, source)) == repr(expected)


def _capture_scores(monkeypatch):
    """Record every score the CLI's drivers compute, in order."""
    scored = []
    real = cvqss.cli._scores

    def capturing(*args):
        result = real(*args)
        scored.extend(result)
        return result

    monkeypatch.setattr(cvqss.cli, "_scores", capturing)
    return scored


def _table_by_subset(r_large, vm_db_large, cap):
    """Reference table: one deal per (subset, condition) entry."""
    conditions = (
        ("clas_nonoise", 0.0, 0.0),
        ("clas_noise", 0.0, 10.0 ** (vm_db_large / 10.0)),
        ("quan_nonoise", r_large, 0.0),
        ("quan_noise", r_large, 10.0 ** (vm_db_large / 10.0)),
    )
    rows = []
    for subset in ("1", "2", "3", "{1,2}", "{1,3}", "{2,3}"):
        for cond, r, v_m in conditions:
            psi, shares = dealt(r, v_m)
            if subset in ("1", "2", "3"):
                t_q, v_q = tv_point(psi, shares.share(int(subset)))
            elif subset == "{1,2}":
                t_q, v_q = tv_point(psi, reconstruct_12(shares))
            else:
                players = (1, 3) if subset == "{1,3}" else (2, 3)
                ff = tv_point(psi, reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0, players))
                direct = tv_point(psi, shares.share(players[0]))
                t_q, v_q = ff if ff[0] >= direct[0] else direct
            rows.append(
                {
                    "subset": subset,
                    "condition": cond,
                    "t_q": round(t_q, 4),
                    "v_q": float("inf") if v_q > cap else round(v_q, 4),
                }
            )
    return rows


class TestTable:
    @settings(max_examples=30, deadline=None)
    @given(
        r_large=st.floats(0.0, 8.0),
        vm_db_large=st.floats(0.0, 60.0),
        cap=st.floats(1.0, 1e7),
    )
    def test_matches_one_deal_per_entry(self, r_large, vm_db_large, cap):
        expected = _table_by_subset(r_large, vm_db_large, cap)
        assert repr(table_entries(r_large, vm_db_large, cap)) == repr(expected)

    def test_unrounded_points_are_a_fresh_deals(self, monkeypatch):
        scored = _capture_scores(monkeypatch)
        table_entries(2.0, 20.0)
        fresh = []
        for r, v_m in ((0.0, 0.0), (0.0, 100.0), (2.0, 0.0), (2.0, 100.0)):
            psi, shares = dealt(r, v_m)
            outs = [*shares[:3], reconstruct_12(shares)]
            outs += [reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0, pair) for pair in ((1, 3), (2, 3))]
            fresh += [tv_point(psi, out) for out in outs]
        assert repr(scored) == repr(fresh)

    @pytest.mark.parametrize("kwargs, message", [
        ({"vm_db_large": -5.0}, "--vm-db-large must be at least 0 "),
        ({"vm_db_large": -1e-300}, "--vm-db-large must be at least 0 "),
        ({"cap": -1.0}, "--cap must be nonnegative"),
        ({"cap": math.nan}, "--cap must be nonnegative"),
    ])
    def test_a_negative_depth_or_cap_is_rejected(self, kwargs, message):
        # a depth of -5 dB would give a table at v_m = 0.316, and a cap of -1
        # would print every V_q as inf, the exact 0 of {1,2} included
        with pytest.raises(ValueError, match=re.escape(message)):
            table_entries(**kwargs)

    @pytest.mark.parametrize("args", [(2.0, "60"), (2.0, 10.0, "x"), (2.0, True), (2.0, 10.0, True)])
    def test_a_depth_or_cap_that_is_not_a_real_number_is_rejected(self, args):
        with pytest.raises(ValueError, match="must be real numbers"):
            table_entries(*args)

    def test_zero_depth_and_cap_are_accepted(self):
        rows = {(r["subset"], r["condition"]): r for r in table_entries(2.0, 0.0, 0.0)}
        assert rows[("{1,2}", "quan_nonoise")]["v_q"] == 0.0
        assert rows[("1", "quan_nonoise")]["v_q"] == math.inf

    def test_has_24_entries(self):
        rows = table_entries()
        assert len(rows) == 24

    def test_quantum_access_is_ideal(self):
        rows = {(r["subset"], r["condition"]): r for r in table_entries()}
        assert rows[("{1,3}", "quan_noise")]["t_q"] == pytest.approx(2.0)
        assert rows[("{1,3}", "quan_noise")]["v_q"] == pytest.approx(0.0)
        assert rows[("{1,2}", "clas_noise")]["t_q"] == pytest.approx(2.0)

    def test_classical_noisy_access_point(self):
        rows = {(r["subset"], r["condition"]): r for r in table_entries()}
        assert rows[("{2,3}", "clas_noise")]["t_q"] == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert rows[("{2,3}", "clas_noise")]["v_q"] == pytest.approx(4.0, abs=1e-4)

    def test_classical_quiet_adversary_point(self):
        rows = {(r["subset"], r["condition"]): r for r in table_entries()}
        assert rows[("1", "clas_nonoise")]["t_q"] == pytest.approx(1.0)
        assert rows[("1", "clas_nonoise")]["v_q"] == pytest.approx(0.25)
        assert rows[("3", "clas_nonoise")]["t_q"] == 0.0
        assert rows[("3", "clas_nonoise")]["v_q"] == pytest.approx(1.0)

    def test_classical_quiet_access_uses_direct_measurement(self):
        rows = {(r["subset"], r["condition"]): r for r in table_entries()}
        assert rows[("{2,3}", "clas_nonoise")]["t_q"] == pytest.approx(1.0)
        assert rows[("{2,3}", "clas_nonoise")]["v_q"] == pytest.approx(0.25)

    def test_infinity_rendering(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        header, rows = parse_csv(out)
        assert header == ["subset", "condition", "t_q", "v_q"]
        noisy_adversary = [
            r for r in rows if r["subset"] == "1" and r["condition"] == "clas_noise"
        ][0]
        assert noisy_adversary["v_q"] == "inf"

    def test_csv_quotes_subsets_and_matches_the_json_golden(self, capsys):
        assert main(["table"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        golden = json.loads((Path(__file__).parent / "golden" / "table.json").read_text())
        assert len(rows) == len(golden) == 24
        for row, entry in zip(rows, golden):
            assert list(row) == ["subset", "condition", "t_q", "v_q"]
            assert None not in row.values()  # no cell spilled past the header
            v_q = math.inf if entry["v_q"] is None else entry["v_q"]
            assert (row["subset"], row["condition"]) == (entry["subset"], entry["condition"])
            assert (float(row["t_q"]), float(row["v_q"])) == (entry["t_q"], v_q)

    def test_an_infinite_cap_caps_nothing(self, capsys):
        assert main(["table", "--cap", "inf"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = table_entries(cap=math.inf)
        assert all(row["v_q"] != math.inf for row in rows)
        assert captured.out == cvqss.cli._records_to_csv(
            rows, ("subset", "condition", "t_q", "v_q")
        )

    def test_a_nan_cap_is_refused_by_name(self, capsys):
        assert main(["table", "--cap", "nan"]) == 2
        assert capsys.readouterr().err == "cvqss: error: --cap must be nonnegative\n"

    def test_json_renders_infinity_as_null(self, capsys):
        assert main(["table", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        noisy = [r for r in rows if r["subset"] == "1" and r["condition"] == "clas_noise"][0]
        assert noisy["v_q"] is None


def _verify_by_point(r_values, vm_values, eta_values, gains):
    """verify_grid's summary from a fresh deal and a single-gain closed form
    per point, recorded a point at a time: the reference for its bookkeeping."""
    cf = cvqss.metrics.closed_form
    families, failures = {}, []

    def record(family, params, sim, ref):
        d_t, d_v = abs(sim[0] - ref[0]), abs(sim[1] - ref[1])
        deviation = math.inf if math.isnan(d_t + d_v) else max(d_t, d_v)
        fam = families.setdefault(family, {"max_deviation": 0.0, "count": 0, "worst": None})
        fam["count"] += 1
        if deviation > fam["max_deviation"]:
            fam["max_deviation"], fam["worst"] = deviation, dict(params)
        if deviation > VERIFY_TOLERANCE:
            failures.append({"family": family, "params": dict(params), "deviation": deviation})

    for r in r_values:
        for v_m in vm_values:
            psi, shares = dealt(r, v_m, means=DEFAULT_MEANS)
            for player in (1, 2):
                record("single_player", {"r": r, "v_m": v_m, "player": player},
                       tv_point(psi, shares.share(player)), cf("sp", r, v_m))
            for eta in eta_values:
                for g in gains:
                    record("feedforward_tv", {"r": r, "v_m": v_m, "eta": eta, "gain": g},
                           tv_point(psi, reconstruct_ff(shares, g, eta)), cf("ff_cp", r, v_m, eta, g))
            if v_m != 0.0:
                continue
            record("psa2_tv", {"r": r}, tv_point(psi, reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)),
                   cf("psa2_cp", r))
            out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
            sim = (fidelity(psi, out), fidelity(psi, symplectic_correct(out, FF_SYMPLECTIC_SCALE)))
            ref = (cvqss.metrics.fidelity_closed_form("ff", r, DEFAULT_MEANS),
                   cvqss.metrics.fidelity_closed_form("psa2", r))
            record("feedforward_fidelity", {"r": r}, sim, ref)
    return {"pass": not failures, "tolerance": VERIFY_TOLERANCE, "families": families,
            "failures": failures}


class TestVerify:
    def test_pristine_build_passes(self, capsys):
        assert main(["verify"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is True
        assert summary["failures"] == []
        for family in ("feedforward_tv", "single_player", "psa2_tv", "feedforward_fidelity"):
            assert summary["families"][family]["max_deviation"] < 1e-9

    def test_flipped_sign_fixture_fails_with_named_tuple(self, capsys, monkeypatch):
        true_column = cvqss.metrics.ff_cp_column

        def flipped(r, v_m, eta, gains):
            return [(t_q, -v_q) for t_q, v_q in true_column(r, v_m, eta, gains)]

        monkeypatch.setattr(cvqss.metrics, "ff_cp_column", flipped)
        assert main(["verify"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is False
        assert summary["failures"]
        first = summary["failures"][0]
        assert first["family"] == "feedforward_tv"
        assert {"r", "v_m", "eta", "gain"} <= set(first["params"])

    def test_a_nan_deviation_is_a_failure(self, monkeypatch):
        true_form = cvqss.metrics.closed_form

        def nan_sp(scheme, *args, **kwargs):
            t_q, v_q = true_form(scheme, *args, **kwargs)
            return (t_q, math.nan) if scheme == "sp" else (t_q, v_q)

        monkeypatch.setattr(cvqss.metrics, "closed_form", nan_sp)
        summary = verify_grid(r_values=(0.0, 0.5), vm_values=(0.0,), eta_values=(1.0,),
                              gains=(TWO_SQRT2,))
        assert summary["pass"] is False
        failed = [(f["family"], f["params"]["player"]) for f in summary["failures"]]
        assert failed == [("single_player", 1), ("single_player", 2)] * 2
        assert all(f["deviation"] == math.inf for f in summary["failures"])
        assert summary["families"]["single_player"]["max_deviation"] == math.inf

    def test_squeezing_past_the_single_player_overflow_fails_instead_of_raising(self):
        summary = verify_grid(r_values=(200.0,), vm_values=(0.0,), eta_values=(1.0,),
                              gains=(TWO_SQRT2,))
        assert summary["pass"] is False
        players = [f["params"]["player"] for f in summary["failures"]
                   if f["family"] == "single_player"]
        assert players == [1, 2]

    @pytest.mark.parametrize("r", [True, -1.0, math.nan, 400.0])
    def test_a_point_the_dealer_rejects_is_rejected(self, r):
        with pytest.raises(ValueError):
            verify_grid(r_values=(r,), vm_values=(0.0,), eta_values=(1.0,), gains=(1.0,))

    @pytest.mark.parametrize("grid", [
        {"eta_values": (2.0,), "gains": ()},
        {"eta_values": (), "gains": (-1.0,)},
    ])
    def test_a_loop_parameter_is_checked_without_a_column_to_score(self, grid):
        with pytest.raises(ValueError):
            verify_grid(**grid)

    def test_verify_grid_shape(self):
        summary = verify_grid(r_values=(0.0, 0.5), vm_values=(0.0,), eta_values=(1.0,),
                              gains=(0.0, TWO_SQRT2))
        assert summary["pass"] is True
        assert summary["families"]["feedforward_tv"]["count"] == 4

    def test_each_dealer_configuration_is_dealt_once(self, monkeypatch):
        # no coefficient depends on (r, v_m): the one dealt share set scores
        # every point, and after a warm-up no mode is registered and nothing dealt
        verify_grid(r_values=(0.5,), vm_values=(0.0,), eta_values=(1.0,), gains=(1.0,))
        calls = []
        real_dealt = cvqss.cli._dealt

        def counting_dealt(*args):
            calls.append(args)
            return real_dealt(*args)

        def refuse(*args):
            raise AssertionError("verify dealt a basis of its own")

        monkeypatch.setattr(cvqss.cli, "_dealt", counting_dealt)
        monkeypatch.setattr(cvqss.protocol, "deal", refuse)
        monkeypatch.setattr(NoiseBasis, "register", refuse)
        summary = verify_grid()
        assert calls == [(DEFAULT_MEANS,)]
        counts = {family: fam["count"] for family, fam in summary["families"].items()}
        assert counts == {
            "single_player": 36, "feedforward_tv": 612, "psa2_tv": 6, "feedforward_fidelity": 6,
        }

    def test_each_point_is_scored_as_a_fresh_deal_would_be(self, monkeypatch):
        grid = {"r_values": (0.0, 0.5, 4.0), "vm_values": (0.0, 1.0, 100.0),
                "eta_values": (1.0, 0.9), "gains": (0.0, 1.5, FF_GAIN_OPTIMAL, 8.0)}
        scored = _capture_scores(monkeypatch)
        assert verify_grid(**grid)["pass"] is True
        fresh = []
        for r in grid["r_values"]:
            for v_m in grid["vm_values"]:
                psi, shares = dealt(r, v_m)
                fresh += [tv_point(psi, shares.share(player)) for player in (1, 2)]
                fresh += [tv_point(psi, reconstruct_ff(shares, g, eta))
                          for eta in grid["eta_values"] for g in grid["gains"]]
                if v_m == 0.0:
                    fresh.append(tv_point(psi, reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)))
                    out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
                    fresh += [fidelity(psi, out),
                              fidelity(psi, symplectic_correct(out, FF_SYMPLECTIC_SCALE))]
        # the fidelity family reads only the fidelity of its Metrics
        scored = [s.fidelity if isinstance(s, Metrics) else s for s in scored]
        assert repr(scored) == repr(fresh)

    # a failing grid (80 failures); and a repeated gain, 8 then 8.0: the two
    # tie, and the family's worst is the first of them (repr tells them apart)
    BOOKKEEPING_GRIDS = {
        "failing": {"r_values": (0, 12, 20), "vm_values": (0, 1e6),
                    "eta_values": cvqss.cli._VERIFY_ETA, "gains": cvqss.cli.DEFAULT_GAIN_GRID},
        "tied": {"r_values": (0.5, 12.0), "vm_values": (0.0, 1e6), "eta_values": (1.0, 0.9),
                 "gains": (1.0, 8, 2.0, 8.0)},
    }

    @pytest.mark.parametrize("name", BOOKKEEPING_GRIDS)
    @pytest.mark.parametrize("nan_gain", [None, 2.0])
    def test_summary_equals_the_per_point_bookkeeping(self, name, nan_gain, monkeypatch):
        grid = self.BOOKKEEPING_GRIDS[name]
        if nan_gain is not None:
            # a NaN reference at one gain, seen alike by ff_cp_column's callers:
            # each such point fails with deviation inf, in point order
            true_column = cvqss.metrics.ff_cp_column

            def nan_at(r, v_m, eta, gains):
                column = true_column(r, v_m, eta, gains)
                return [(t, math.nan) if g == nan_gain else (t, v) for g, (t, v) in zip(gains, column)]

            monkeypatch.setattr(cvqss.metrics, "ff_cp_column", nan_at)
        summary = verify_grid(**grid)
        expected = _verify_by_point(**grid)
        assert repr(summary) == repr(expected)
        ff = summary["families"]["feedforward_tv"]
        if nan_gain is not None:
            assert ff["max_deviation"] == math.inf and ff["worst"]["gain"] == nan_gain
        elif name == "tied":
            assert repr(ff["worst"]["gain"]) == "8"
        else:
            assert len(summary["failures"]) == 80

    def test_an_empty_column_records_nothing(self):
        summary = verify_grid(r_values=(0.0, 0.5), gains=())
        assert "feedforward_tv" not in summary["families"]
        assert repr(summary) == repr(
            _verify_by_point((0.0, 0.5), (0.0, 1.0, 100.0), (1.0, 0.9), ())
        )
        assert verify_grid(r_values=()) == {
            "pass": True, "tolerance": VERIFY_TOLERANCE, "families": {}, "failures": [],
        }
        assert set(verify_grid(eta_values=())["families"]) == {
            "single_player", "psa2_tv", "feedforward_fidelity",
        }

    def test_unmodulated_families_are_checked_only_where_v_m_is_zero(self):
        grid = {"r_values": (0.0, 0.5), "eta_values": (1.0,), "gains": (TWO_SQRT2,)}
        summary = verify_grid(vm_values=(1.0,), **grid)
        assert summary["pass"] is True
        assert set(summary["families"]) == {"single_player", "feedforward_tv"}
        summary = verify_grid(vm_values=(1.0, 0.0), **grid)
        assert summary["families"]["psa2_tv"]["count"] == 2
        assert summary["families"]["feedforward_fidelity"]["count"] == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


BAD_CONFIGS = {
    "command": {"command": "verify", "scheme": "mz12"},
    "untyped": {"scheme": "mz12", "r": "half"},
    "choice": {"scheme": "mz12", "format": "xml"},
    "unknown_key": {"scheme": "mz12", "colour": "blue"},
    "nested": {"scheme": "mz12", "means": {"x": 1}},
    "not_an_object": [1, 2],
}

BAD_ARGV = [
    ["run", "--scheme", "feedforward", "--r", "nan"],
    ["run", "--scheme", "feedforward", "--r", "inf"],
    ["run", "--scheme", "feedforward", "--vm-db", "nan"],
    ["run", "--scheme", "feedforward", "--eta", "nan"],
    ["run", "--scheme", "feedforward", "--gain", "nan"],
    ["run", "--scheme", "feedforward", "--gain", "-inf"],
    ["run", "--scheme", "feedforward", "--means", "nan", "1"],
    ["run", "--scheme", "feedforward", "--epsilon", "nan"],
    ["run", "--scheme", "mz12", "--r", "400"],
    ["run", "--scheme", "mz12", "--r", "1", "--squeezing-pct", "10"],
    ["tv-curve", "--r", "1", "--squeezing-pct", "10"],
    ["tv-curve", "--gains", "0,nan"],
    ["tv-curve", "--r", "0.5", "--vm-db", "inf"],
    ["tv-curve", "--r", "0.5", "--vm-db", "-3"],
    ["table", "--r-large", "nan"],
    ["table", "--vm-db-large", "inf"],
    ["table", "--cap", "nan"],
    ["table", "--cap", "-1"],
    ["table", "--vm-db-large", "-5"],
    ["table", "--r-large", "400"],
    # a nonzero secret mean whose square underflows: the input SNR is 0
    *[["run", "--scheme", scheme, "--means", "1e-200", "1"] for scheme in SCHEMES],
    ["tv-curve", "--means", "1e-170", "1"],
]


@pytest.mark.parametrize(
    "argv, config",
    [(argv, None) for argv in BAD_ARGV] + [(["run"], cfg) for cfg in BAD_CONFIGS.values()],
    ids=[" ".join(argv) for argv in BAD_ARGV] + [f"config-{k}" for k in BAD_CONFIGS],
)
def test_bad_input_is_a_usage_error(argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cvqss: error" in captured.err or "usage:" in captured.err


@pytest.mark.parametrize("argv, column", [
    (["run", "--scheme", "feedforward", "--means", "1e200", "1"], "t_plus"),
    (["run", "--scheme", "feedforward", "--gain", "1e200"], "t_plus"),
    (["run", "--scheme", "psa2", "--gain", "1e308"], "t_plus"),
    (["tv-curve", "--gains", "0,1e200"], "t_plus"),
    # V+ and V- are finite, their product is not
    (["run", "--scheme", "single_player_1", "--vm-db", "3082"], "v_q"),
    (["run", "--scheme", "single_player_3", "--vm-db", "1600"], "v_q"),
    # the quadrature single_quadrature reads overflows; the other is inf by design
    (["run", "--scheme", "single_quadrature", "--vm-db", "3082", "--gain", "10"], "vcv_plus"),
    (["run", "--scheme", "single_quadrature", "--quad", "minus", "--vm-db", "3082",
      "--gain", "10"], "vcv_minus"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_scores_are_a_usage_error_naming_the_column(argv, column, fmt, capsys):
    # JSON would print these NaN and inf scores as null
    assert _exit_code(argv + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cvqss: error: {column} came out ")


def test_a_psa2_gain_whose_reciprocal_overflows_is_a_usage_error_saying_so(capsys):
    # the gain is positive: it is the deamplifier's 1/G that overflows
    assert _exit_code(["run", "--scheme", "psa2", "--r", "0.5", "--gain", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "cvqss: error: PSA gain is too small: the deamplifier's gain 1/G overflows\n")


@pytest.mark.parametrize("argv, option", [
    (["run", "--scheme", "feedforward", "--vm-db", "1e6"], "--vm-db"),
    (["tv-curve", "--vm-db", "1e6"], "--vm-db"),
    (["table", "--vm-db-large", "1e6"], "--vm-db-large"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_overflowing_modulation_depth_names_the_option_and_limit(argv, option, capsys):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cvqss: error: {option} must be ")
    assert captured.err.endswith(f" below {MAX_VM_DB!r} dB\n")


@pytest.mark.parametrize("argv, option", [
    (["run", "--scheme", "feedforward", "--vm-db", "-5"], "--vm-db"),
    (["tv-curve", "--vm-db", "-5"], "--vm-db"),
    (["table", "--vm-db-large", "-5"], "--vm-db-large"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_negative_modulation_depth_names_the_option_and_range(argv, option, capsys):
    # table refuses a depth below 0 dB, as run and tv-curve do
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cvqss: error: {option} must be at least 0 and below {MAX_VM_DB!r} dB\n"


@pytest.mark.parametrize("value", ["-1", "nan", "400"])
def test_a_squeezing_out_of_range_names_the_option_and_range(value, capsys):
    assert _exit_code(["table", "--r-large", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cvqss: error: --r-large must be at least 0 and at most {MAX_SQUEEZING!r}\n"


def test_modulation_depth_limit_is_where_the_power_overflows():
    below = math.nextafter(MAX_VM_DB, 0.0)
    assert math.isfinite(ScenarioConfig("feedforward", vm_db=below).v_m)
    with pytest.raises(OverflowError):
        10.0 ** (MAX_VM_DB / 10.0)
    with pytest.raises(ValueError, match="--vm-db must be "):
        ScenarioConfig("feedforward", vm_db=MAX_VM_DB)
    with pytest.raises(ValueError, match="--vm-db-large must be "):
        table_entries(vm_db_large=MAX_VM_DB)


class TestDealtCopy:
    """_dealt gives each (r, v_m) the one set of shares per source dealt at
    (0, 0), with fresh means, and run_scenario scores it under that basis's
    class_variances(r, v_m): its beams must be a fresh deal's, bit for bit,
    and no scheme may change that template."""

    @staticmethod
    def beams(secret, shares):
        return repr((
            [(s.mean_plus, s.mean_minus, list(s.coeffs_plus.items()), list(s.coeffs_minus.items()))
             for s in (secret, *shares[:3])],
            shares[3:],
        ))

    @staticmethod
    def tables(basis):
        return repr((len(basis), basis._kinds, list(basis._classes.items()),
                     list(basis._class_ids.items()), basis._class_variances))

    @settings(max_examples=150, deadline=None)
    @given(
        r=st.one_of(st.just(0.0), st.integers(0, 20), st.floats(0.0, 20.0)),
        v_m=st.one_of(st.sampled_from([0.0, 1.0, 0, 1]), st.floats(0.0, 1e6)),
        means=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))] * 2),
        source=st.sampled_from(EprSource),
    )
    def test_equals_a_fresh_deal(self, r, v_m, means, source):
        secret, shares = cvqss.cli._dealt(means, source)
        psi, fresh = dealt(r, v_m, source, means)
        assert self.beams(secret, shares) == self.beams(psi, fresh)
        basis = secret.basis
        assert (basis._kinds, basis._classes) == (psi.basis._kinds, psi.basis._classes)
        assert repr(basis.class_variances(r, v_m)) == repr(psi.basis._class_variances)

    @pytest.mark.parametrize("source", EprSource)
    def test_an_oscillator_vacuum_lands_where_a_fresh_basis_puts_it(self, source):
        template = cvqss.protocol._dealer(source)[0].basis
        beams = []
        for secret, shares in (cvqss.cli._dealt(SECRET_MEANS, source), dealt(0.5, 2.0, source)):
            assert len(secret.basis) == 6  # deal declared the oscillator vacuum
            out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 0.9, epsilon=0.1)
            assert len(secret.basis) == 6  # and the reconstruction registered none
            beams.append(self.beams(out, shares))
        assert beams[0] == beams[1]
        assert len(template) == 6

    @pytest.mark.parametrize("source", EprSource)
    def test_no_scheme_changes_the_template(self, source):
        secret, shares = cvqss.protocol._dealer(source)
        before = self.tables(secret.basis) + self.beams(secret, shares)
        for cfg in every_scenario():
            run_scenario(cfg)
        assert self.tables(secret.basis) + self.beams(secret, shares) == before


def test_protocol_builds_beams_and_metrics_alone_scores_them():
    """Only metrics tallies coefficients or reads variance classes: protocol
    returns beams, and cli drives both through their entry points."""
    assert not {"_tally", "_cross", "Tally", "_scores", "_pair"} & vars(cvqss.protocol).keys()
    noise_private = {name for name in vars(cvqss.noise) if name[:1] == "_" and name[:2] != "__"}
    assert "_derived_field" in noise_private
    assert not noise_private & vars(cvqss.cli).keys()
    assert not {"_tally", "_moments", "_transfer", "_FfGains"} & vars(cvqss.cli).keys()
    source = Path(cvqss.cli.__file__).read_text(encoding="utf-8")
    assert [line for line in source.splitlines() if "._classes" in line] == []


def test_the_cli_runs_as_a_process():
    """python -m cvqss.cli goes through entrypoint's sys.exit and the __main__ guard."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def cli(*args):
        command = [sys.executable, "-m", "cvqss.cli", "run", "--scheme", "mz12", *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    ok = cli("--r", "0.5")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("scheme,r,")
    refused = cli("--r", "nan")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert [line for line in refused.stderr.splitlines() if line.startswith("cvqss: error:")] == [
        "cvqss: error: squeezing and modulation power must be finite and nonnegative"]
    assert "Traceback" not in refused.stderr
