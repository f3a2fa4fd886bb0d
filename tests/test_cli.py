"""CLI subcommands: run, tv-curve, table, verify; determinism and exit codes."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqss.metrics
from cvqss import (
    FF_GAIN_OPTIMAL,
    EprSource,
    Quad,
    collaboration_beams,
    reconstruct_12,
    reconstruct_ff,
    single_quadrature_readout,
    tv_point,
    variance,
)
from cvqss.cli import (
    CSV_COLUMNS,
    ScenarioConfig,
    main,
    run_scenario,
    table_entries,
    tv_curve_records,
    verify_grid,
)

from conftest import dealt

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
NONZERO_MEAN = st.one_of(st.floats(-5.0, -0.5), st.floats(0.5, 5.0))


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return header, rows


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


class TestRunCommand:
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


def _table_by_subset(r_large, vm_db_large, cap, means):
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
            psi, shares = dealt(r, v_m, means=means)
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
        means=st.tuples(NONZERO_MEAN, NONZERO_MEAN),
    )
    def test_matches_one_deal_per_entry(self, r_large, vm_db_large, cap, means):
        expected = _table_by_subset(r_large, vm_db_large, cap, means)
        assert repr(table_entries(r_large, vm_db_large, cap, means)) == repr(expected)

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

    def test_json_renders_infinity_as_null(self, capsys):
        assert main(["table", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        noisy = [r for r in rows if r["subset"] == "1" and r["condition"] == "clas_noise"][0]
        assert noisy["v_q"] is None


class TestVerify:
    def test_pristine_build_passes(self, capsys):
        assert main(["verify"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is True
        assert summary["failures"] == []
        for family in ("feedforward_tv", "single_player", "psa2_tv", "feedforward_fidelity"):
            assert summary["families"][family]["max_deviation"] < 1e-9

    def test_flipped_sign_fixture_fails_with_named_tuple(self, capsys, monkeypatch):
        true_form = cvqss.metrics.closed_form

        def flipped(scheme, r, v_m=0.0, eta=1.0, gain=None):
            t_q, v_q = true_form(scheme, r, v_m, eta, gain)
            if scheme == "ff_cp":
                v_q = -v_q
            return t_q, v_q

        monkeypatch.setattr(cvqss.metrics, "closed_form", flipped)
        assert main(["verify"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is False
        assert summary["failures"]
        first = summary["failures"][0]
        assert first["family"] == "feedforward_tv"
        assert {"r", "v_m", "eta", "gain"} <= set(first["params"])

    def test_verify_grid_shape(self):
        summary = verify_grid(r_values=(0.0, 0.5), vm_values=(0.0,), eta_values=(1.0,),
                              gains=(0.0, TWO_SQRT2))
        assert summary["pass"] is True
        assert summary["families"]["feedforward_tv"]["count"] == 4


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
    ["table", "--r-large", "400"],
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
