"""Beam splitters, phase-sensitive amplification, detection, feedforward."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqss import (
    EprSource,
    ModeKind,
    NoiseBasis,
    Quad,
    beam_splitter,
    detect,
    feedforward_mix,
    field_from_mode,
    lincomb,
    optics,
    phase_modulate,
    phase_shift,
    psa_ideal,
    psa_type2_pair,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    variance,
)
from cvqss.optics import WEIGHTS

from conftest import dealt, fields_close

SQRT2 = math.sqrt(2.0)
# The splitter reflectivities and whole eighth turns of phase that optics.WEIGHTS holds.
REFLECTIVITIES = st.sampled_from([0.5, 2 / 3])
EIGHTH_TURNS = st.integers(-4, 4)


class TestBeamSplitter:
    def test_balanced_split_coefficients(self, basis):
        a = field_from_mode(basis, basis.vacuum())
        b = field_from_mode(basis, basis.vacuum())
        out1, out2 = beam_splitter(a, b, 0.5)
        assert fields_close(out1, lincomb([(1 / SQRT2, a), (1 / SQRT2, b)]))
        assert fields_close(out2, lincomb([(1 / SQRT2, a), (-1 / SQRT2, b)]))

    def test_constructive_destructive_interference(self, basis):
        a = field_from_mode(basis, basis.vacuum(), 4.0, 0.0)
        b = field_from_mode(basis, basis.vacuum(), 4.0, 0.0)
        out1, out2 = beam_splitter(a, b, 0.5)
        assert out1.mean_plus == pytest.approx(4.0 * SQRT2, abs=1e-12)
        assert out2.mean_plus == pytest.approx(0.0, abs=1e-12)

    def test_reflectivity_out_of_range(self, basis):
        a = field_from_mode(basis, basis.vacuum())
        b = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError):
            beam_splitter(a, b, 1.2)

    def test_mach_zehnder_is_identity(self, basis):
        a = field_from_mode(basis, basis.squeezed(0.7), 1.0, -2.0)
        b = field_from_mode(basis, basis.vacuum(), 0.5, 0.0)
        o1, o2 = beam_splitter(a, b, 0.5)
        back1, back2 = beam_splitter(o1, o2, 0.5)
        assert fields_close(back1, a)

    @settings(max_examples=50)
    @given(
        refl=REFLECTIVITIES,
        phase=st.sampled_from([0, 4]),
        w=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_weight_conservation_real_mixes(self, refl, phase, w):
        basis = NoiseBasis()
        a = field_from_mode(basis, basis.vacuum())
        b = lincomb([(w, field_from_mode(basis, basis.squeezed(0.5)))])
        out1, out2 = beam_splitter(a, b, refl, phase)
        for quad in Quad:
            before = sum(c * c for c in a.coeffs(quad).values()) + sum(
                c * c for c in b.coeffs(quad).values()
            )
            after = sum(c * c for c in out1.coeffs(quad).values()) + sum(
                c * c for c in out2.coeffs(quad).values()
            )
            assert after == pytest.approx(before, abs=1e-10)


class TestPhaseShift:
    def test_quarter_turn_swaps_quadratures(self, basis):
        fld = field_from_mode(basis, basis.vacuum(), 3.0, 1.0)
        rot = phase_shift(fld, 2)
        assert rot.mean_plus == pytest.approx(-1.0, abs=1e-12)
        assert rot.mean_minus == pytest.approx(3.0, abs=1e-12)

    def test_full_turn_is_identity(self, basis):
        fld = field_from_mode(basis, basis.squeezed(0.4), 1.0, 2.0)
        assert fields_close(phase_shift(phase_shift(fld, 4), 4), fld)


class TestWeightTable:
    """optics.WEIGHTS against exact values, and the keys the network reads from it."""

    def test_every_entry_is_within_2_to_the_minus_52_of_its_exact_value(self):
        # cos(pi/2) and sin(pi) keep residues of 6.1e-17 and 1.2e-16 in floats
        sympy = pytest.importorskip("sympy")
        reflectivities = {0.5: sympy.Rational(1, 2), 2 / 3: sympy.Rational(2, 3)}
        assert set(WEIGHTS) == {*reflectivities, *range(-4, 5)}
        for key, entry in WEIGHTS.items():
            if type(key) is float:
                big_r = reflectivities[key]
                exact = (sympy.sqrt(1 - big_r), sympy.sqrt(big_r))
            else:
                c, s = sympy.cos(sympy.pi * key / 4), sympy.sin(sympy.pi * key / 4)
                exact = (c, -s, s, c)
            assert len(entry) == len(exact), key
            for x, e in zip(entry, exact):
                assert type(x) is float
                assert abs(sympy.Rational(x) - e).evalf(40) <= 2.0 ** -52, (key, x, e)

    def test_the_network_reads_both_splitters_and_its_four_phases(self, monkeypatch):
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        monkeypatch.setattr(optics, "WEIGHTS", Recording(WEIGHTS))
        for source in EprSource:
            _, shares = dealt(0.5, 1.0, source)
            reconstruct_12(shares)
            for players in ((2, 3), (1, 3)):
                reconstruct_2psa(shares, 3.0, players)
                reconstruct_ff(shares, 2.0, 0.9, players, 0.1)
        # the reflectivities 1/2 and 2/3; pi/2 and -/+ pi/4 in epr_type1, pi in _mix_pair
        assert read == {0.5, 2 / 3, 2, -1, 1, 4}

    @pytest.mark.parametrize("call", [
        lambda f, g: phase_shift(f, math.pi / 2),
        lambda f, g: phase_shift(f, True),
        lambda f, g: phase_shift(f, 5),
        lambda f, g: phase_shift(f, -5),
        lambda f, g: phase_shift(f, 2.0),
        lambda f, g: beam_splitter(f, g, 0.3),
        lambda f, g: beam_splitter(f, g, 1.2),
        lambda f, g: beam_splitter(f, g, 1.0),  # equal to the int key 1, a rotation's
        lambda f, g: beam_splitter(f, g, 1),
        lambda f, g: beam_splitter(f, g, 0.5, math.pi),
        lambda f, g: beam_splitter(f, g, 0.5, 0.0),
        lambda f, g: beam_splitter(f, g, 0.5, False),
    ], ids=["phase-pi/2", "phase-True", "phase-5", "phase--5", "phase-2.0", "splitter-0.3",
            "splitter-1.2", "splitter-1.0", "splitter-int-1", "splitter-phase-pi",
            "splitter-phase-0.0", "splitter-phase-False"])
    def test_a_weight_the_table_lacks_is_refused(self, basis, call):
        f = field_from_mode(basis, basis.vacuum(), 1.0, 2.0)
        g = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError, match="eighth turns|reflectivity must be 0.5 or 2/3"):
            call(f, g)


class TestPsaIdeal:
    def test_unit_gain_is_identity(self, basis):
        fld = field_from_mode(basis, basis.vacuum(), 2.0, 3.0)
        assert fields_close(psa_ideal(fld, 1.0), fld)

    def test_vacuum_stays_minimum_uncertainty(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        out = psa_ideal(fld, 4.0)
        assert variance(out, Quad.PLUS) == pytest.approx(4.0, abs=1e-12)
        assert variance(out, Quad.MINUS) == pytest.approx(0.25, abs=1e-12)

    def test_nonpositive_gain_rejected(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError):
            psa_ideal(fld, 0.0)

    @given(gain=st.floats(min_value=0.05, max_value=20.0))
    def test_inverse_gain_undoes(self, gain):
        basis = NoiseBasis()
        fld = field_from_mode(basis, basis.squeezed(0.3), 1.5, -0.5)
        assert fields_close(psa_ideal(psa_ideal(fld, gain), 1.0 / gain), fld)


class TestPsaType2:
    def test_zero_interaction_is_identity(self, basis):
        s = field_from_mode(basis, basis.vacuum(), 1.0, 0.0)
        i = field_from_mode(basis, basis.vacuum(), 0.0, 1.0)
        s_out, i_out = psa_type2_pair(s, i, 0.0)
        assert fields_close(s_out, s)
        assert fields_close(i_out, i)

    def test_vacuum_output_variance(self, basis):
        # cosh^2 r + sinh^2 r = cosh 2r = 1.5430806348152437 at r = 0.5
        s = field_from_mode(basis, basis.vacuum())
        i = field_from_mode(basis, basis.vacuum())
        s_out, i_out = psa_type2_pair(s, i, 0.5)
        for fld in (s_out, i_out):
            for quad in Quad:
                assert variance(fld, quad) == pytest.approx(
                    1.5430806348152437, abs=1e-12
                )

    def test_diagonal_mode_sees_pure_phase_sensitive_gain(self, basis):
        # The +45 degree combination (s + i)/sqrt(2) is amplified by e^r in X+.
        s = field_from_mode(basis, basis.vacuum())
        i = field_from_mode(basis, basis.vacuum())
        s_out, i_out = psa_type2_pair(s, i, 0.5)
        p_in = lincomb([(1 / SQRT2, s), (1 / SQRT2, i)])
        p_out = lincomb([(1 / SQRT2, s_out), (1 / SQRT2, i_out)])
        scaled = {src: math.exp(0.5) * c for src, c in p_in.coeffs_plus.items()}
        assert all(
            abs(p_out.coeff(Quad.PLUS, src) - c) < 1e-12 for src, c in scaled.items()
        )

    @given(r=st.floats(min_value=0.0, max_value=3.0))
    def test_correlated_combination_scaling(self, r):
        # (X+_s - X+_i) shrinks by e^{-r}; the orthogonal sum grows by e^{r}.
        basis = NoiseBasis()
        s = field_from_mode(basis, basis.vacuum())
        i = field_from_mode(basis, basis.vacuum())
        s_out, i_out = psa_type2_pair(s, i, r)
        diff = lincomb([(1.0, s_out), (-1.0, i_out)])
        summ = lincomb([(1.0, s_out), (1.0, i_out)])
        assert variance(diff, Quad.PLUS) == pytest.approx(
            2.0 * math.exp(-2.0 * r), rel=1e-12
        )
        assert variance(summ, Quad.PLUS) == pytest.approx(
            2.0 * math.exp(2.0 * r), rel=1e-12
        )


class TestPhaseModulate:
    def test_zero_power_mode_adds_nothing_statistically(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        mod = basis.modulation(0.0)
        out = phase_modulate(fld, mod, +1)
        for quad in Quad:
            assert variance(out, quad) == variance(fld, quad)

    def test_wrong_mode_kind_rejected(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError):
            phase_modulate(fld, basis.vacuum(), +1)

    def test_pair_pattern(self, basis):
        a = field_from_mode(basis, basis.vacuum())
        b = field_from_mode(basis, basis.vacuum())
        mod = basis.modulation(9.0)
        a_m = phase_modulate(a, mod, +1)
        b_m = phase_modulate(b, mod, -1)
        assert a_m.coeff(Quad.PLUS, (mod, Quad.PLUS)) == 1.0
        assert b_m.coeff(Quad.PLUS, (mod, Quad.PLUS)) == -1.0
        assert a_m.coeff(Quad.MINUS, (mod, Quad.MINUS)) == 1.0
        assert b_m.coeff(Quad.MINUS, (mod, Quad.MINUS)) == 1.0


@given(
    r=st.floats(0.0, 2.0),
    phase=EIGHTH_TURNS,
    theta=EIGHTH_TURNS,
)
def test_phase_shift_is_undone_by_its_inverse(r, phase, theta):
    basis = NoiseBasis()
    a = field_from_mode(basis, basis.squeezed(r), 1.5, -2.0)
    b = field_from_mode(basis, basis.vacuum(), 0.5, 1.0)
    fld, _ = beam_splitter(a, b, 2 / 3, phase)
    assert fields_close(phase_shift(phase_shift(fld, theta), -theta), fld, atol=1e-12)


class TestDetect:
    def test_perfect_detection_keeps_coefficients(self, basis):
        fld = field_from_mode(basis, basis.squeezed(0.4), 2.0, 0.0)
        current = detect(fld, 1.0, basis.detector())
        assert current.beam.mean_plus == 2.0
        assert current.beam.coeffs_plus == dict(fld.coeffs_plus)

    def test_dark_detector_is_refused(self, basis):
        # the loop feeds back G / sqrt(eta), so no detector with eta = 0 is built
        fld = field_from_mode(basis, basis.vacuum(), 2.0, 0.0)
        with pytest.raises(ValueError, match=r"detection efficiency must be in \(0, 1\]"):
            detect(fld, 0.0, basis.detector())

    def test_efficiency_out_of_range(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError):
            detect(fld, 1.5, basis.detector())

    def test_requires_detector_mode(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError):
            detect(fld, 0.9, basis.vacuum())


def state(fld):
    """A beam's means and coefficients, in key order, as repr: equal only bit for bit."""
    return repr((fld.mean_plus, fld.mean_minus, list(fld.coeffs_plus.items()),
                 list(fld.coeffs_minus.items())))


class TestFeedforwardMix:
    def test_zero_gain_returns_kept_beam(self, basis):
        b = field_from_mode(basis, basis.vacuum(), 1.0, 1.0)
        c = field_from_mode(basis, basis.vacuum())
        current = detect(c, 1.0, basis.detector())
        assert fields_close(feedforward_mix(b, current, 0.0), b)

    def test_detector_noise_coefficient(self, basis):
        # G sqrt((1-eta)/eta) at G = 2 sqrt(2), eta = 0.9.
        b = field_from_mode(basis, basis.vacuum())
        c = field_from_mode(basis, basis.vacuum())
        d = basis.detector()
        current = detect(c, 0.9, d)
        out = feedforward_mix(b, current, 2.0 * SQRT2)
        assert out.coeff(Quad.PLUS, (d, Quad.PLUS)) == pytest.approx(
            0.9428090415820634, abs=1e-12
        )

    def test_finite_epsilon_admits_the_given_oscillator_vacuum(self, basis):
        b = field_from_mode(basis, basis.squeezed(0.5), 1.0, -1.0)
        c = field_from_mode(basis, basis.vacuum())
        current = detect(c, 0.8, basis.detector())
        lo = basis.vacuum()
        size = len(basis)
        outs = [feedforward_mix(b, current, 1.7, 0.1, lo) for _ in range(2)]
        assert len(basis) == size  # no call registers a mode
        assert state(outs[0]) == state(outs[1])
        for quad in (Quad.PLUS, Quad.MINUS):
            assert outs[0].coeff(quad, (lo, quad)) == math.sqrt(0.1)

    @pytest.mark.parametrize("which", ["none", "kept", "detected", "detector", "squeezed"])
    def test_finite_epsilon_refuses_any_but_a_fresh_vacuum(self, basis, which):
        b = field_from_mode(basis, basis.vacuum(), 1.0, -1.0)
        c = field_from_mode(basis, basis.vacuum())
        d = basis.detector()
        current = detect(c, 0.8, d)
        oscillator = {
            "none": None,
            "kept": next(iter(b.coeffs_plus))[0],
            "detected": next(iter(c.coeffs_plus))[0],
            "detector": d,
            "squeezed": basis.squeezed(0.5),
        }[which]
        with pytest.raises(ValueError, match="oscillator"):
            feedforward_mix(b, current, 1.7, 0.1, oscillator)
        # epsilon = 0 admits no oscillator, so it reads none
        assert state(feedforward_mix(b, current, 1.7, 0.0, oscillator)) == state(
            feedforward_mix(b, current, 1.7))

    def test_zero_epsilon_registers_nothing(self, basis):
        b = field_from_mode(basis, basis.vacuum(), 1.0, 1.0)
        current = detect(field_from_mode(basis, basis.vacuum()), 1.0, basis.detector())
        before = len(basis)
        feedforward_mix(b, current, 1.7)
        feedforward_mix(b, current, 0.0)
        assert len(basis) == before

    def test_phase_quadrature_untouched(self, basis):
        b = field_from_mode(basis, basis.squeezed(0.5), 1.0, -1.0)
        c = field_from_mode(basis, basis.vacuum())
        current = detect(c, 0.8, basis.detector())
        out = feedforward_mix(b, current, 1.7)
        assert out.mean_minus == b.mean_minus
        assert dict(out.coeffs_minus) == dict(b.coeffs_minus)
