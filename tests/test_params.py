import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavspin.params import (CONFIG_KEYS, ConfigError, PhysicalParams, balance_stark,
                            check_validity, decoherence_budget, demo_params,
                            derive, kappa_prime, match_raman, params_from_mapping,
                            params_to_mapping, read_config, stark_shifts)


def rates(min_value=1e-3, max_value=1e3):
    return st.floats(min_value=min_value, max_value=max_value,
                     allow_nan=False, allow_infinity=False)


@st.composite
def generic_params(draw):
    return PhysicalParams(
        n_atoms=draw(st.integers(min_value=1, max_value=10 ** 6)),
        g_a=complex(draw(rates(0.1, 10)), draw(st.floats(-1, 1))),
        g_b=complex(draw(rates(0.1, 10)), draw(st.floats(-1, 1))),
        omega_1=complex(draw(rates(0.1, 100)), draw(st.floats(-10, 10))),
        omega_2=complex(draw(rates(0.1, 100)), draw(st.floats(-10, 10))),
        delta_1=draw(rates(1.0, 1e5)),
        omega_ab=draw(rates(1.0, 1e4)),
        delta=draw(st.floats(-100, 100, allow_nan=False)),
        kappa=draw(rates(0, 100)),
        gamma_a=draw(rates(0, 10)),
        gamma_b=draw(rates(0, 10)),
        gamma_o=draw(rates(0, 10)),
    )


class TestDerive:
    def test_demo_values(self):
        d = derive(demo_params())
        assert d.delta_2 == pytest.approx(1.1e5)
        assert d.gamma_total == pytest.approx(100.0)
        assert d.cooperativity == pytest.approx(100.0)
        # direct evaluation of the broadened cavity rate
        assert d.kappa_prime == pytest.approx(100.0 + 1e8 / (1.1e5 ** 2 + 2500.0),
                                              rel=1e-12)
        assert d.kappa_prime == pytest.approx(100.00826, abs=1e-5)

    def test_no_dissipation_trivial(self):
        p = PhysicalParams(n_atoms=1, delta_1=3.0, omega_ab=1.0)
        d = derive(p)
        assert d.kappa_prime == 0.0
        assert d.gamma_total == 0.0

    def test_chi_matched(self):
        p = PhysicalParams(n_atoms=10, omega_1=2.0, omega_2=2.2, delta_1=10.0,
                           omega_ab=1.0, delta=0.5)
        d = derive(p)
        assert d.chi == pytest.approx(abs(2.0 / 10.0) ** 2 / 0.5, rel=1e-12)

    def test_chi_flagged_absent_when_mismatched(self):
        p = PhysicalParams(n_atoms=10, omega_1=2.0, omega_2=2.0, delta_1=10.0,
                           omega_ab=1.0, delta=0.5)
        assert derive(p).chi is None

    def test_rejects_zero_detuning(self):
        with pytest.raises(ValueError):
            derive(PhysicalParams(n_atoms=1, delta_1=0.0, omega_ab=1.0))
        with pytest.raises(ValueError):
            derive(PhysicalParams(n_atoms=1, delta_1=1.0, omega_ab=-1.0))

    @settings(max_examples=40, deadline=None)
    @given(generic_params(), rates(1e-2, 1e2))
    def test_unit_covariance(self, p, s):
        scaled = PhysicalParams(
            n_atoms=p.n_atoms, g_a=p.g_a * s, g_b=p.g_b * s,
            omega_1=p.omega_1 * s, omega_2=p.omega_2 * s,
            delta_1=p.delta_1 * s, omega_ab=p.omega_ab * s, delta=p.delta * s,
            kappa=p.kappa * s, gamma_a=p.gamma_a * s, gamma_b=p.gamma_b * s,
            gamma_o=p.gamma_o * s)
        d, ds = derive(p), derive(scaled)
        assert ds.kappa_prime == pytest.approx(s * d.kappa_prime, rel=1e-10)
        assert ds.gamma_total == pytest.approx(s * d.gamma_total, rel=1e-10)
        if math.isfinite(d.cooperativity):
            assert ds.cooperativity == pytest.approx(d.cooperativity, rel=1e-10)
        v, vs = check_validity(p), check_validity(scaled)
        for name, value in v.ratios().items():
            assert vs.ratios()[name] == pytest.approx(value, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(generic_params())
    def test_kappa_prime_never_below_kappa(self, p):
        assert kappa_prime(p) >= p.kappa


class TestValidity:
    def test_demo_ratios(self):
        v = check_validity(demo_params())
        assert v.ratio_excited_1 == pytest.approx(2.5e-3, rel=1e-3)
        assert v.verdicts["ratio_excited_1"] == "pass"
        assert v.ratio_freqs == pytest.approx(0.05, rel=1e-6)
        assert v.verdicts["ratio_freqs"] == "warn"
        assert v.verdicts["ratio_cavity"] == "pass"

    def test_equality_case_fails(self):
        p = PhysicalParams(n_atoms=1, omega_1=20.0, delta_1=10.0, omega_ab=5.0)
        v = check_validity(p)
        assert v.ratio_excited_1 == pytest.approx(1.0)
        assert v.verdicts["ratio_excited_1"] == "fail"

    def test_zero_splitting_fails_freq_ratio(self):
        p = PhysicalParams(n_atoms=1, delta_1=10.0, omega_ab=0.0, delta=1.0)
        assert check_validity(p).verdicts["ratio_freqs"] == "fail"


class TestBudget:
    def test_demo_budget(self):
        n_gamma, n_kappa = decoherence_budget(demo_params())
        assert n_gamma == pytest.approx(5e4)
        assert n_kappa == pytest.approx(0.2)

    def test_lossless_cavity(self):
        p = PhysicalParams(n_atoms=5, delta_1=10.0, delta=2.0, gamma_a=1.0)
        assert decoherence_budget(p)[1] == 0.0

    def test_zero_detuning_unbounded(self):
        p = PhysicalParams(n_atoms=5, delta_1=10.0, delta=0.0, kappa=1.0)
        assert math.isinf(decoherence_budget(p)[1])

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            decoherence_budget(PhysicalParams(n_atoms=5, g_a=0.0, delta_1=1.0))


class TestBalanceStark:
    def test_symmetric_detunings(self):
        p = PhysicalParams(n_atoms=1, omega_1=3.0, delta_1=7.0, omega_ab=0.0,
                           gamma_a=2.0)
        assert balance_stark(p) == pytest.approx(3.0)

    def test_demo_value(self):
        assert balance_stark(demo_params()) == pytest.approx(1.0488e4, rel=1e-4)

    def test_no_drive(self):
        p = PhysicalParams(n_atoms=1, omega_1=0.0, delta_1=7.0, omega_ab=1.0)
        assert balance_stark(p) == 0.0

    def test_opposite_signs_rejected(self):
        p = PhysicalParams(n_atoms=1, omega_1=1.0, delta_1=1.0, omega_ab=-2.0)
        with pytest.raises(ValueError):
            balance_stark(p)

    @settings(max_examples=40, deadline=None)
    @given(generic_params())
    def test_balanced_shifts_agree(self, p):
        from dataclasses import replace
        balanced = replace(p, omega_2=balance_stark(p))
        s_a, s_b = stark_shifts(balanced)
        assert s_b == pytest.approx(s_a, rel=1e-12, abs=1e-15)


class TestMatchRaman:
    def test_trivial(self):
        p = PhysicalParams(n_atoms=1, omega_1=2.0, delta_1=5.0, omega_ab=0.0)
        assert match_raman(p) == pytest.approx(2.0)

    def test_demo_value(self):
        assert match_raman(demo_params()) == pytest.approx(1.1e4)

    def test_zero_drive(self):
        p = PhysicalParams(n_atoms=1, omega_1=0.0, delta_1=5.0, omega_ab=1.0)
        assert match_raman(p) == 0.0

    def test_zero_coupling_rejected(self):
        p = PhysicalParams(n_atoms=1, g_a=0.0, omega_1=1.0, delta_1=5.0)
        with pytest.raises(ValueError):
            match_raman(p)


class TestConfig:
    def test_roundtrip(self):
        p = demo_params()
        mapping = params_to_mapping(p)
        q = params_from_mapping(mapping)
        assert q == p

    def test_mapping_has_the_config_keys_in_order(self):
        # the config contract: these 16 keys, in this order
        assert CONFIG_KEYS == ("n_atoms", "g_a_re", "g_a_im", "g_b_re", "g_b_im",
                               "omega1_re", "omega1_im", "omega2_re", "omega2_im",
                               "delta1", "omega_ab", "delta", "kappa", "gamma_a",
                               "gamma_b", "gamma_o")
        assert tuple(params_to_mapping(demo_params())) == CONFIG_KEYS

    @pytest.mark.parametrize("p", [
        demo_params(),
        PhysicalParams(n_atoms=7, g_a=complex(0.8, -0.3), g_b=complex(1.1, 0.2),
                       omega_1=complex(3.0, 1.5), omega_2=complex(-2.5, 0.7),
                       delta_1=40.0, omega_ab=9.0, delta=-0.6, kappa=0.4,
                       gamma_a=0.1, gamma_b=0.2, gamma_o=0.3),
    ], ids=["demo", "complex_drives"])
    def test_mapping_roundtrip_is_the_identity(self, p):
        mapping = params_to_mapping(p)
        assert params_to_mapping(params_from_mapping(mapping)) == mapping

    def test_parse_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("a = 1\nb = 2\nnot a pair\n")
        with pytest.raises(ConfigError, match=":3:"):
            read_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config(path)

    def test_missing_keys_reported(self):
        with pytest.raises(ConfigError, match="missing parameter keys"):
            params_from_mapping({"n_atoms": "2"})

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_non_numeric_value(self, key):
        mapping = params_to_mapping(demo_params())
        mapping[key] = "abc"
        with pytest.raises(ConfigError, match=f"key '{key}': not an? "):
            params_from_mapping(mapping)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "plain.cfg"
        path.write_text("# header\n\nx = 1\n")
        cfg = read_config(path)
        assert cfg == {"x": "1"}


class TestInvariants:
    def test_n_atoms_positive(self):
        with pytest.raises(ValueError):
            PhysicalParams(n_atoms=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams(n_atoms=1, kappa=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["g_a", "g_b", "omega_1", "omega_2", "delta_1",
                                      "omega_ab", "delta", "kappa", "gamma_a",
                                      "gamma_b", "gamma_o"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PhysicalParams(n_atoms=1, **{name: value})

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", [k for k in CONFIG_KEYS if k != "n_atoms"])
    def test_non_finite_config_value_is_config_error(self, key, value):
        mapping = params_to_mapping(demo_params())
        mapping[key] = value
        with pytest.raises(ConfigError, match="must be finite"):
            params_from_mapping(mapping)
