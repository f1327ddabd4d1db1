import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radtaxis.errors import ConfigError
from radtaxis.grid import RadialGrid, integrate
from radtaxis.model import (
    AnnulusBump,
    BoundaryDatum,
    ConstantData,
    DiffusionLaw,
    GaussianBump,
    Geometry,
    RunConfig,
    _CONFIG_KEYS,
    _RUN_KEYS,
    config_to_text,
    parse_config,
    sample_initial,
    unit_ball_volume,
)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


class TestDiffusionLaw:
    def test_value_at_zero_is_kappa(self):
        for alpha in (-1.0, 0.0, 0.7, 2.0):
            assert DiffusionLaw(alpha=alpha, kappa=1.0).eval(0.0) == 1.0

    def test_alpha_zero_is_constant(self):
        assert DiffusionLaw(alpha=0.0, kappa=3.0).eval(7.0) == 3.0

    def test_halving_at_one(self):
        assert DiffusionLaw(alpha=1.0, kappa=1.0).eval(1.0) == 0.5

    def test_invalid_kappa(self):
        with pytest.raises(ConfigError):
            DiffusionLaw(alpha=0.5, kappa=0.0)

    @given(
        alpha=st.floats(min_value=-2.0, max_value=1.0),
        kappa=st.floats(min_value=1e-3, max_value=1e3),
        xi=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(deadline=None, max_examples=200)
    def test_lower_bound_holds_with_equality(self, alpha, kappa, xi):
        # pure power law: the decay lower bound holds with the same constants
        law = DiffusionLaw(alpha=alpha, kappa=kappa)
        value = law.eval(xi)
        assert value > 0.0
        assert value == pytest.approx(kappa * (xi + 1.0) ** (-alpha), rel=1e-12)

    @given(xi=st.floats(min_value=0.0, max_value=1e9))
    @settings(deadline=None, max_examples=200)
    def test_monotone_nonincreasing_for_positive_alpha(self, xi):
        law = DiffusionLaw(alpha=0.8, kappa=1.0)
        assert law.eval(xi + 1.0) <= law.eval(xi)


class TestSampling:
    def grid(self, n=2, R=1.0, cells=128):
        return RadialGrid(Geometry(n=n, R=R), cells)

    def test_constant_zero(self):
        profile = sample_initial(ConstantData(0.0), self.grid())
        assert np.all(profile.values == 0.0)
        assert integrate(profile) == 0.0

    @pytest.mark.parametrize("n,R", [(1, 1.0), (2, 1.5), (3, 2.0), (7, 0.8)])
    def test_constant_mass_is_volume_formula(self, n, R):
        c = 2.5
        grid = RadialGrid(Geometry(n=n, R=R), 64)
        profile = sample_initial(ConstantData(c), grid)
        expected = c * unit_ball_volume(n) * R ** n
        assert integrate(profile) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cells", [32, 64, 128, 256])
    def test_gaussian_mass_exact_under_refinement(self, cells):
        grid = RadialGrid(Geometry(n=2, R=1.0), cells)
        profile = sample_initial(GaussianBump(mass=10.0, width=0.125), grid)
        assert np.all(profile.values >= 0.0)
        assert integrate(profile) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_annulus_mass_and_support(self, n):
        grid = RadialGrid(Geometry(n=n, R=1.0), 200)
        profile = sample_initial(AnnulusBump(mass=4.0, r_lo=0.3, r_hi=0.7), grid)
        assert np.all(profile.values >= 0.0)
        assert integrate(profile) == pytest.approx(4.0, rel=1e-12)
        r = grid.center_radii
        assert np.all(profile.values[(r < 0.25) | (r > 0.75)] == 0.0)

    def test_degenerate_width_cannot_normalize(self):
        with pytest.raises(ConfigError):
            sample_initial(GaussianBump(mass=1.0, width=1e-300), self.grid())

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigError):
            GaussianBump(mass=-1.0, width=0.1)


GOOD_CONFIG = """
# a complete config
n = 2
R = 1.0
alpha = 0.5
kappa = 1.0
M = 1.0
initial.kind = gaussian
initial.mass = 2.0
initial.width = 0.25
initial.center = 0.0
cells = 64
t_end = 0.01
cfl_safety = 0.6
output_stride = 10
lp = 2, 4
"""
REQUIRED_ONLY = "\n".join(line for line in GOOD_CONFIG.splitlines()
                          if not line.startswith(("cfl_safety", "output_stride", "lp")))
# A value other than RunConfig's default for every run-control key.
RUN_KEY_VALUES = {
    "cells": 48,
    "t_end": 0.125,
    "cfl_safety": 0.25,
    "u_max_threshold": 500.0,
    "dt_min": 1e-9,
    "output_stride": 7,
    "lp": (3.0, 1.5),
    "scheme": "implicit",
}


class TestConfigParsing:
    def test_good_config(self):
        config = parse_config(GOOD_CONFIG)
        assert config.geometry == Geometry(2, 1.0)
        assert config.diffusion == DiffusionLaw(0.5, 1.0)
        assert config.boundary == BoundaryDatum(1.0)
        assert config.initial == GaussianBump(mass=2.0, width=0.25, center_radius=0.0)
        assert config.cells == 64
        assert config.lp_exponents == (2.0, 4.0)
        assert config.u_max_threshold is None

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="surprise"):
            parse_config(GOOD_CONFIG + "\nsurprise = 1\n")

    def test_missing_required_key(self):
        text = "\n".join(l for l in GOOD_CONFIG.splitlines() if not l.startswith("R ="))
        with pytest.raises(ConfigError, match="'R'"):
            parse_config(text)

    def test_constant_kind_uses_mass_key(self):
        text = GOOD_CONFIG.replace("initial.kind = gaussian", "initial.kind = constant")
        text = "\n".join(
            l for l in text.splitlines()
            if not (l.startswith("initial.width") or l.startswith("initial.center"))
        )
        config = parse_config(text)
        assert isinstance(config.initial, ConstantData)
        # mass 2 over the unit disk: level = 2/pi
        assert config.initial.value == pytest.approx(2.0 / math.pi)

    def test_irrelevant_initial_key_rejected(self):
        text = GOOD_CONFIG + "\ninitial.r_lo = 0.1\n"
        with pytest.raises(ConfigError, match="initial.r_lo"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(GOOD_CONFIG + "\nn = 3\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(GOOD_CONFIG.replace("alpha = 0.5", "alpha = fast"))

    def test_center_must_sit_inside_ball(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG.replace("initial.center = 0.0", "initial.center = 1.5"))

    def test_roundtrip_through_text(self):
        config = parse_config(GOOD_CONFIG)
        assert config.scheme == "explicit"
        assert parse_config(config_to_text(config)) == config

    def test_implicit_config_round_trips(self):
        config = parse_config(GOOD_CONFIG + "scheme = implicit\n")
        assert config.scheme == "implicit"
        text = config_to_text(config)
        assert "scheme = implicit" in text.splitlines()
        assert parse_config(text) == config

    def test_explicit_scheme_is_not_written(self):
        # so every explicit report.txt keeps its config echo byte for byte
        explicit = parse_config(GOOD_CONFIG + "scheme = explicit\n")
        assert explicit == parse_config(GOOD_CONFIG)
        assert "scheme" not in config_to_text(explicit)

    @pytest.mark.parametrize("value", ["Implicit", "crank-nicolson", ""])
    def test_unknown_scheme_rejected(self, value):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(GOOD_CONFIG + f"scheme = {value}\n")

    def test_invalid_cells(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG.replace("cells = 64", "cells = 8"))

    def test_lp_must_exceed_one(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG.replace("lp = 2, 4", "lp = 0.5"))

    def test_required_keys_alone_take_runconfig_defaults(self):
        config = parse_config(REQUIRED_ONLY)
        assert config == RunConfig(geometry=config.geometry, diffusion=config.diffusion,
                                   boundary=config.boundary, initial=config.initial,
                                   cells=config.cells, t_end=config.t_end)
        assert parse_config(REQUIRED_ONLY + "\nlp =\n") == config

    def test_every_run_key_has_a_round_trip_case(self):
        assert set(RUN_KEY_VALUES) == set(_RUN_KEYS)

    @pytest.mark.parametrize("key", list(RUN_KEY_VALUES))
    def test_run_key_round_trips_through_text(self, key):
        field, _ = _RUN_KEYS[key]
        base = parse_config(REQUIRED_ONLY)
        assert getattr(base, field) != RUN_KEY_VALUES[key]
        config = replace(base, **{field: RUN_KEY_VALUES[key]})
        text = config_to_text(config)
        assert any(line.startswith(f"{key} = ") for line in text.splitlines())
        assert parse_config(text) == config


def test_every_config_key_is_named_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config files", 1)[1].split("```", 2)[1]
    assert sorted(_CONFIG_KEYS - set(re.findall(r"[A-Za-z_][\w.]*", block))) == []


class TestRunConfigValidation:
    def base(self, **overrides):
        fields = dict(
            geometry=Geometry(2, 1.0),
            diffusion=DiffusionLaw(0.5, 1.0),
            boundary=BoundaryDatum(1.0),
            initial=ConstantData(1.0),
            cells=32,
            t_end=1.0,
        )
        fields.update(overrides)
        return RunConfig(**fields)

    def test_zero_horizon_allowed(self):
        assert self.base(t_end=0.0).t_end == 0.0

    def test_cfl_range(self):
        with pytest.raises(ConfigError):
            self.base(cfl_safety=0.0)
        with pytest.raises(ConfigError):
            self.base(cfl_safety=1.5)

    def test_annulus_must_fit(self):
        with pytest.raises(ConfigError):
            self.base(initial=AnnulusBump(mass=1.0, r_lo=0.5, r_hi=1.5))
