"""Estimation and inference for nonmonotone missing-not-at-random data under
available complete-case identification."""

from . import errors
from .data import Dataset, Functional, Schema, StratumIndex, build_strata, load_csv, write_csv
from .estimators import (
    ThetaEstimate,
    WeightTable,
    compute_weights,
    estimate_complete_case,
    estimate_ipw,
    estimate_mr,
    estimate_ra,
)
from .glm import OddsModel, OutcomeModel, fit_all_odds, fit_all_outcomes, fit_odds, fit_outcome
from .inference import bootstrap, if_variance_ipw, if_variance_mr, if_variance_ra
from .mpm import MpmEstimate, ScoreSpec, sandwich_variance, solve_weighted_ee
from .patterns import Pattern, PatternPair
from .sensitivity import SensitivityCurve, TiltSpec, sweep, tilted_estimate
from .simgen import GroundTruth, SimDesign, generate, misspec_masks, oracle_value, verify_oracles

__version__ = "0.1.0"
