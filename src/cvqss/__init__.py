"""Deterministic simulator for continuous-variable (2,3) threshold quantum secret sharing.

Linear-Gaussian noise algebra, optical components, EPR sources, the dealer
and reconstruction protocols, and the fidelity / T-V metrics suite with
closed-form oracles.
"""

from .entanglement import (
    DUAN_SEPARABLE_BOUND,
    EprPair,
    EprSource,
    duan_sum,
    duan_sum_normalized,
    epr_type1,
    epr_type2,
    is_entangled,
)
from .metrics import (
    Metrics,
    closed_form,
    conditional_variance,
    crossover_squeezing,
    evaluate,
    fidelity,
    fidelity_closed_form,
    optimal_gain,
    r_from_squeezing_pct,
    squeezing_pct,
    transfer_coefficient,
    tv_point,
)
from .noise import (
    COEFF_ATOL,
    FieldState,
    ModeKind,
    NoiseBasis,
    NoiseMode,
    Quad,
    covariance,
    field_from_mode,
    fields_close,
    lincomb,
    variance,
)
from .optics import (
    OpoParams,
    Photocurrent,
    beam_splitter,
    detect,
    feedforward_mix,
    opo_transfer,
    phase_modulate,
    phase_shift,
    psa_gain_phase,
    psa_ideal,
    psa_type2_pair,
)
from .protocol import (
    FF_GAIN_OPTIMAL,
    FF_SYMPLECTIC_SCALE,
    PSA_GAIN_OPTIMAL,
    ClassicalSignal,
    DealerConfig,
    Shares,
    collaboration_beams,
    deal,
    feedforward_sweep,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    secret_coefficient,
    single_quadrature_estimate,
    symplectic_correct,
)

__version__ = "0.1.0"
