"""Fock-space simulator of linear-optical single-photon QND detection schemes."""

from .fock import (
    Channel,
    FockState,
    MixedState,
    Mode,
    ModeMismatchError,
    TruncationError,
    apply_creation,
    inner_product,
    tensor,
)
from .optics import (
    BeamSplitterSpec,
    KerrGateSpec,
    ModeTransform,
    NonUnitaryError,
    apply,
    beam_splitter,
    compose,
    identity_transform,
    kerr_gate,
    matrix_transform,
    phase_shifter,
    polarization_rotator,
    polarizing_beam_splitter,
)
from .circuits import CircuitSyntaxError, parse_circuit
from .detection import (
    IDEAL,
    DetectorModel,
    closed_form_fidelity,
    condition,
    fidelity,
    pattern_table,
    povm_element,
    reweight,
)
from .protocols import (
    KerrStrengthParams,
    NumberInputSpec,
    PdcSourceSpec,
    PolarizationAngle,
    ProtocolOutcome,
    kerr_qnd,
    kerr_tau,
    noon_bound,
    number_device,
    number_device_transform,
    number_qnd,
    pdc_state,
    pol_device,
    pol_device_transform,
    pol_fidelity_approx,
    pol_qnd,
    teleport_number_qnd,
    teleport_pol_qnd,
)

__version__ = "0.1.0"
