"""Multiresolution wavelets on fractal Hilbert spaces.

Exact digit-system filter banks, lattice models of the fractal Hilbert
space, the Ruelle transfer operator on Laurent polynomials, invariant-measure
moments, spectral-set duality, and the cascade-convergence dichotomy.
"""

from .errors import (
    CapExceededError,
    CoarseningError,
    FractalMRAError,
    InvalidDigitError,
    NotNormalizedError,
    PreconditionError,
    SystemMismatchError,
)
from .scalars import Scalar
from .laurent import LaurentPolynomial, constant, monomial, one, zero
from .ifs import DigitSystem, HutchinsonTransform, hausdorff_dimension
from .filterbank import (
    FilterBank,
    build_bank,
    canonical_lowpass,
    detail_filters,
    pairing,
    unitarity_defect,
)
from .transfer import (
    SpectralBlock,
    TransferOperator,
    spectral_block,
    weight_from_filter,
)
from .measure import (
    AtomicMeasure,
    Cycle,
    CycleReport,
    MomentEntry,
    MomentTable,
    SupportClassification,
    WienerProfile,
    classify_support,
    find_cycles,
    moment,
    moment_table,
    riesz_samples,
    wiener_profile,
)
from .duality import (
    BCycle,
    BCycleReport,
    LambdaSet,
    SpectralPair,
    b_cycles,
    dual_matrix,
    dual_transfer_eval,
    exponential_gram,
    lambda_set,
    onb_check,
    onb_defect,
)
from .space import (
    CascadeRow,
    GramSection,
    LatticeVector,
    apply_filter,
    apply_shift,
    basis_delta,
    cascade_experiment,
    cascade_step,
    correlation,
    dilate_power,
    gram_section,
    inner,
    refine_to,
    representation_limit,
    scaling_vector,
    wavelet_generators,
)

__version__ = "0.1.0"
