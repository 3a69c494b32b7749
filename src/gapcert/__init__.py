"""Certified spectral-gap lower bounds for degree-1 cohomological Laplacians.

Pipeline: Fox derivatives of a finite presentation assemble the Laplacian
d0 d0* + sum_r J(r)* J(r) over the group ring; a semidefinite program
searches for a sum-of-hermitian-squares decomposition of Delta - lambda*I
over a finite support ball; interval arithmetic turns the inexact solution
into a rigorous lower bound lambda0 on the spectral gap, valid for every
unitary representation.
"""

__version__ = "0.1.0"

from .words import (  # noqa: F401
    GeneratorSymbol,
    Presentation,
    PresentationSyntaxError,
    Word,
    parse_presentation,
)
from .groups import (  # noqa: F401
    CyclicModel,
    FreeModel,
    GroupElement,
    GroupModel,
    InconsistentModelError,
    MatrixModel,
    SupportBasis,
    ball,
    model_from_spec,
    validate_model,
)
from .intervals import Interval  # noqa: F401
from .ring import RingElement, RingMatrix  # noqa: F401
from .fox import (  # noqa: F401
    Laplacian1,
    d0,
    default_relator_indices,
    evaluate_representation,
    fox_derivative,
    laplacian1,
    regular_representation_images,
    relator_square,
)
from .sdp import (  # noqa: F401
    SdpProblem,
    SdpSolution,
    SolveOptions,
    SupportTooSmallError,
    build_problem,
    export_sdpa,
    import_sdpa,
    solve,
)
from .certify import (  # noqa: F401
    Certificate,
    CertificateError,
    GapResult,
    HashMismatchError,
    SupportReconstructionError,
    VerifyResult,
    certified_gap,
    psd_sqrt,
    verify_certificate,
)
from .presets import load_preset  # noqa: F401
