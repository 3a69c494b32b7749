"""Certified spectral-gap lower bounds for degree-1 cohomological Laplacians.

Pipeline: Fox derivatives of a finite presentation assemble the Laplacian
d0 d0* + sum_r J(r)* J(r) over the group ring; a semidefinite program
searches for a sum-of-hermitian-squares decomposition of Delta - lambda*I
over a finite support ball; outward-rounded error bounds turn the inexact
solution into a rigorous lower bound lambda0 on the spectral gap, valid for
every unitary representation.
"""

__version__ = "0.1.0"

from .words import (  # noqa: F401
    Presentation,
    PresentationSyntaxError,
    Word,
    parse_presentation,
)
from .groups import (  # noqa: F401
    CyclicModel,
    FreeModel,
    GroupModel,
    MatrixModel,
    SupportBasis,
    ball,
    model_from_spec,
    validate_model,
)
from .fox import (  # noqa: F401
    Laplacian1,
    TermMatrix,
    default_relator_indices,
    evaluate_representation,
    laplacian1,
    regular_representation_images,
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
    write_sdpa,
)
from .certify import (  # noqa: F401
    Certificate,
    GapResult,
    VerifyResult,
    certified_gap,
    psd_sqrt,
    verify_certificate,
)
from .presets import load_preset  # noqa: F401
