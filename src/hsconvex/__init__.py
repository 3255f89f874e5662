"""Numerical kit for Hardy-Sobolev analysis on strongly convex domains in C^n.

Core pieces: the reproducing kernel integral on level surfaces, the boundary
quasimetric and its homogeneous-type structure, polynomial approximants of
the kernel with measured certificates, approach-region samplers and area
integrals, pseudoanalytic continuations with the reconstruction identity, and
the dyadic polynomial-approximation smoothness diagnostic, all at desk scale
on a catalog of concrete domains (n = 2).

``HSCONVEX_THREADS`` pins the thread count of the BLAS backing numpy; with
it and the BLAS's own thread variables (``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``) all unset, the BLAS runs one
thread, so a default run writes the report bytes of a one-thread run.  It
is read when this package is imported, so it takes effect only where
nothing imported numpy before ``hsconvex``, as in the ``hsconvex`` command.
"""

# the variables must reach the BLAS before numpy loads, and the submodule
# imports below load numpy
import os as _os

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_threads = _os.environ.get("HSCONVEX_THREADS")
if not _threads and not any(_os.environ.get(_v) for _v in _BLAS_VARS):
    _threads = "1"
if _threads:
    for _v in _BLAS_VARS:
        _os.environ.setdefault(_v, _threads)

from .domain import (
    DomainSpec,
    ball,
    ellipsoid,
    perturbed_ball,
    from_catalog,
    project_boundary,
    symmetric_point,
)
from .homtype import (
    BoundaryGrid,
    build_boundary_grid,
    qdist,
    quasiball,
    check_homogeneous,
    qm_exterior_check,
    maximal_function,
)
from .forms import (
    HoloFunction,
    ShellGrid,
    build_shell_grid,
    clf_kernel,
    clf_reproduce,
)
from .dzyadyk import Lune, lune_of, build_T, build_Kglob, validate_Kglob
from .koranyi import (
    RegionSample,
    sample_region,
    region_integrate,
    area_internal,
    area_Il,
    check_area_inequality,
)
from .continuation import (
    Continuation,
    Cutoff,
    extend_by_symmetry,
    extend_by_global,
    verify_pac,
    sobolev_functional,
)
from .pipeline import (
    PolynomialCn,
    SmoothnessReport,
    project_direct,
    project_via_continuation,
    diagnose,
    ab_fields,
    check_bk_lemma,
)
from .corpus import build_corpus, CorpusEntry

__version__ = "0.1.0"

__all__ = [
    "DomainSpec", "ball", "ellipsoid", "perturbed_ball",
    "from_catalog", "project_boundary", "symmetric_point",
    "BoundaryGrid", "build_boundary_grid", "qdist", "quasiball",
    "check_homogeneous", "qm_exterior_check", "maximal_function",
    "HoloFunction", "ShellGrid", "build_shell_grid", "clf_kernel",
    "clf_reproduce", "Lune", "lune_of", "build_T",
    "build_Kglob", "validate_Kglob", "RegionSample", "sample_region",
    "region_integrate", "area_internal", "area_Il", "check_area_inequality",
    "Continuation", "Cutoff", "extend_by_symmetry", "extend_by_global",
    "verify_pac", "sobolev_functional", "PolynomialCn", "SmoothnessReport",
    "project_direct", "project_via_continuation", "diagnose", "ab_fields",
    "check_bk_lemma", "build_corpus", "CorpusEntry",
]
