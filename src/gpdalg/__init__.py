"""Exact structure theory for groupoid algebras at desk scale.

The package decomposes the algebra of a finite groupoid into matrix
blocks over isotropy group algebras, decides Noetherian, Artinian, and
semisimple for the result, and applies the same machinery to Leavitt
path algebras of small graphs and to finite inverse semigroup
algebras.  Every structural claim can be re-derived by exhaustive
checks and, for semisimplicity, by an independent radical oracle that
reads only the arrow multiplication table: the trace form over Q, the
trace-lift filtration over GF(p), each nonzero answer certified.

Importing the package loads the groupoid engine every subcommand needs:
``errors``, ``rings``, ``group_algebra``, ``groupoid``, ``algebra``,
``verdicts`` (with ``linalg``) and ``report``.  The modules
``constructions``, ``leavitt`` and ``isg`` load on first use, when one
of their names is read from this package (``gpdalg.Graph``, ``from
gpdalg import parse_isg``) or the module itself is (``gpdalg.leavitt``),
so a groupoid report never imports them.
"""
from importlib import import_module as _import_module

from .errors import (
    InternalCheckError,
    LaurentOverflowError,
    OracleBudgetError,
    ParseError,
    RingMismatchError,
)
from .rings import (
    GaloisField,
    Integers,
    Laurent,
    ModularIntegers,
    Product,
    Q,
    Rationals,
    RingElement,
    RingPredicates,
    Z,
    laurent_variable,
    parse_ring_descriptor,
    render_ring_descriptor,
    ring_predicates,
)
from .group_algebra import (
    BlockMatrix,
    BlockShape,
    FiniteGroupTable,
    GroupAlgebraElement,
    IntegerGroup,
)
from .groupoid import (
    FiniteGroupoid,
    Orbit,
    Violation,
    orbits,
    parse_groupoid,
    render_groupoid,
    structured_from_finite,
    validate,
)
from .algebra import (
    AlgebraElement,
    Decomposition,
    VerificationReport,
    convolve,
    decompose,
    parse_element_literal,
    phi,
    phi_inv,
    verify_isomorphism,
)
from .verdicts import (
    RadicalReport,
    Verdict,
    radical_oracle,
    verdicts,
)
from .report import AnalysisReport, render_report_machine, render_report_text

__version__ = "1.0.0"

# module -> the names this package re-exports from it on first use
_LAZY = {
    "constructions": (
        "action_groupoid", "cyclic_table", "disjoint_union", "group_groupoid",
        "klein_table", "pair_groupoid", "product_with_group", "symmetric_table",
    ),
    "leavitt": (
        "Cycle", "ExitWitness", "Graph", "GraphDecomposition", "Lasso", "SinkPath",
        "as_finite_groupoid", "boundary_paths", "condition_ne", "enumerate_cycles",
        "generator_images", "graph_groupoid", "is_arrow", "leavitt_verdicts",
        "parse_graph", "path_start", "prepend_edge", "render_graph", "render_path",
        "verify_leavitt_relations",
    ),
    "isg": (
        "InverseSemigroup", "isg_verdicts", "maximal_subgroup", "natural_partial_order",
        "parse_isg", "render_isg", "semigroup_algebra_iso", "underlying_groupoid",
    ),
}


def __getattr__(name):
    # PEP 562: called only for names not bound yet; importing a submodule
    # binds it here, and each re-exported name is bound on first read
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    for module, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
