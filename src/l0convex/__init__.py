"""Exact-arithmetic calculus for module topologies over a discrete base space.

Everything is computed with rationals: probabilities, seminorm values,
gauges, witnesses.  The package verifies, with re-checkable evidence,
when a neighborhood base of convex absorbent balanced sets is (and is
not) induced by a family of vector-valued seminorms.

Nothing runs before it is used, so a short command does not pay for
the modules it never touches.  Each public submodule is bound at once,
as `l0convex.sets` and in `sys.modules`, but lazily
(`importlib.util.LazyLoader`): its code runs on the first use of one of
its attributes.  The exports load on first use too (PEP 562): `from
l0convex import EcRv` runs `l0convex.l0` and nothing else.
"""

_EXPORTS_BY_MODULE = {
    "measure": (
        "CANONICAL DiscreteSpace FinitePartition MalformedPrefix SingletonTail "
        "build_countable_partition"
    ),
    "l0": (
        "EcRv NotInvertible ZERO ONE classify combine divide emax emin "
        "indicator indicator_mul leq_everywhere lt_everywhere reciprocal"
    ),
    "seminorms": "FiniteSup Localized Weighted Zero evaluate",
    "_common": "CounterexampleFamily EventSet FromSeminorms UnsupportedShape",
    "sets": "Ball Intersect MPlusBall Scale Translate contains gauge_closed_form",
    "sampling": "roundtrip_check sample_member",
    "topology": (
        "EvidenceReport base_axiom_witnesses closure_membership hausdorff_report "
        "seminorm_induction_verdict"
    ),
    "_not_induced": "GaugeCertificate gauge_upper_certificate verify_certificate",
    "concatenation": (
        "Diagonal EventuallyConstantSeq GaugeNotBelowOne cc_failure_witness glue "
        "glue_identity_holds relative_cc_check reverse_partition_construct"
    ),
    "_cli_check": "axioms_check",
    "_library": "epslambda_membership",
}
# export name -> the module that defines it
_EXPORTS = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names.split()
}
_SUBMODULES = (
    "concatenation", "l0", "measure", "sampling", "seminorms", "sets", "syntax", "topology",
)

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def _bind_lazily(name: str):
    """`l0convex.<name>`, registered now; its code runs on first attribute use."""
    import importlib.util
    import sys

    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _bind_lazily(_name)
del _name


def __getattr__(name: str):
    from importlib import import_module

    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)  # runs a lazy module
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
