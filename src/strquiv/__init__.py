"""strquiv: bound quivers of string / string-almost-gentle algebras.

Parse quiver presentations, check the string and almost-gentle axioms,
enumerate strings and bands, decide representation type, compute hom-space
dimensions between string modules, and build the arrow-splitting
endomorphism-algebra transform and the Cohen-Macaulay Auslander algebra.

Each name below is imported from its module on first use, so that
``import strquiv`` loads only the data model.
"""

# ``classify`` shares its module's name: importing ``strquiv.classify``
# binds the module here unless the function is bound first.
from .classify import classify

# module -> the names it exports
_EXPORTS = {
    "classify": ("Classification", "check_s1", "check_s2", "classify"),
    "core": ("Arrow", "BoundQuiver", "Path", "algebra_dim", "enumerate_paths", "in_ideal",
             "is_finite_dimensional"),
    "dsl": ("format_quiver", "format_walk", "parse_quiver", "parse_walk", "quiver_from_json",
            "quiver_to_dot", "quiver_to_json"),
    "errors": ("DanglingEndpoint", "DuplicateId", "GenerationExhausted", "InfiniteDimensional",
               "InvalidPath", "InvalidWalk", "NonComposableRelation", "NotForbiddenCycle",
               "NotLeftForbidden", "NotSAG", "NotStringPair", "ParseError", "QuiverError",
               "RelationTooShort", "UnknownArrow", "UnknownVertex"),
    "forbidden": ("ForbiddenCycle", "PerfectIndex", "forbidden_cycles", "is_perfect",
                  "left_forbidden_arrows", "perfect_index"),
    "generate": ("RandomSagSpec", "gen_random_sag"),
    "strmod": ("arrow_module_string", "hom_dim", "projective_string"),
    "transform": ("RIndex", "TransformResult", "TransformedAlgebraReport", "cma", "lift_walk",
                  "r_transform", "validate_index", "verify_endo_dimension"),
    "walks": ("CyclicWalk", "Letter", "Walk", "band_exists", "band_problems", "canonical_band",
              "canonical_string", "enumerate_strings", "find_band", "representation_type",
              "string_problems", "validate_band", "validate_string"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in ``-X importtime``
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
