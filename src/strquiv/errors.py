"""Domain errors. Every error carries a stable tag (its class name) that the
CLI prints as the first token on stderr."""


class QuiverError(Exception):
    @property
    def tag(self) -> str:
        return type(self).__name__


class ParseError(QuiverError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class DuplicateId(QuiverError):
    pass


class DanglingEndpoint(QuiverError):
    pass


class NonComposableRelation(QuiverError):
    pass


class RelationTooShort(QuiverError):
    pass


class InvalidPath(QuiverError):
    pass


class InfiniteDimensional(QuiverError):
    pass


class _AxiomError(QuiverError):
    """Failed axioms; ``violations`` holds the witnesses as ``(kind, vertex,
    arrow or relation)`` pairs, as in ``Classification.violations``.  A
    relation is written as its space-separated arrow ids."""

    summary = ""

    def __init__(self, violations: tuple[tuple[str, object], ...]):
        listed = "; ".join(
            f"{kind} {w if isinstance(w, str) else ' '.join(w)}" for kind, w in violations
        )
        super().__init__(f"{self.summary}: {listed}")
        self.violations = violations


class NotStringPair(_AxiomError):
    """The quiver fails (S1) or (S2)."""

    summary = "bound quiver fails the string-pair axioms"


class UnknownArrow(QuiverError):
    pass


class UnknownVertex(QuiverError):
    pass


class NotSAG(_AxiomError):
    """The quiver is not a string pair, or has a relation of length other than 2."""

    summary = "bound quiver is not string-almost-gentle"


class NotForbiddenCycle(QuiverError):
    pass


class NotLeftForbidden(QuiverError):
    def __init__(self, arrow: str):
        super().__init__(f"arrow {arrow!r} is not a left forbidden arrow")
        self.arrow = arrow


class InvalidWalk(QuiverError):
    pass


class GenerationExhausted(QuiverError):
    pass
