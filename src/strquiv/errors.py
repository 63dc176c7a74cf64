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


class NotStringPair(QuiverError):
    """The quiver fails (S1) or (S2); ``violations`` holds the witnesses as
    ``(kind, vertex or arrow)`` pairs, as in ``Classification.violations``."""

    def __init__(self, violations: tuple[tuple[str, object], ...]):
        listed = "; ".join(f"{kind} {witness}" for kind, witness in violations)
        super().__init__(f"bound quiver fails the string-pair axioms: {listed}")
        self.violations = violations


class UnknownArrow(QuiverError):
    pass


class UnknownVertex(QuiverError):
    pass


class NotSAG(QuiverError):
    pass


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
