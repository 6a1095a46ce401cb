"""Exception types shared across the package."""


class IcfSimError(Exception):
    """Base class for all library errors."""


class NonpositiveWidth(IcfSimError):
    pass


class MomentInequalityViolated(IcfSimError):
    """A normalized intensity moment violates a Cauchy-Schwarz bound.

    ``order`` is the moment order whose constraint failed; the violated
    inequality is ``lhs >= rhs``.
    """

    def __init__(self, order: int, lhs: float, rhs: float, message: str = ""):
        self.order = order
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            message or f"moment inequality violated at order {order}: "
            f"{lhs!r} < {rhs!r}"
        )


class MissingMoment(IcfSimError):
    def __init__(self, order: int):
        self.order = order
        super().__init__(f"model does not provide the normalized moment of order {order}")


class CustomModelNotSamplable(IcfSimError):
    pass


class UnsupportedOrder(IcfSimError):
    def __init__(self, order, message: str | None = None):
        self.order = order
        super().__init__(message or f"unsupported correlation order: {order!r}")


class OrderTooLarge(IcfSimError):
    def __init__(self, order: int, limit: int):
        self.order = order
        self.limit = limit
        super().__init__(f"expansion order {order} exceeds the term-budget limit {limit}")


class EmptyPattern(IcfSimError):
    pass


class AllZeroPattern(IcfSimError):
    pass


class NonfinitePhase(IcfSimError, ValueError):
    pass


class BadBatching(IcfSimError):
    pass


class BadTrialCount(IcfSimError, ValueError):
    pass


class BadOptics(IcfSimError):
    pass


class MalformedFile(IcfSimError):
    """A frame file failed to parse; carries the failure location."""

    def __init__(self, path, message: str, line: int | None = None,
                 offset: int | None = None):
        self.path = str(path)
        self.line = line
        self.offset = offset
        where = self.path
        if line is not None:
            where += f":{line}"
        if offset is not None:
            where += f" (byte {offset})"
        super().__init__(f"{where}: {message}")


class InconsistentDimensions(IcfSimError):
    pass


class RoiOutOfBounds(IcfSimError):
    pass


class ReferenceOutOfRange(IcfSimError):
    pass


class DivisionByZeroMean(IcfSimError):
    pass
