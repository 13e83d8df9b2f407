"""Exception types shared across the engine."""


class SpatError(Exception):
    """Base class for data and model errors raised by this package."""


class OutOfOrderEvent(SpatError):
    """A phase event stream regressed in time."""


class RingSequenceViolation(SpatError):
    """Events break a ring's phase pattern, or cycles are not contiguous."""


class BarrierViolation(SpatError):
    """Ring-barrier duration identities violated beyond tolerance."""


class EmptyStratum(SpatError):
    """A stratification or window selected no cycles."""


class MixedStrata(SpatError):
    """An operation requiring a single cycle length saw several."""


class EmptyInput(SpatError):
    """No samples were provided."""


class EmptyCondition(SpatError):
    """The conditioning event excludes every historical sample."""


class NonpositiveWeight(SpatError):
    """Loss weights must be strictly positive."""


class InfeasiblePlan(SpatError):
    """Timing plan leaves no time for the coordination phase."""


class EmptyGrid(SpatError):
    """No evaluation time has surviving samples."""


class SinkClosed(SpatError):
    """The message sink stopped accepting writes."""


class MalformedRow(SpatError):
    """A CSV row does not parse as a record; ``line`` is its file line number."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
