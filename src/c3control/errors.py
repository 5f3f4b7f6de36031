"""Exception types shared across the package."""


class C3ControlError(Exception):
    """Base class for all domain errors."""


class InputError(C3ControlError, ValueError):
    """Malformed input: a bad cover pair or relation, name list or
    precedence list.

    Also a ValueError, which callers caught before this class existed.
    """


class CycleError(InputError):
    """The cover digraph contains a cycle.

    ``witness`` is a list of element names along the offending cycle.
    """

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__("cover digraph has a cycle: " + " -> ".join(self.witness))


class NotReducedError(InputError):
    """A cover pair is implied by a longer path and must be removed."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"cover {pair[0]} -> {pair[1]} is transitively implied")


class DuplicateNameError(InputError):
    """Two elements share a display name."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate element name: {name!r}")


class NotAPermutationError(C3ControlError):
    """An order is not a permutation of the expected element set."""


class NotLinearExtensionError(C3ControlError):
    """A purported global order is not a linear extension of the poset."""


class AmbiguityError(C3ControlError):
    """Two distinct consistent MROs were found; uniqueness is violated."""


class ResourceLimitError(C3ControlError):
    """A search depth requires an explicit override (``allow_large``)."""


class LinearizationFailedError(C3ControlError):
    """Raised where an API needs a total linearization but C3 got stuck.

    ``failure`` holds the MergeFailure value describing the stuck state.
    """

    def __init__(self, failure):
        self.failure = failure
        super().__init__(
            "could not find a consistent method resolution order"
            + (f" (at element {failure.at})" if failure.at is not None else "")
        )
