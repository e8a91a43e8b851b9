"""Exception hierarchy shared by all linksn modules."""


class LinkError(Exception):
    """Base class for all errors raised by linksn."""


class InputError(LinkError):
    """Bad user input (parse errors, invalid indices, out-of-range arguments)."""


class MalformedPD(InputError):
    pass


class InconsistentDiagram(InputError):
    pass


class GeneratorOutOfRange(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class TooLarge(InputError):
    pass


class NotACycle(LinkError):
    pass


class ZeroClass(LinkError):
    """The chain is a boundary; its filtration grading is undefined."""


class NotPositiveDiagram(InputError):
    pass


class InexactInput(InputError):
    pass


class UnevaluableLeaf(LinkError):
    pass


class InapplicableMove(LinkError):
    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NotEndingInUnlink(LinkError):
    pass


class EmptyStart(LinkError):
    """The movie starts in the empty link, whose s_n is undefined."""
