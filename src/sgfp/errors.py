"""Exception types shared across the sgfp package."""


class SgfpError(Exception):
    """Base class for all sgfp errors."""


class SelfLoopError(SgfpError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"self-loop on node {node!r}")


class IsolatedNodeError(SgfpError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"node {node!r} has degree 0")


class UnknownNodeError(SgfpError):
    def __init__(self, node, problem="unknown node"):
        self.node = node
        super().__init__(f"{problem} {node!r}")


class LengthMismatchError(SgfpError):
    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"expected length {expected}, got {got}")


class UsageError(SgfpError):
    """Command-line arguments that do not parse."""


class AllIsolatesError(SgfpError):
    """No node has an edge, so the mean over non-isolated nodes is undefined."""


class DegenerateGraphError(SgfpError):
    """Graph is regular or disconnected where that is not allowed."""


class PreconditionViolatedError(SgfpError):
    def __init__(self, condition):
        self.condition = condition
        super().__init__(f"precondition violated: {condition}")


class InvariantBrokenError(SgfpError):
    pass


class TooSmallError(SgfpError):
    pass


class NonFiniteOutputError(SgfpError):
    """A result field holds an infinity or a NaN, which JSON cannot write."""

    def __init__(self, field):
        self.field = field
        super().__init__(f"{field} is not finite and has no JSON form")


class ParseError(SgfpError):
    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class FileAccessError(SgfpError):
    """A file that cannot be opened, read or written, or is not UTF-8 text."""

    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"{path}: {reason}")


class DuplicateRowError(SgfpError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"duplicate row for node {label!r}")


class InfeasibleAtEpsilonError(SgfpError):
    def __init__(self, epsilon):
        self.epsilon = epsilon
        super().__init__(f"LP infeasible at epsilon={epsilon}")


class ExhaustedTriesError(SgfpError):
    def __init__(self, tries):
        self.tries = tries
        super().__init__(f"no acceptable graph found in {tries} tries")
