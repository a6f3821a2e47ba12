"""Exception types shared across the toolkit."""


class FincatError(Exception):
    """Base class for all toolkit errors."""


class MalformedTable(FincatError):
    """A table references an unknown object, morphism, or element id."""


class ValidationFailed(FincatError):
    """An entity failed its law check; the report is attached."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class BudgetExceeded(FincatError):
    """A backtracking search ran past its node budget."""

    def __init__(self, nodes, context=""):
        self.budget = nodes
        self.context = context
        super().__init__(f"search budget {nodes} exceeded" + (f" in {context}" if context else ""))


class CapExceeded(FincatError):
    """A bounded closure hit a round/member/size cap before reaching a fixpoint."""


class EndpointMismatch(FincatError):
    """Module operands do not share the required endpoint category."""


class InternalMismatch(FincatError):
    """Two independent computation paths disagreed; this is always a bug."""


class WorkspaceError(FincatError):
    """Base class for workspace loading problems."""


class ParseError(WorkspaceError):
    """The workspace file is not valid JSON, or a key is missing or of the wrong type."""


class UnresolvedReference(WorkspaceError):
    """An entity refers to a name absent from the workspace."""


class DuplicateName(WorkspaceError):
    """Two entities of the same kind share a name."""
