"""Exception hierarchy shared by all workbench modules.

Every error carries a stable ``code`` so the CLI can surface machine-readable
diagnostics without string matching.
"""


class WorkbenchError(Exception):
    code = "E_GENERIC"


class MalformedInput(WorkbenchError):
    code = "E_MALFORMED"


class NotCertified(WorkbenchError):
    """Raised when raw tables fail the pseudo-BCK axioms."""

    code = "E_NOT_CERTIFIED"

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"axioms violated: {lines}")


class UnboundedAlgebra(WorkbenchError):
    code = "E_UNBOUNDED"


class CarrierTooLarge(WorkbenchError):
    code = "E_TOO_LARGE"


class ParentMismatch(WorkbenchError):
    code = "E_PARENT_MISMATCH"


class GlivenkoRequired(WorkbenchError):
    code = "E_GLIVENKO_REQUIRED"


class WellDefinednessFailure(WorkbenchError):
    # Signals a precondition bug: a quotient map disagreed inside a class.
    code = "E_NOT_WELL_DEFINED"


class NotNormal(WorkbenchError):
    code = "E_NOT_NORMAL"


class NotVds(WorkbenchError):
    code = "E_NOT_V_DS"


class NotVto(WorkbenchError):
    code = "E_NOT_VTO"


class PPRequired(WorkbenchError):
    code = "E_PP_REQUIRED"


class NotFLw(WorkbenchError):
    code = "E_NOT_FLW"


class NotSmarandache(WorkbenchError):
    code = "E_NOT_SMARANDACHE"


class KernelContainmentViolated(WorkbenchError):
    code = "E_KERNEL_CONTAINMENT"


class ParseError(WorkbenchError):
    code = "E_PARSE"

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"{line}:{column if column is not None else 0}: "
        super().__init__(f"{where}{message}")
