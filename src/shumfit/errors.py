"""Exception taxonomy shared across the package."""


class ShumFitError(Exception):
    """Base class for all package errors."""


# ---- data ingestion / validation -----------------------------------------

class MissingColumn(ShumFitError):
    def __init__(self, name):
        super().__init__(f"column not found in header: {name!r}")
        self.name = name


class FewerThanTwoCategories(ShumFitError):
    pass


class EmptyCategory(ShumFitError):
    def __init__(self, label):
        super().__init__(f"category {label!r} has no usable rows")
        self.label = label


class UnparseableNumeric(ShumFitError):
    def __init__(self, row_index, value):
        super().__init__(f"row {row_index}: outcome value {value!r} is not a finite number")
        self.row_index = row_index
        self.value = value


class DimensionMismatch(ShumFitError):
    pass


class IndexOutOfRange(ShumFitError):
    pass


class EmptyInput(ShumFitError):
    pass


# ---- evaluators -----------------------------------------------------------

class InstanceTooLarge(ShumFitError):
    def __init__(self, n_tuples, limit):
        super().__init__(
            f"brute-force enumeration over {n_tuples} tuples exceeds limit {limit}"
        )
        self.n_tuples = n_tuples
        self.limit = limit


class NonPositiveLambda(ShumFitError):
    pass


class NonFiniteObjective(ShumFitError):
    def __init__(self, point, detail="objective returned a non-finite value"):
        super().__init__(f"{detail} at {point}")
        self.point = point


# ---- fitting --------------------------------------------------------------

class SingularCovariance(ShumFitError):
    pass


class BootstrapUnstable(ShumFitError):
    def __init__(self, method, n_failed, n_total):
        super().__init__(
            f"{method}: {n_failed}/{n_total} bootstrap replicates failed (>10% threshold)"
        )
        self.method = method
        self.n_failed = n_failed
        self.n_total = n_total


# ---- simulation -----------------------------------------------------------

class NotPositiveDefinite(ShumFitError):
    pass


class InvalidParameter(ShumFitError):
    pass


class StudyAborted(ShumFitError):
    def __init__(self, n_failed, n_total):
        super().__init__(
            f"{n_failed}/{n_total} replicate fits failed (>5% threshold)"
        )
        self.n_failed = n_failed
        self.n_total = n_total
