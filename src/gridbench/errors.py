"""Exception hierarchy for the gridbench harness.

Two broad families matter for the CLI exit codes: configuration/validation
problems (exit 1) and runtime failures (exit 2).
"""


class GridBenchError(Exception):
    """Base class for all gridbench errors."""


class ValidationError(GridBenchError):
    """Base class for config/schema/precondition problems (CLI exit 1)."""


# --- data ---------------------------------------------------------------

class MissingFile(ValidationError):
    pass


class MalformedManifest(ValidationError):
    pass


class UnknownLabelColumn(ValidationError):
    pass


class NonBinaryLabel(ValidationError):
    pass


class InvalidSpec(ValidationError):
    pass


class DegenerateSplit(GridBenchError):
    """A class would be absent from the train or test part."""


# --- preprocess ---------------------------------------------------------

class InvalidConfig(ValidationError):
    pass


class SchemaMismatch(GridBenchError):
    """Dataset descriptors do not match the fitted pipeline's inputs."""


# --- model --------------------------------------------------------------

class SingleClassTrainingSet(GridBenchError):
    pass


class NonFiniteFeature(GridBenchError):
    pass


class FoldTooSmall(GridBenchError):
    pass


class DimensionMismatch(GridBenchError):
    pass


# --- explain ------------------------------------------------------------

class ExactTooLarge(ValidationError):
    """Exact Shapley enumeration requested beyond the dimension cap."""


# --- metrics ------------------------------------------------------------

class SingleClassLabels(GridBenchError):
    pass


class KOutOfRange(GridBenchError):
    pass


class NoFlipFound(GridBenchError):
    """No probed perturbation changed the predicted label."""


class AllInstancesIdentical(GridBenchError):
    pass


# --- stats --------------------------------------------------------------

class AllPairsTied(GridBenchError):
    """Wilcoxon signed-rank is undefined when every pair is tied."""


class ZeroDeviation(GridBenchError):
    """Cohen's d is undefined when neither group has any deviation."""


class EmptySamples(ValidationError):
    pass


# --- store --------------------------------------------------------------

class SchemaViolation(ValidationError):
    """Document failed schema validation; carries JSON-pointer paths."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):
        # rebuilt from the violations, not the joined message; the state
        # carries any notes
        return type(self), (self.violations,), self.__dict__


class UnreadableRecord(ValidationError):
    """A record file is not UTF-8 JSON."""


class DigestMismatch(ValidationError):
    """A record's reproducibility_digest is not the digest of its content."""


class NotFound(GridBenchError):
    pass
