"""Exception types shared across the package."""


class IntegrityError(RuntimeError):
    """An internal exact-arithmetic invariant failed.

    Raised when a quantity that is provably rational/integral/divisible turns
    out not to be.  Indicates a bug, never bad user input.  A failure of the
    column loop (ringsynth.reduce_column_step) carries where it happened:
    step, the steps taken before it, and measure, the measure of the column
    it started from; both are None elsewhere.
    """

    def __init__(self, *args, step: int | None = None, measure: int | None = None):
        super().__init__(*args)
        self.step, self.measure = step, measure


class SynthesisError(Exception):
    """Base class for failures on inputs outside the synthesizable group."""


class NotReducibleError(SynthesisError):
    """Denominator-exponent descent found no unique strictly reducing step.

    The error canonical_form raises carries step, the rotations peeled
    before it, and row_max, the max exponent of each row of the step it
    got stuck on; both are None on the errors axis_detect raises.
    """

    def __init__(self, *args, step: int | None = None, row_max: tuple | None = None):
        super().__init__(*args)
        self.step, self.row_max = step, row_max


class PhaseNotInRingError(SynthesisError):
    """Residual global phase is not a 2n-th root of unity."""


class NoPhaseMatchError(SynthesisError):
    """Unitaries sharing a first column differ by a phase outside the ring."""


class NoReducingKError(IntegrityError):
    """Column reduction found no complexity-reducing phase.

    Impossible for a valid normalized column, hence an integrity failure.
    """
