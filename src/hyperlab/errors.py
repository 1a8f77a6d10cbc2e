class HyperlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HyperlabError):
    """Invalid argument, configuration value or presentation."""


class ResourceLimitError(HyperlabError):
    """A computation would exceed the element cap (`ELEMENT_CAP`), the byte
    cap (`DISTANCE_BYTES_CAP`) or the four-point entry cap
    (`SCAN_ENTRY_CAP`)."""


class NumericError(HyperlabError):
    """A floating-point solve failed to converge or left its valid range."""


class InvariantViolation(HyperlabError):
    """An internal consistency check that should never fail did fail."""


class UnsupportedElementError(HyperlabError):
    """The operation is undefined for this element or group kind."""
