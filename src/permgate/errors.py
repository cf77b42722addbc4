"""Exception types shared across the package.

Everything raised on purpose derives from PermGateError so callers (the CLI
in particular) can distinguish domain failures from bugs.  Every size cap
(enumeration, multiplication table, census, wires) is refused by check_cap,
the one place that raises CapExceeded, so every refusal has one shape.
Input files are read through _read_ascii, so an encoding fault is a
FileFormatError too; _int reads each header and wire-list integer token,
under the token rule of _is_digits that one-line notation shares.
"""


class PermGateError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PermGateError, ValueError):
    """Invalid dimension, or an operation mixing incompatible dimensions."""


class NotationError(PermGateError, ValueError):
    """Malformed one-line notation; the message names the offending token."""


class CapExceeded(PermGateError):
    """A size guard was hit; the message states the cap and the override."""


def check_cap(over: bool, force: bool, what: str, cap: int | str) -> None:
    """Refuse `what` with CapExceeded when it is over its cap, unless force
    is set; the message states the cap and the override."""
    if over and not force:
        raise CapExceeded(
            f"{what} refused: cap is {cap}; pass force=True (--force on the "
            f"command line) to override")


class ClosureError(PermGateError):
    """A gate library declared group-closed is not; names the bad product."""


class WiringError(PermGateError, ValueError):
    """Gate instance wiring is invalid (collision, range, or arity)."""


class FileFormatError(PermGateError, ValueError):
    """A circuit or template file failed to parse or verify.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_MAX_DIGITS = 4300  # CPython's default int() limit, kept on every interpreter


def _is_digits(token: str) -> bool:
    """Whether `token` is an integer token of a file or of one-line notation:
    ASCII digits only, so no sign, '_', '0x' or other scripts' digits, and at
    most 4300 of them, so int() reads it on every interpreter."""
    return token.isascii() and token.isdigit() and len(token) <= _MAX_DIGITS


def _int(token: str, what: str) -> int:
    """A file's integer token, as _is_digits allows it; otherwise
    ValueError('bad <what> <token>')."""
    if not _is_digits(token):
        raise ValueError(f"bad {what} {token!r}")
    return int(token)


def _read_ascii(path) -> str:
    """The text of an ASCII circuit or template file; a non-ASCII byte is a
    FileFormatError naming its line as str.splitlines, like the readers."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one are ASCII; "." stands for it
        line = len((data[:exc.start].decode("ascii") + ".").splitlines())
        raise FileFormatError(
            line, f"non-ASCII byte 0x{data[exc.start]:02x}") from None
