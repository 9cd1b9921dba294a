"""Stable on-disk formats: digit files and certificate files.

This module reads and writes both. Digit files are UTF-8 text, one
positive decimal integer per line, with ``#`` comment lines allowed
anywhere; the digit index is the 1-based order of non-comment lines.
``parse_digit_file`` reads one, header and digits, in one pass over the
lines (``seed.FileDigitSource`` reads its seed digits through it), and
``write_digit_file`` writes it one digit at a time. Certificate files are
JSON with every arbitrary-precision integer carried as a decimal string,
so nothing is rounded or truncated. Both begin with a run header that
echoes enough configuration to reproduce the run bit-exactly (set
SOURCE_DATE_EPOCH to pin the timestamp for byte-identical reruns).

Decimal text: every integer value of both formats is written by
``_dectext.int_to_text`` and read by ``_dectext.text_to_int``, the
program's one integer grammar, exact for integers of any size under the
interpreter's int<->str digit limit, which nothing here changes. The
bytes written are exactly those of ``str()``, and only those read back
(after a digit-file line's surrounding whitespace is stripped); any
other text is refused with :class:`InputFormatError`. A large value
that appears in both files (a tail digit is a digit-file line and the
certificate's ``inserted[3]``) is converted once per process: the
converters share one two-way memo of their large results, keyed on the
full int and the full text, so the second file reuses the first file's
conversion, and the value's text stays alive while it is memoized; a
text near a power of two, such as a base-2 paper tail, is read from one
render rather than a parse. ``write_digit_file`` writes each large
value's text as it is, with no line-sized copy, which offsets that text
in the writer's peak memory.

JSON numbers (the certificates' ``index`` and ``block_end``, the
header's config echo) go through :mod:`json` under the interpreter's
limit: a certificate file holding a longer one is refused with
:class:`InputFormatError`, and a header holding one, which only a
library caller's config can give, makes ``write_digit_file``
raise ``ValueError`` before it opens its file. JSON nested past the
interpreter's recursion limit, in a certificate file or a digit file's
header, is refused with :class:`InputFormatError` too. A certificate
integer field is a JSON integer or a decimal string in the grammar
above; a JSON float or boolean there is refused with
:class:`InputFormatError`, never truncated.

Each certificate record is read in one pass, each field converted
once: the index first, then ``mode`` (a string), ``base``,
``exponent``, ``block_end``, ``prime`` and ``digit_bound``, then the
lists ``inserted``, ``denoms_before`` and ``denoms_after``. The n-th
record of a certificate file must have index n, as ``construct``
writes them; a record numbered otherwise is refused with
:class:`InputFormatError` before any other field is read.
Any other malformed record is refused as a ``bad certificate record``,
with the message of its first malformed field in that order.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Sequence

from . import __version__
from ._dectext import TEXT_FAST_LIMIT, brief, int_to_text, text_to_int
from .errors import InputFormatError

if TYPE_CHECKING:  # analyze cf reads digit files alone: no construction, nt
    from .construction import BlockCertificate

FORMAT_VERSION = "1"
TOOL_NAME = "abnormal-forge"
HEADER_PREFIX = "# header:"   # a digit file's header comment, then JSON


def _timestamp() -> str:
    from datetime import datetime, timezone
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is None:
        moment = datetime.now(tz=timezone.utc)
    else:
        try:
            moment = datetime.fromtimestamp(text_to_int(pinned), timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            raise InputFormatError(f"bad SOURCE_DATE_EPOCH: {exc}") from None
    return moment.replace(microsecond=0).isoformat()


def run_header(config_echo: dict, seed_descriptor: dict) -> dict:
    """A complete run's header; an aborted run's copy sets ``partial``."""
    return {"tool": TOOL_NAME, "version": __version__,
            "format_version": FORMAT_VERSION, "timestamp": _timestamp(),
            "config": config_echo, "seed": seed_descriptor,
            "partial": False}


def write_digit_file(path, digits: Sequence[int], header: dict) -> None:
    head = (f"# {TOOL_NAME} digit file v{FORMAT_VERSION}\n"
            f"{HEADER_PREFIX} {json.dumps(header, sort_keys=True)}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for d in digits:
            if d < TEXT_FAST_LIMIT:
                fh.write(f"{d}\n")
            else:  # a large value goes out as it is, uncopied
                fh.write(int_to_text(d))
                fh.write("\n")


def parse_digit_file(lines: Iterable[str]) -> tuple[list[int], object]:
    """Digits and header from digit-file lines, read in one pass.

    Each stripped line must be blank, a ``#`` comment, or what ``str()``
    writes for a positive value (``_dectext.is_canonical``). The header is
    the JSON after ``HEADER_PREFIX`` on the first line starting with it,
    or None; later header lines are ignored. The first bad line raises
    :class:`InputFormatError`: a malformed header, or a malformed or
    non-positive entry with its 1-based line number and a shortened copy.
    Every entry is read by ``text_to_int``, exact and subquadratic under
    any digit limit.
    """
    digits = []
    header, header_seen = None, False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if line.startswith(HEADER_PREFIX) and not header_seen:
                header_seen = True
                try:
                    header = json.loads(line[len(HEADER_PREFIX):])
                except (ValueError, RecursionError):  # not JSON, or too deep
                    raise InputFormatError(
                        "malformed header comment") from None
            continue
        try:
            value = text_to_int(line)
        except ValueError:
            raise InputFormatError(f"not an integer: {brief(line)!r}",
                                   line=lineno) from None
        if value < 1:
            raise InputFormatError(
                f"partial quotients must be >= 1, got {brief(value)}",
                line=lineno)
        digits.append(value)
    return digits, header


def read_digit_file(path) -> tuple[list[int], dict | None]:
    """Digits plus the parsed header comment, if one is present."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_digit_file(fh)


def _cert_to_json(cert: BlockCertificate) -> dict:
    return {
        "index": cert.index,
        "base": int_to_text(cert.base),
        "block_end": cert.block_end,
        "inserted": [int_to_text(v) for v in cert.inserted],
        "denoms_before": [int_to_text(v) for v in cert.denoms_before],
        "denoms_after": [int_to_text(v) for v in cert.denoms_after],
        "prime": int_to_text(cert.prime),
        "exponent": int_to_text(cert.exponent),
        "digit_bound": int_to_text(cert.digit_bound),
        "mode": cert.mode,
    }


def _integer(value) -> int:
    """A certificate integer: a JSON integer (not a bool) or a decimal string."""
    if type(value) is str:
        return text_to_int(value)
    if type(value) is int:
        return value
    int(value)  # what int() refuses (None, lists, infinities) keeps its message
    raise TypeError(f"expected an integer or a decimal string, got {value!r}")


def _integers(record: dict, key: str, arity: int) -> tuple[int, ...]:
    values = record[key]
    if type(values) is not list or len(values) != arity:
        raise ValueError(f"{key} must be a list of {arity} integers")
    return tuple(_integer(v) for v in values)


def _cert_from_json(record: dict, place: int) -> BlockCertificate:
    """The ``place``-th certificate record, read in one pass (see above)."""
    from .construction import BlockCertificate
    try:
        index = _integer(record["index"])
        if index != place:
            raise InputFormatError(f"certificate block {place} is numbered "
                                   f"{brief(index)}, not {place}")
        mode = record["mode"]
        if type(mode) is not str:
            raise TypeError(
                f"mode must be a string, got {type(mode).__name__}")
        base, exponent, block_end, prime, digit_bound = (
            _integer(record[key]) for key in
            ("base", "exponent", "block_end", "prime", "digit_bound"))
        return BlockCertificate(
            index=index, base=base, block_end=block_end,
            inserted=_integers(record, "inserted", 4),
            denoms_before=_integers(record, "denoms_before", 2),
            denoms_after=_integers(record, "denoms_after", 3),
            prime=prime, exponent=exponent, digit_bound=digit_bound,
            mode=mode)
    except InputFormatError:
        raise  # the misnumbered record's own message
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(f"bad certificate record: {exc}") from None


def write_certificate_file(path, certificates: Sequence[BlockCertificate],
                           header: dict) -> None:
    payload = {"format": f"{TOOL_NAME}-certificates",
               "format_version": FORMAT_VERSION,
               "header": header,
               "blocks": [_cert_to_json(c) for c in certificates]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_certificate_file(path) -> tuple[list[BlockCertificate], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()  # a decoding error is not a JSON error
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, or past a limit
        raise InputFormatError(f"not valid JSON: {exc}") from None
    del text  # the payload holds each field's text; keep no third copy
    if not isinstance(payload, dict) or type(payload.get("blocks")) is not list:
        raise InputFormatError("missing certificate block list")
    if payload.get("format") != f"{TOOL_NAME}-certificates":
        raise InputFormatError("not a certificate file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise InputFormatError(f"format_version must be {FORMAT_VERSION!r}")
    certs = [_cert_from_json(record, place)
             for place, record in enumerate(payload["blocks"], 1)]
    return certs, payload.get("header", {})
