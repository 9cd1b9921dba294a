"""Stable on-disk formats: digit files and certificate files.

Digit files are UTF-8 text, one positive decimal integer per line, with
``#`` comment lines allowed anywhere; the digit index is the 1-based
order of non-comment lines. Certificate files are JSON with every
arbitrary-precision integer carried as a decimal string, so nothing is
rounded or truncated. Both begin with a run header that echoes enough
configuration to reproduce the run bit-exactly (set SOURCE_DATE_EPOCH
to pin the timestamp for byte-identical reruns).

Decimal text: every integer value of both formats is written and read
through one pair of converters, ``_dectext.int_to_text`` and
``_dectext.text_to_int``, exact for integers of any size under the
interpreter's int<->str digit limit, which nothing here changes. Short
values stay on plain ``str()`` and ``int()``, inline in the digit-file
loops, so files of a million short lines cost what they did; larger
values are converted by halves in subquadratic time. The bytes written
are exactly those of ``str()``, and every text reads as ``int()`` reads
it (signs, underscores, whitespace and non-ASCII digits included).
A large value that appears in both files (a tail digit is a digit-file
line and the certificate's ``inserted[3]``) is converted once per
process: the converters keep their latest large results, keyed on the
full int or the full text, so the second file reuses the first file's
conversion, and the value's text stays alive while it is cached.
``write_digit_file`` writes each large value's text as it is, with no
line-sized copy, which offsets that text in the writer's peak memory.

JSON numbers (the certificates' ``index`` and ``block_end``, the
header's config echo) go through :mod:`json` under the interpreter's
limit: a certificate file holding a longer one is refused with
:class:`InputFormatError`, and a header holding one, which only a
library caller's ``tail_offset`` can give, makes ``write_digit_file``
raise ``ValueError`` before it opens its file. A certificate integer
field is a JSON integer or a decimal string; a JSON float or boolean
there is refused with :class:`InputFormatError`, never truncated.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Sequence

from . import __version__ as TOOL_VERSION
from ._dectext import TEXT_FAST_LIMIT, int_to_text, text_to_int
from .construction import BlockCertificate
from .errors import InputFormatError
from .seed import parse_digit_file

FORMAT_VERSION = "1"
TOOL_NAME = "abnormal-forge"
_LINES_PER_WRITE = 4096


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is not None:
        moment = datetime.fromtimestamp(int(pinned), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.replace(microsecond=0).isoformat()


def run_header(config_echo: dict, seed_descriptor: dict,
               partial: bool = False) -> dict:
    return {"tool": TOOL_NAME, "version": TOOL_VERSION,
            "format_version": FORMAT_VERSION, "timestamp": _timestamp(),
            "config": config_echo, "seed": seed_descriptor,
            "partial": partial}


def write_digit_file(path, digits: Sequence[int], header: dict | None = None) -> None:
    head = f"# {TOOL_NAME} digit file v{FORMAT_VERSION}\n"
    if header is not None:
        head += f"# header: {json.dumps(header, sort_keys=True)}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for start in range(0, len(digits), _LINES_PER_WRITE):
            chunk = digits[start:start + _LINES_PER_WRITE]
            if max(chunk) < TEXT_FAST_LIMIT:
                fh.write("".join([f"{d}\n" for d in chunk]))
                continue
            for d in chunk:  # large values go out as they are, uncopied
                if d < TEXT_FAST_LIMIT:
                    fh.write(f"{d}\n")
                else:
                    fh.write(int_to_text(d))
                    fh.write("\n")


def read_digit_file(path) -> tuple[list[int], dict | None]:
    """Digits plus the parsed header comment, if one is present."""
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for raw in lines:
        line = raw.strip()
        if line.startswith("# header:"):
            try:
                header = json.loads(line[len("# header:"):])
            except ValueError:  # not JSON, or a number past the limit
                raise InputFormatError("malformed header comment") from None
            break
    return parse_digit_file(iter(lines)), header


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
    if type(value) in (int, str):
        return text_to_int(value)
    int(value)  # what int() refuses (None, lists, infinities) keeps its message
    raise TypeError(f"expected an integer or a decimal string, got {value!r}")


def _integers(record: dict, key: str, arity: int) -> tuple[int, ...]:
    values = record[key]
    if type(values) is not list or len(values) != arity:
        raise InputFormatError(f"{key} must be a list of {arity} integers")
    return tuple(_integer(v) for v in values)


def _cert_from_json(record: dict) -> BlockCertificate:
    try:
        inserted = _integers(record, "inserted", 4)
        before = _integers(record, "denoms_before", 2)
        after = _integers(record, "denoms_after", 3)
        if type(record["mode"]) is not str:
            raise TypeError("mode must be a string, got "
                            f"{type(record['mode']).__name__}")
        return BlockCertificate(
            index=_integer(record["index"]),
            base=_integer(record["base"]),
            block_end=_integer(record["block_end"]), inserted=inserted,
            denoms_before=before, denoms_after=after,
            prime=_integer(record["prime"]),
            exponent=_integer(record["exponent"]),
            digit_bound=_integer(record["digit_bound"]),
            mode=record["mode"])
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
    except ValueError as exc:  # not JSON, or a number past the limit
        raise InputFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or type(payload.get("blocks")) is not list:
        raise InputFormatError("missing certificate block list")
    if payload.get("format") != f"{TOOL_NAME}-certificates":
        raise InputFormatError("not a certificate file")
    certs = [_cert_from_json(rec) for rec in payload["blocks"]]
    return certs, payload.get("header", {})
