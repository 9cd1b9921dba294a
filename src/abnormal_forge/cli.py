"""Command-line interface.

Subcommands: ``construct`` (run the pipeline, write digit + certificate
files), ``verify`` (recheck certificates against a digit stream),
and ``analyze cf`` (partial-quotient statistics of a digit file).

Exit codes: 0 success, 1 verification failure, 2 usage/parse/domain
error, 3 search exhaustion or resource budget exceeded (partial outputs
are flushed with a ``partial: true`` header).

The environment variable ``ABNORMAL_FORGE_MEM_BUDGET`` (bytes, default
``construction.DEFAULT_MEM_BYTES``, 256 MiB) caps the tail-digit size,
the discrete-log table (which ``verify`` holds each block prime to as
well) and, with an rng seed, the digits ``construct`` writes:
``--total-digits``, or block 1's N + 4 when larger. Each cap is the
budget over a measured unit price in ``construction``. It counts the
data a command builds, not the interpreter's own ~16.5 MiB.

Each process runs one subcommand, so each handler imports the modules it
runs: importing this module, or running ``verify``, loads no more of the
package than that needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._dectext import brief, brief_bits
from .errors import InputFormatError, ResourceBudgetExceeded, SearchExhausted

MEM_BUDGET_ENV = "ABNORMAL_FORGE_MEM_BUDGET"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _budget_from_env():
    """The memory budget in bytes, and the search caps it pays for."""
    from .construction import DEFAULT_MEM_BYTES, SearchBudget
    raw = os.environ.get(MEM_BUDGET_ENV)
    try:
        mem = DEFAULT_MEM_BYTES if raw is None else int(raw)
        return mem, SearchBudget.from_mem_bytes(mem)
    except ValueError as exc:
        raise InputFormatError(f"bad {MEM_BUDGET_ENV}: {exc}") from None


def _digits_short(total: int, block_size: int, blocks: int) -> str | None:
    """brief() of the digits through block ``blocks``' tail, if past ``total``.

    The count is at least ``block_size << (blocks - 1)``, which may not
    fit in memory. So past ``total``'s bit length plus 128 it is sized,
    not formed: it has blocks - 1 + block_size.bit_length() bits, as
    4 * blocks carries into no new bit.
    """
    from .construction import block_boundary
    if blocks - 1 > total.bit_length() + 128:
        return brief_bits(blocks - 1 + block_size.bit_length())
    needed = block_boundary(block_size, blocks) + 4 if blocks else 0
    return brief(needed) if total < needed else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abnormal-forge",
        description="Forge continued fractions whose scheduled convergent "
                    "denominators are exact base powers, and verify the "
                    "resulting certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="run the construction pipeline")
    seed_group = con.add_mutually_exclusive_group(required=True)
    seed_group.add_argument("--seed-rng", type=int, metavar="U64",
                            help="seed for the reproducible digit sampler")
    seed_group.add_argument("--seed-file", metavar="PATH",
                            help="digit file supplying seed partial quotients")
    con.add_argument("--block-size", type=int, required=True, metavar="N",
                     help="even length of the first block")
    con.add_argument("--blocks", type=int, required=True, metavar="B",
                     help="number of blocks to plan")
    con.add_argument("--mode", default="paper", metavar="MODE",
                     help="paper | toy")
    con.add_argument("--total-digits", type=int, default=None, metavar="M",
                     help="digits to write (default: through the last tail)")
    con.add_argument("--out-digits", required=True, metavar="PATH")
    con.add_argument("--out-cert", required=True, metavar="PATH")

    ver = sub.add_parser("verify", help="recheck certificates from the digits")
    ver.add_argument("--cert", required=True, metavar="PATH")
    ver.add_argument("--digits", required=True, metavar="PATH")

    ana = sub.add_parser("analyze", help="digit statistics")
    ana_sub = ana.add_subparsers(dest="analyze_kind", required=True)
    cf_p = ana_sub.add_parser("cf", help="partial-quotient statistics vs "
                                         "Gauss-measure references")
    cf_p.add_argument("--digits", required=True, metavar="PATH")
    cf_p.add_argument("--strings", required=True, metavar="S",
                      help="semicolon-separated patterns, e.g. '1;2;1,1'")
    cf_p.add_argument("--prefix", type=int, required=True, metavar="N")

    return parser


def _make_source(args):
    from .seed import FileDigitSource, RngDigitSource
    if args.seed_file is not None:
        return FileDigitSource(args.seed_file)
    return RngDigitSource(args.seed_rng)


def _cmd_construct(args) -> int:
    from .construction import (SAMPLED_DIGIT_BYTES, ConstructionAborted,
                               ConstructionConfig, Mode, construct)
    from .formats import run_header, write_certificate_file, write_digit_file
    mem, budget = _budget_from_env()
    config = ConstructionConfig(block_size=args.block_size,
                                blocks=args.blocks,
                                mode=Mode.parse(args.mode), budget=budget)
    total = args.total_digits
    if total is not None and total < 0:
        raise InputFormatError(f"--total-digits must be >= 0, got {total}")
    # verify reads up to the last tail.
    short = (_digits_short(total, config.block_size, config.blocks)
             if total is not None else None)
    if short is not None:
        raise InputFormatError(f"--total-digits {total} is below the "
                               f"{short} digits the certificates need")
    if total is None and not config.blocks and args.seed_rng is not None:
        raise InputFormatError(
            "--total-digits is required for blocks=0 with an rng seed")
    source = _make_source(args)
    seed_descriptor = source.descriptor()
    if args.seed_rng is not None:
        # Block 1 alone samples N digits and writes N + 4, whatever the
        # total.
        first = config.block_size + 4 if config.blocks else 0
        count = max(first, total or 0)
        need = count * SAMPLED_DIGIT_BYTES
        if need > mem:
            raise ResourceBudgetExceeded(
                f"{brief(count)} digits need about {brief(need)} "
                f"bytes, past the {mem}-byte memory budget")
    # Built before the run, so a bad SOURCE_DATE_EPOCH costs no construction.
    header = run_header(dict(config.echo(), total_digits=args.total_digits),
                        seed_descriptor)

    try:
        result = construct(config, source)
    except ConstructionAborted as aborted:
        header = dict(header, partial=True)
        write_digit_file(args.out_digits, aborted.digits, header)
        write_certificate_file(args.out_cert, aborted.certificates, header)
        print(f"error: {aborted}", file=sys.stderr)
        print(f"partial outputs flushed to {args.out_digits} and "
              f"{args.out_cert}", file=sys.stderr)
        if isinstance(aborted.cause, InputFormatError):
            return EXIT_USAGE  # bad or exhausted seed input, not a budget wall
        return EXIT_RESOURCE

    if total is None:
        total = (len(result.digits_through_blocks) if config.blocks
                 else len(source))
    digits = result.prefix(total)

    write_digit_file(args.out_digits, digits, header)
    write_certificate_file(args.out_cert, result.certificates, header)

    for cert in result.certificates:
        q1, q2, q3 = cert.denoms_after
        tail = cert.inserted[3]
        print(f"block {cert.index}: base={cert.base} end={cert.block_end} "
              f"exponent={cert.exponent} digit_bound={cert.digit_bound} "
              f"prime_bits={q2.bit_length()} power_bits={q3.bit_length()} "
              f"tail_bits={tail.bit_length()} mode={cert.mode}")
    print(f"wrote {len(digits)} digits to {args.out_digits}; "
          f"{len(result.certificates)} certificates to {args.out_cert}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .construction import verify_certificate
    from .formats import read_certificate_file, read_digit_file
    _, budget = _budget_from_env()  # the table cap construct plans under
    certs, _header = read_certificate_file(args.cert)
    digits, _ = read_digit_file(args.digits)
    needed = max((c.block_end + 4 for c in certs), default=0)
    if len(digits) < needed:
        raise InputFormatError(
            f"digit file too short: certificates need {brief(needed)} digits, "
            f"found {len(digits)}")
    blocks = []
    all_passed = bool(certs)  # a file with no block certifies nothing
    for cert in certs:
        report = verify_certificate(cert, digits, budget=budget)
        all_passed = all_passed and report.passed
        blocks.append({
            "index": report.index,
            "passed": report.passed,
            "tail_bound_met": report.tail_bound_met,
            "checks": [c._asdict() for c in report.checks],
        })
    print(json.dumps({"all_passed": all_passed, "blocks": blocks}, indent=2))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _parse_patterns(text: str) -> list[list[int]]:
    patterns = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pattern = [int(part) for part in chunk.split(",")]
        except ValueError:
            raise InputFormatError(f"bad pattern {brief(chunk)!r}") from None
        if not pattern or any(d < 1 for d in pattern):
            raise InputFormatError(
                f"patterns need digits >= 1: {brief(chunk)!r}")
        patterns.append(pattern)
    if not patterns:
        raise InputFormatError("no patterns given")
    return patterns


def _cmd_analyze_cf(args) -> int:
    from .formats import read_digit_file
    from .radix import cf_normality_report
    digits, _ = read_digit_file(args.digits)
    if args.prefix > len(digits):
        raise InputFormatError(
            f"prefix {args.prefix} exceeds the {len(digits)} digits on file")
    report = cf_normality_report(digits, _parse_patterns(args.strings),
                                 args.prefix)
    records = [{"string": list(s.pattern), "count": s.count,
                "prefix": s.prefix_len, "ratio": float(s.ratio),
                "reference": float(s.reference),
                "discrepancy": float(s.discrepancy)} for s in report]
    print(json.dumps(records, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_analyze_cf(args)  # argparse leaves only analyze cf
    except (InputFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SearchExhausted, ResourceBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
